package artc

import (
	"errors"
	"strings"
	"testing"
	"time"

	"rootreplay/internal/core"
	"rootreplay/internal/sim"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
	"rootreplay/internal/vfs"
)

// handGraph indexes a hand-written edge list; deadlock and underflow
// scenarios need graphs the compiler (which only emits forward edges)
// can never produce.
func handGraph(n int, edges []core.Edge) *core.Graph {
	return core.NewGraph(n, edges)
}

// handBench wraps a trace and graph as a benchmark without compiling.
func handBench(tr *trace.Trace, g *core.Graph) *Benchmark {
	return &Benchmark{Platform: tr.Platform, Trace: tr, Graph: g}
}

// A report keeps the first maxErrorSamples mismatch descriptions and
// counts every mismatch.
func TestErrorSamplesCappedErrorsCounted(t *testing.T) {
	rs := &replayState{rep: &Report{}}
	tr := &trace.Trace{}
	rec := &trace.Record{TID: 1, Call: tr.Intern("open"), Path: tr.Intern("/x"), Err: tr.Intern("ENOENT")}
	for i := 0; i < maxErrorSamples+5; i++ {
		rs.compare(i, tr, rec, 3, vfs.OK) // traced failure, replay success
	}
	if rs.rep.Errors != maxErrorSamples+5 {
		t.Fatalf("Errors = %d, want %d (counting must not stop at the cap)", rs.rep.Errors, maxErrorSamples+5)
	}
	if len(rs.rep.ErrorSamples) != maxErrorSamples || !strings.HasPrefix(rs.rep.ErrorSamples[0], "action 0 ") {
		t.Fatalf("ErrorSamples = %q, want the first %d", rs.rep.ErrorSamples, maxErrorSamples)
	}
}

// waitReason must judge predecessors by explicit lifecycle state, not by
// zero issue/done times: an action legitimately issued at virtual time 0
// is not "not yet issued".
func TestWaitReasonActionIssuedAtTimeZero(t *testing.T) {
	g := handGraph(3, []core.Edge{
		// Edge 0: action 0 issued (at virtual time 0!) — satisfied.
		{From: 0, To: 2, Kind: core.WaitIssue,
			Res: core.ResourceID{Kind: core.KFD, Name: "3", Gen: 1}},
		// Edge 1: action 1 never ran — the real blocker.
		{From: 1, To: 2, Kind: core.WaitComplete,
			Res: core.ResourceID{Kind: core.KFD, Name: "4", Gen: 1}},
	})
	rs := &replayState{
		g:         g,
		remaining: []int32{0, 0, 1},
		status:    []uint8{actIssued, 0, 0},
		issueAt:   make([]time.Duration, 3),
		doneAt:    make([]time.Duration, 3),
	}
	reason := rs.waitReason(2)
	if !strings.Contains(reason, "on action 1") {
		t.Fatalf("waitReason names the wrong blocker: %q (action 0 issued at t=0, action 1 never ran)", reason)
	}
}

func TestWaitReasonInCallPredecessor(t *testing.T) {
	// A WaitComplete predecessor that has issued but not completed is
	// still the blocker; issued-only must not satisfy a complete edge.
	g := handGraph(2, []core.Edge{
		{From: 0, To: 1, Kind: core.WaitComplete,
			Res: core.ResourceID{Kind: core.KFD, Name: "3", Gen: 1}},
	})
	rs := &replayState{
		g:         g,
		remaining: []int32{0, 1},
		status:    []uint8{actIssued, 0},
	}
	if reason := rs.waitReason(1); !strings.Contains(reason, "on action 0") {
		t.Fatalf("waitReason = %q, want action 0 named as blocker", reason)
	}
}

// A dependency counter driven negative means the replayer's counters
// disagree with the graph's edge list; the replayer must fail loudly
// instead of silently un-ordering the replay.
func TestDepSatisfiedUnderflowPanics(t *testing.T) {
	g := handGraph(2, []core.Edge{{From: 0, To: 1, Kind: core.WaitComplete}})
	rs := &replayState{
		g:         g,
		remaining: []int32{0, 0}, // malformed: the edge list says action 1 waits on one edge
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("depSatisfied drove the counter negative without panicking")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "underflow") {
			t.Fatalf("panic = %v, want an underflow message", r)
		}
	}()
	rs.depSatisfied(0)
}

// A cyclic graph deadlocks; the report must name a blocked action and
// the dependency it is blocked on, so the failure is actionable.
func TestReplayDeadlockReport(t *testing.T) {
	tr := &trace.Trace{Platform: "linux"}
	s := tr.Intern
	tr.Records = []trace.Record{
		{TID: 1, Call: s("read"), FD: 9, Start: 0, End: 10},
		{TID: 2, Call: s("write"), FD: 9, Start: 0, End: 10},
	}
	res := core.ResourceID{Kind: core.KFD, Name: "9", Gen: 1}
	g := handGraph(2, []core.Edge{
		{From: 0, To: 1, Kind: core.WaitComplete, Res: res},
		{From: 1, To: 0, Kind: core.WaitComplete, Res: res},
	})
	sys := stack.New(sim.NewKernel(), defaultConf())
	_, err := Replay(sys, handBench(tr, g), Options{})
	if err == nil {
		t.Fatal("cyclic graph replayed without deadlocking")
	}
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("error = %v, want a *sim.DeadlockError in the chain", err)
	}
	if len(dl.Blocked) != 2 {
		t.Fatalf("blocked threads = %d, want 2: %v", len(dl.Blocked), dl.Blocked)
	}
	msg := err.Error()
	for _, want := range []string{"deadlock", "replay-T1", "dep(s) left", "e.g. on action", "fd(9)@1"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("deadlock report missing %q:\n%s", want, msg)
		}
	}
}
