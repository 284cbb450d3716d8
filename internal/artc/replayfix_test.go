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

// MaxErrorSamples: zero means the default of 10, so callers cannot
// accidentally disable sample retention; negative disables it.
func TestMaxErrorSamplesZeroMeansDefault(t *testing.T) {
	tr := &trace.Trace{Platform: "linux", Records: []*trace.Record{
		{TID: 1, Call: "open", Path: "/x", Ret: 3},
	}}
	b := handBench(tr, handGraph(1, nil))
	for _, tc := range []struct {
		in, want int
	}{
		{0, 10}, {3, 3}, {-1, -1},
	} {
		sys := stack.New(sim.NewKernel(), defaultConf())
		rs, err := start(sys, b, Options{MaxErrorSamples: tc.in})
		if err != nil {
			t.Fatal(err)
		}
		if rs.opts.MaxErrorSamples != tc.want {
			t.Fatalf("MaxErrorSamples %d normalized to %d, want %d",
				tc.in, rs.opts.MaxErrorSamples, tc.want)
		}
	}
}

func TestNegativeMaxErrorSamplesRetainsNone(t *testing.T) {
	rs := &replayState{opts: Options{MaxErrorSamples: -1}, rep: &Report{}}
	rec := &trace.Record{TID: 1, Call: "open", Path: "/x", Err: "ENOENT"}
	for i := 0; i < 5; i++ {
		rs.compare(i, rec, 3, vfs.OK) // traced failure, replay success
	}
	if rs.rep.Errors != 5 {
		t.Fatalf("Errors = %d, want 5 (counting must not be disabled)", rs.rep.Errors)
	}
	if len(rs.rep.ErrorSamples) != 0 {
		t.Fatalf("ErrorSamples = %v, want none", rs.rep.ErrorSamples)
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
		waiting:   make([]*sim.Thread, 2),
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
	tr := &trace.Trace{Platform: "linux", Records: []*trace.Record{
		{TID: 1, Call: "read", FD: 9, Start: 0, End: 10},
		{TID: 2, Call: "write", FD: 9, Start: 0, End: 10},
	}}
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

func TestReplayConcurrentUnknownMethod(t *testing.T) {
	tr := &trace.Trace{Platform: "linux", Records: []*trace.Record{
		{TID: 1, Call: "open", Path: "/x", Ret: 3},
	}}
	b := handBench(tr, handGraph(1, nil))
	sys := stack.New(sim.NewKernel(), defaultConf())
	_, err := ReplayConcurrent(sys, []ConcurrentItem{
		{B: b, Opts: Options{}},
		{B: b, Opts: Options{Method: "bogus"}},
	})
	if err == nil {
		t.Fatal("unknown method accepted")
	}
	for _, want := range []string{"benchmark 1", "unknown replay method"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q (must identify the offending item)", err, want)
		}
	}
}

func TestReplayConcurrentDeadlockIdentifiesBlockage(t *testing.T) {
	okTr := &trace.Trace{Platform: "linux", Records: []*trace.Record{
		{TID: 1, Call: "stat", Path: "/f", Start: 0, End: 1},
	}}
	okB, err := Compile(okTr, nil, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	badTr := &trace.Trace{Platform: "linux", Records: []*trace.Record{
		{TID: 1, Call: "read", FD: 9, Start: 0, End: 10},
		{TID: 2, Call: "write", FD: 9, Start: 0, End: 10},
	}}
	res := core.ResourceID{Kind: core.KFD, Name: "9", Gen: 1}
	cyclic := handGraph(2, []core.Edge{
		{From: 0, To: 1, Kind: core.WaitComplete, Res: res},
		{From: 1, To: 0, Kind: core.WaitComplete, Res: res},
	})
	sys := stack.New(sim.NewKernel(), defaultConf())
	if err := Init(sys, okB, ""); err != nil {
		t.Fatal(err)
	}
	_, err = ReplayConcurrent(sys, []ConcurrentItem{
		{B: okB, Opts: Options{}},
		{B: handBench(badTr, cyclic), Opts: Options{}},
	})
	if err == nil {
		t.Fatal("concurrent replay with a cyclic benchmark did not fail")
	}
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("error = %v, want a *sim.DeadlockError in the chain", err)
	}
	// Only the cyclic benchmark's two threads remain blocked; the healthy
	// benchmark's thread must have finished.
	if len(dl.Blocked) != 2 {
		t.Fatalf("blocked threads = %d, want 2: %v", len(dl.Blocked), dl.Blocked)
	}
	if !strings.Contains(err.Error(), "concurrent replay stalled") {
		t.Fatalf("error should say the concurrent replay stalled: %v", err)
	}
}
