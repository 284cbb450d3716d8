package artc

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"rootreplay/internal/core"
	"rootreplay/internal/fault"
	"rootreplay/internal/obs"
	"rootreplay/internal/shard"
	"rootreplay/internal/sim"
	"rootreplay/internal/snapshot"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
)

// genGroups traces nComp groups of opsPer random file operations. Each
// group runs on its own thread against its own directory, so shared=false
// partitions into nComp components; with shared=true every thread works
// in one directory and the resource closure keeps the trace whole.
func genGroups(t *testing.T, nComp, opsPer int, shared bool) (*trace.Trace, *snapshot.Snapshot) {
	t.Helper()
	k := sim.NewKernel()
	sys := stack.New(k, defaultConf())
	dirs := nComp
	if shared {
		dirs = 1
	}
	for c := 0; c < dirs; c++ {
		if err := sys.SetupMkdirAll(fmt.Sprintf("/comp%d/sub", c)); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 3; f++ {
			if err := sys.SetupCreate(fmt.Sprintf("/comp%d/f%d", c, f), 1<<16); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap := snapshot.Capture(sys)
	tr := &trace.Trace{Platform: string(stack.Linux)}
	sys.SetTracer(func(r *trace.Record) { tr.Records = append(tr.Records, r) })
	for c := 0; c < nComp; c++ {
		c := c
		rng := rand.New(rand.NewSource(int64(c)*104729 + 1))
		k.Spawn(fmt.Sprintf("grp-%d", c), func(th *sim.Thread) {
			dir := fmt.Sprintf("/comp%d", c)
			if shared {
				dir = "/comp0"
			}
			for i := 0; i < opsPer; i++ {
				switch rng.Intn(5) {
				case 0:
					fd, errno := sys.Open(th, fmt.Sprintf("%s/f%d", dir, rng.Intn(3)), trace.ORdonly, 0)
					if errno == 0 {
						sys.Pread(th, fd, 4096, int64(rng.Intn(8))*4096)
						sys.Close(th, fd)
					}
				case 1:
					p := fmt.Sprintf("%s/sub/new%d-%d", dir, c, i)
					fd, errno := sys.Open(th, p, trace.OWronly|trace.OCreat, 0o644)
					if errno == 0 {
						sys.Write(th, fd, 1024)
						sys.Close(th, fd)
					}
				case 2:
					sys.Stat(th, fmt.Sprintf("%s/f%d", dir, rng.Intn(3)))
				case 3:
					sys.Stat(th, fmt.Sprintf("%s/missing%d", dir, rng.Intn(2)))
				case 4:
					fd, errno := sys.Open(th, fmt.Sprintf("%s/f0", dir), trace.ORdwr, 0)
					if errno == 0 {
						sys.Pwrite(th, fd, 2048, int64(rng.Intn(4))*4096)
						sys.Fsync(th, fd)
						sys.Close(th, fd)
					}
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	tr.Renumber()
	return tr, snap
}

// shardedOn compiles and replays the trace through ReplaySharded with
// the standard test target; the returned stats describe the partition.
func shardedOn(t *testing.T, tr *trace.Trace, snap *snapshot.Snapshot, opts Options, shards int, plan *fault.Plan) (*Report, *ShardStats) {
	t.Helper()
	rep, st, err := shardedOnErr(t, tr, snap, opts, shards, plan)
	if err != nil {
		t.Fatal(err)
	}
	return rep, st
}

func shardedOnErr(t *testing.T, tr *trace.Trace, snap *snapshot.Snapshot, opts Options, shards int, plan *fault.Plan) (*Report, *ShardStats, error) {
	t.Helper()
	b, err := Compile(tr, snap, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	opts.SelfCheck = true
	so := ShardOptions{
		Shards: shards,
		Target: defaultConf(),
		Init:   func(sys *stack.System) error { return Init(sys, b, opts.Prefix) },
		Fault:  plan,
	}
	return ReplaySharded(b, opts, so)
}

// reportJSON renders a report for byte-level comparison; every exported
// field participates.
func reportJSON(t *testing.T, rep *Report) string {
	t.Helper()
	buf, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// A trace the partitioner keeps whole must replay byte-identically to
// the serial replayer, spans and counter samples included, under every
// method.
func TestShardedSingleComponentByteIdentical(t *testing.T) {
	tr, snap := genGroups(t, 3, 40, true) // 3 threads, one shared directory
	for _, m := range []Method{MethodARTC, MethodTemporal, MethodSingle, MethodUnconstrained} {
		serialRec := obs.NewRecorder(0, 0)
		serial := replayOn(t, tr, snap, defaultConf(), Options{Method: m, Obs: serialRec})

		shardRec := obs.NewRecorder(0, 0)
		rep, st := shardedOn(t, tr, snap, Options{Method: m, Obs: shardRec}, 0, nil)
		if st.Components != 1 || st.CrossEdges != 0 {
			t.Fatalf("%s: shared-directory trace split: %+v", m, st)
		}
		if got, want := reportJSON(t, rep), reportJSON(t, serial); got != want {
			t.Errorf("%s: sharded report differs from serial:\n got %s\nwant %s", m, got, want)
		}
		if !reflect.DeepEqual(shardRec.Spans(), serialRec.Spans()) {
			t.Errorf("%s: sharded spans differ from serial", m)
		}
		if !reflect.DeepEqual(shardRec.Samples(), serialRec.Samples()) {
			t.Errorf("%s: sharded samples differ from serial", m)
		}
	}
}

// Isolated components must replay identically whatever the worker
// bound, and agree with the serial replayer on everything that does not
// depend on device sharing (the serial run multiplexes all components
// over one device, so only virtual-time placement may differ).
func TestShardedIsolatedDeterministicAcrossShardCounts(t *testing.T) {
	const nComp = 5
	tr, snap := genGroups(t, nComp, 60, false)
	serial := replayOn(t, tr, snap, defaultConf(), Options{})

	var base string
	for _, shards := range []int{1, 2, 4, 8} {
		rep, st := shardedOn(t, tr, snap, Options{}, shards, nil)
		if st.Components != nComp || st.Clusters != nComp || st.CrossEdges != 0 {
			t.Fatalf("shards=%d: unexpected partition %+v", shards, st)
		}
		if st.Shards != shards {
			t.Fatalf("stats recorded %d shards, want %d", st.Shards, shards)
		}
		js := reportJSON(t, rep)
		if base == "" {
			base = js
		} else if js != base {
			t.Fatalf("shards=%d: report differs from shards=1", shards)
		}
		if rep.Errors != serial.Errors || rep.Emulated != serial.Emulated || rep.Actions != serial.Actions {
			t.Errorf("shards=%d: semantics diverged from serial: errors %d/%d emulated %d/%d",
				shards, rep.Errors, serial.Errors, rep.Emulated, serial.Emulated)
		}
		if !reflect.DeepEqual(rep.CallCount, serial.CallCount) {
			t.Errorf("shards=%d: call counts diverged from serial", shards)
		}
	}
}

// Program-order mode chains every action across components; the cluster
// coordinator must enforce those cross edges (SelfCheck validates the
// merged order against the full graph) and stay deterministic across
// worker bounds.
func TestShardedProgramSeqBarriers(t *testing.T) {
	tr, snap := genGroups(t, 4, 40, false)
	modes := core.ModeSet{ProgramSeq: true}
	var base string
	for _, shards := range []int{1, 2, 8} {
		rep, st := shardedOn(t, tr, snap, Options{Modes: &modes}, shards, nil)
		if st.CrossEdges == 0 {
			t.Fatalf("program-seq partition registered no cross edges: %+v", st)
		}
		if st.Clusters != 1 {
			t.Fatalf("program-seq components not clustered: %+v", st)
		}
		if rep.Errors != 0 {
			t.Fatalf("shards=%d: %d semantic errors: %v", shards, rep.Errors, rep.ErrorSamples)
		}
		js := reportJSON(t, rep)
		if base == "" {
			base = js
		} else if js != base {
			t.Fatalf("shards=%d: program-seq report differs from shards=1", shards)
		}
	}
}

// Temporal replay induces issue-order cross edges between components;
// same barrier-correctness and determinism contract as program order.
func TestShardedTemporalBarriers(t *testing.T) {
	tr, snap := genGroups(t, 3, 30, false)
	var base string
	for _, shards := range []int{1, 4} {
		rep, st := shardedOn(t, tr, snap, Options{Method: MethodTemporal}, shards, nil)
		if st.CrossEdges == 0 {
			t.Fatalf("temporal partition registered no cross edges: %+v", st)
		}
		if rep.Errors != 0 {
			t.Fatalf("shards=%d: %d semantic errors: %v", shards, rep.Errors, rep.ErrorSamples)
		}
		js := reportJSON(t, rep)
		if base == "" {
			base = js
		} else if js != base {
			t.Fatalf("shards=%d: temporal report differs from shards=1", shards)
		}
	}
}

// Fault injection on a single-component trace must be byte-identical to
// the serial chaos replayer: decisions are keyed by global action index,
// so the same plan hits the same actions.
func TestShardedFaultSingleComponentMatchesSerial(t *testing.T) {
	tr, snap := genGroups(t, 2, 40, true)
	plan := fault.Plan{
		Seed:    77,
		Syscall: fault.SyscallPlan{Rate: 0.3},
		Retry:   fault.RetryPlan{MaxAttempts: 3},
	}
	serial, err := replayWithInjector(t, tr, snap, fault.New(plan), Options{SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, st := shardedOn(t, tr, snap, Options{}, 0, &plan)
	if st.Components != 1 {
		t.Fatalf("shared trace split: %+v", st)
	}
	if got, want := reportJSON(t, rep), reportJSON(t, serial); got != want {
		t.Errorf("sharded chaos report differs from serial:\n got %s\nwant %s", got, want)
	}
	if rep.FaultStats == nil || rep.FaultStats.SyscallInjected == 0 {
		t.Fatalf("plan injected nothing: %+v", rep.FaultStats)
	}
}

// Chaos decisions must not depend on the worker bound: the per-replica
// injectors key their streams by global action index.
func TestShardedFaultDeterministicAcrossShardCounts(t *testing.T) {
	tr, snap := genGroups(t, 4, 40, false)
	plan := fault.Plan{
		Seed:    5,
		Syscall: fault.SyscallPlan{Rate: 0.25},
		Retry:   fault.RetryPlan{MaxAttempts: 2},
	}
	var base string
	for _, shards := range []int{1, 2, 8} {
		rep, _ := shardedOn(t, tr, snap, Options{}, shards, &plan)
		if rep.FaultStats == nil || rep.FaultStats.SyscallInjected == 0 {
			t.Fatalf("shards=%d: plan injected nothing", shards)
		}
		js := reportJSON(t, rep)
		if base == "" {
			base = js
		} else if js != base {
			t.Fatalf("shards=%d: chaos report differs from shards=1", shards)
		}
	}
}

// An error-budget abort in one member must abort the whole cluster and
// surface the member's structured stall report.
func TestShardedAbortPropagates(t *testing.T) {
	tr, snap := genGroups(t, 3, 40, false)
	plan := fault.Plan{
		Seed:    11,
		Syscall: fault.SyscallPlan{Rate: 1.0},
		Degrade: fault.DegradeAbort,
	}
	modes := core.ModeSet{ProgramSeq: true} // cluster the components
	_, _, err := shardedOnErr(t, tr, snap, Options{Modes: &modes}, 0, &plan)
	if err == nil {
		t.Fatal("full-rate abort plan replayed cleanly")
	}
	var stall *StallReport
	if !errors.As(err, &stall) {
		t.Fatalf("abort surfaced as %T (%v), want *StallReport", err, err)
	}
	if stall.Errors == 0 {
		t.Fatalf("stall report counts no errors: %+v", stall)
	}
}

// A panic in one member of a sliced cluster — in a simulated thread of its
// kernel, or in its Init hook on the member's goroutine — must come back
// as ReplaySharded's error with the origin's stack, abort the peers, and
// leave no goroutine behind; it used to end the process.
func TestShardedMemberPanicIsAnError(t *testing.T) {
	tr, snap := genPipeline(t, 4, 200, 16)
	b, err := Compile(tr, snap, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		doom   func(sys *stack.System)
		thread string
	}{
		{"thread", func(sys *stack.System) {
			sys.K.Spawn("doomed", func(th *sim.Thread) {
				th.Sleep(time.Millisecond) // the replay is under way by now
				panic("member exploded")
			})
		}, "doomed"},
		{"init", func(*stack.System) { panic("member exploded") }, "host goroutine"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			var replicas atomic.Int32
			_, st, err := ReplaySharded(b, Options{}, ShardOptions{
				Shards: 4, Target: defaultConf(), SliceActions: len(tr.Records)/4 + 1,
				Init: func(sys *stack.System) error {
					if err := Init(sys, b, ""); err != nil {
						return err
					}
					if replicas.Add(1) == 2 {
						tc.doom(sys)
					}
					return nil
				},
			})
			if st == nil || st.Components < 4 || st.Clusters != 1 {
				t.Fatalf("corpus did not slice into one cluster of four: %+v", st)
			}
			var tp *sim.ThreadPanic
			if !errors.As(err, &tp) {
				t.Fatalf("error = %v, want a *sim.ThreadPanic in the chain", err)
			}
			if !strings.HasPrefix(tp.Thread, tc.thread) || tp.Value != "member exploded" ||
				!strings.Contains(string(tp.Stack), "TestShardedMemberPanicIsAnError") {
				t.Fatalf("panic lost its origin: thread %q value %v\n%s", tp.Thread, tp.Value, tp.Stack)
			}
			if !strings.Contains(err.Error(), "artc: shard ") {
				t.Fatalf("error does not name the shard: %v", err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// Options.Fault carries a per-kernel injector and cannot describe a
// per-replica plan; sharded replay must reject it loudly.
func TestShardedRejectsOptionsFault(t *testing.T) {
	tr, snap := genGroups(t, 2, 10, false)
	b, err := Compile(tr, snap, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = ReplaySharded(b, Options{Fault: fault.New(fault.Plan{})}, ShardOptions{Target: defaultConf()})
	if err == nil || !strings.Contains(err.Error(), "ShardOptions.Fault") {
		t.Fatalf("Options.Fault accepted: %v", err)
	}
}

// A cross-shard barrier wait must name the peer shard and edge in park
// and stall reasons, not read as a spurious local deadlock.
func TestShardedCrossReasonNamesPeer(t *testing.T) {
	tr, snap := genGroups(t, 2, 10, false)
	modes := core.ModeSet{ProgramSeq: true}
	b, err := Compile(tr, snap, modes)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Modes: &modes}
	g, err := methodGraph(b, &opts)
	if err != nil {
		t.Fatal(err)
	}
	plan := shard.Partition(b.Analysis, g)
	if len(plan.Components) != 2 || len(plan.Cross) == 0 {
		t.Fatalf("want 2 cross-connected components, got %d components, %d cross edges",
			len(plan.Components), len(plan.Cross))
	}
	shards := buildShards(b, g, plan, false)
	ce := plan.Cross[0]
	sub := shards[ce.To].sub
	e := &g.Edges[ce.Edge]
	var li int32 = -1
	for l, gi := range sub.global {
		if int(gi) == e.To {
			li = int32(l)
			break
		}
	}
	if li < 0 {
		t.Fatalf("edge target %d not in component %d", e.To, ce.To)
	}
	sub.crossWaitEdge[li] = ce.Edge
	reason := sub.crossReason(int(li))
	want := fmt.Sprintf("awaiting action %d (shard %d)", e.From, ce.From)
	if !strings.Contains(reason, want) || !strings.Contains(reason, fmt.Sprintf("action %d:", e.To)) {
		t.Fatalf("cross reason %q does not name peer (want %q)", reason, want)
	}
}

// A member's sub-analysis shares its parent's path, touch and resource
// tables, so every index a member's actions hold names what it named in
// the full analysis; partitioned and sliced plans alike.
func TestShardSubAnalysesShareResources(t *testing.T) {
	tr, snap := genPipeline(t, 3, 100, 8)
	b, err := Compile(tr, snap, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	parent := b.Analysis.Resources
	plan := shard.Partition(b.Analysis, b.Graph)
	sliced := shard.Slice(b.Analysis, b.Graph, plan, shard.SliceOptions{MaxActions: len(tr.Records)/4 + 1})
	if len(sliced.Components) <= len(plan.Components) {
		t.Fatalf("slicing made %d members of %d components; want more", len(sliced.Components), len(plan.Components))
	}
	for _, p := range []*shard.Plan{plan, sliced} {
		for _, cs := range buildShards(b, b.Graph, p, false) {
			sub := cs.b.Analysis
			if len(sub.Resources) != len(parent) || unsafe.SliceData(sub.Resources) != unsafe.SliceData(parent) {
				t.Fatalf("member %d has its own %d-entry resource table, not its parent's %d", cs.comp, len(sub.Resources), len(parent))
			}
			if len(sub.Paths) != len(b.Analysis.Paths) || unsafe.SliceData(sub.Paths) != unsafe.SliceData(b.Analysis.Paths) {
				t.Fatalf("member %d has its own %d-entry path table, not its parent's %d", cs.comp, len(sub.Paths), len(b.Analysis.Paths))
			}
			if len(sub.TouchSlab) != len(b.Analysis.TouchSlab) || unsafe.SliceData(sub.TouchSlab) != unsafe.SliceData(b.Analysis.TouchSlab) {
				t.Fatalf("member %d has its own %d-entry touch slab, not its parent's %d", cs.comp, len(sub.TouchSlab), len(b.Analysis.TouchSlab))
			}
			for li, gidx := range cs.members {
				if got, want := sub.Actions[li], b.Analysis.Actions[gidx]; got != want {
					t.Fatalf("member %d action %d is %+v, parent's action %d %+v", cs.comp, li, got, gidx, want)
				}
				if got, want := sub.Touches(li), b.Analysis.Touches(int(gidx)); !reflect.DeepEqual(got, want) {
					t.Fatalf("member %d action %d touches %v, parent's action %d %v", cs.comp, li, got, gidx, want)
				}
			}
		}
	}
}
