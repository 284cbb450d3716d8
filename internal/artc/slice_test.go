package artc

import (
	"fmt"
	"runtime"
	"sort"
	"testing"

	"rootreplay/internal/core"
	"rootreplay/internal/fault"
	"rootreplay/internal/obs"
	"rootreplay/internal/sim"
	"rootreplay/internal/snapshot"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
	"rootreplay/internal/workload"
)

// genPipeline synthesizes the cross-edge-heavy slicing corpus: stages
// chained into one component by shared handoff files.
func genPipeline(t *testing.T, stages, ops, handoff int) (*trace.Trace, *snapshot.Snapshot) {
	t.Helper()
	tr, snap, err := workload.SynthPipeline(workload.Pipeline{
		Stages: stages, Ops: ops, Handoff: handoff, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr, snap
}

// serialWarm replays serially with metadata warmed, the
// device-independent baseline the sliced corpus is compared against:
// every open is a cache hit, so in-call times cannot depend on which
// replica's device queue serves them.
func serialWarm(t *testing.T, tr *trace.Trace, snap *snapshot.Snapshot, in *fault.Injector, opts Options) *Report {
	t.Helper()
	b, err := Compile(tr, snap, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	conf := defaultConf()
	conf.Faults = in
	k := sim.NewKernel()
	sys := stack.New(k, conf)
	if err := Init(sys, b, ""); err != nil {
		t.Fatal(err)
	}
	sys.WarmAll()
	opts.SelfCheck = true
	opts.Fault = in
	rep, err := Replay(sys, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// slicedOn replays through ReplaySharded with slicing enabled.
func slicedOn(t *testing.T, tr *trace.Trace, snap *snapshot.Snapshot, opts Options,
	shards, sliceActions int, plan *fault.Plan) (*Report, *ShardStats) {
	t.Helper()
	b, err := Compile(tr, snap, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	opts.SelfCheck = true
	so := ShardOptions{
		Shards: shards,
		Target: defaultConf(),
		Init: func(sys *stack.System) error {
			if err := Init(sys, b, opts.Prefix); err != nil {
				return err
			}
			sys.WarmAll()
			return nil
		},
		Fault:        plan,
		SliceActions: sliceActions,
	}
	rep, st, err := ReplaySharded(b, opts, so)
	if err != nil {
		t.Fatal(err)
	}
	return rep, st
}

// canonSpans sorts spans into the canonical (Done, Action) export order
// so serial record order and sliced merge order compare equal.
func canonSpans(spans []obs.Span) []obs.Span {
	out := append([]obs.Span(nil), spans...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Done != out[j].Done {
			return out[i].Done < out[j].Done
		}
		return out[i].Action < out[j].Action
	})
	return out
}

// The tentpole contract: slicing a single-component trace changes the
// partition but never the merged report or spans — byte-identical to
// serial artc.Replay across shard counts. Counter samples are exempt
// (probes observe per-replica scheduler state).
func TestSlicedPipelineByteIdenticalToSerial(t *testing.T) {
	tr, snap := genPipeline(t, 4, 200, 8)
	serialRec := obs.NewRecorder(0, 0)
	serial := serialWarm(t, tr, snap, nil, Options{Obs: serialRec})
	serialJS := reportJSON(t, serial)
	serialSpans := canonSpans(serialRec.Spans())

	n := len(tr.Records)
	for _, shards := range []int{1, 2, 4, 8} {
		rec := obs.NewRecorder(0, 0)
		rep, st := slicedOn(t, tr, snap, Options{Obs: rec}, shards, n/4+1, nil)
		if st.Sliced != 1 || st.Components < 2 {
			t.Fatalf("shards=%d: pipeline did not slice: %+v", shards, st)
		}
		if st.Synthetic == 0 {
			t.Fatalf("shards=%d: slicing registered no synthetic edges: %+v", shards, st)
		}
		if got := reportJSON(t, rep); got != serialJS {
			t.Errorf("shards=%d: sliced report differs from serial:\n got %s\nwant %s", shards, got, serialJS)
		}
		spans := canonSpans(rec.Spans())
		if len(spans) != len(serialSpans) {
			t.Fatalf("shards=%d: %d spans, serial %d", shards, len(spans), len(serialSpans))
		}
		for i := range spans {
			if spans[i] != serialSpans[i] {
				t.Fatalf("shards=%d: span %d differs:\n got %+v\nwant %+v", shards, i, spans[i], serialSpans[i])
			}
		}
	}
}

// The coordinator must be schedule-independent: the sliced report
// matches serial at every host parallelism level, shards {1,2,4,8} x
// GOMAXPROCS {1,2,8} (CI reruns this under -race).
func TestSlicedDifferentialAcrossProcs(t *testing.T) {
	tr, snap := genPipeline(t, 4, 120, 8)
	serial := reportJSON(t, serialWarm(t, tr, snap, nil, Options{}))
	n := len(tr.Records)
	var advances int64
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, shards := range []int{1, 2, 4, 8} {
			rep, st := slicedOn(t, tr, snap, Options{}, shards, n/4+1, nil)
			if st.Components < 2 {
				t.Fatalf("procs=%d shards=%d: did not slice: %+v", procs, shards, st)
			}
			if got := reportJSON(t, rep); got != serial {
				t.Errorf("procs=%d shards=%d: sliced report differs from serial", procs, shards)
			}
			// The coordinator's traffic is a function of the plan too: the
			// kernels call their pacers the same number of times however
			// the host interleaves them.
			if advances == 0 {
				advances = rep.Coord.Advances
			}
			if got := rep.Coord.Advances; got == 0 || got != advances {
				t.Errorf("procs=%d shards=%d: %d pacer advances, first run had %d", procs, shards, got, advances)
			}
		}
	}
}

// Slice granularity is an internal knob like Shards: different
// MaxActions values cut differently but must all merge to the same
// report.
func TestSlicedDeterministicAcrossGranularity(t *testing.T) {
	tr, snap := genPipeline(t, 3, 120, 6)
	n := len(tr.Records)
	var base string
	for _, frac := range []int{2, 3, 5} {
		rep, st := slicedOn(t, tr, snap, Options{}, 0, n/frac+1, nil)
		if st.Components < 2 {
			t.Fatalf("frac=%d: did not slice: %+v", frac, st)
		}
		js := reportJSON(t, rep)
		if base == "" {
			base = js
		} else if js != base {
			t.Fatalf("frac=%d: report differs across slice granularity", frac)
		}
	}
}

// Fault decisions are keyed by global action index, so slicing must not
// move them: sliced chaos output is byte-identical to serial chaos.
func TestSlicedFaultMatchesSerial(t *testing.T) {
	tr, snap := genPipeline(t, 3, 100, 8)
	plan := fault.Plan{
		Seed:    31,
		Syscall: fault.SyscallPlan{Rate: 0.2},
		Retry:   fault.RetryPlan{MaxAttempts: 3},
	}
	serial := serialWarm(t, tr, snap, fault.New(plan), Options{SelfCheck: true})
	n := len(tr.Records)
	rep, st := slicedOn(t, tr, snap, Options{}, 0, n/3+1, &plan)
	if st.Components < 2 {
		t.Fatalf("pipeline did not slice: %+v", st)
	}
	if got, want := reportJSON(t, rep), reportJSON(t, serial); got != want {
		t.Errorf("sliced chaos report differs from serial:\n got %s\nwant %s", got, want)
	}
	if rep.FaultStats == nil || rep.FaultStats.SyscallInjected == 0 {
		t.Fatalf("plan injected nothing: %+v", rep.FaultStats)
	}
}

// genFlat generates nThreads threads hammering files that all live
// directly under one directory, including creates there, so every
// resource unifies with /flat and the component is one atom.
func genFlat(t *testing.T, nThreads, opsPer int) (*trace.Trace, *snapshot.Snapshot) {
	t.Helper()
	k := sim.NewKernel()
	sys := stack.New(k, defaultConf())
	if err := sys.SetupMkdirAll("/flat"); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 3; f++ {
		if err := sys.SetupCreate(fmt.Sprintf("/flat/f%d", f), 1<<16); err != nil {
			t.Fatal(err)
		}
	}
	snap := snapshot.Capture(sys)
	tr := &trace.Trace{Platform: string(stack.Linux)}
	sys.SetTracer(tr)
	for c := 0; c < nThreads; c++ {
		c := c
		k.Spawn(fmt.Sprintf("flat-%d", c), func(th *sim.Thread) {
			for i := 0; i < opsPer; i++ {
				switch i % 3 {
				case 0:
					if fd, errno := sys.Open(th, fmt.Sprintf("/flat/f%d", i%3), trace.ORdonly, 0); errno == 0 {
						sys.Pread(th, fd, 4096, int64(i%8)*4096)
						sys.Close(th, fd)
					}
				case 1:
					if fd, errno := sys.Open(th, fmt.Sprintf("/flat/new%d-%d", c, i), trace.OWronly|trace.OCreat, 0o644); errno == 0 {
						sys.Write(th, fd, 1024)
						sys.Close(th, fd)
					}
				case 2:
					sys.Stat(th, "/flat/f0")
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return tr, snap
}

// A component whose actions all share one flat directory is a single
// atom: slicing must refuse to cut it and fall back to the
// whole-component plan.
func TestSlicedSingleAtomKeptWhole(t *testing.T) {
	tr, snap := genFlat(t, 3, 40)
	rep, st := slicedOn(t, tr, snap, Options{}, 0, len(tr.Records)/4+1, nil)
	if st.Sliced != 0 || st.Synthetic != 0 || st.Components != 1 {
		t.Fatalf("single-atom component was cut: %+v", st)
	}
	serial := serialWarm(t, tr, snap, nil, Options{})
	if got, want := reportJSON(t, rep), reportJSON(t, serial); got != want {
		t.Errorf("unsliced fallback differs from serial")
	}
}
