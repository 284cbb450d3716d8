package artc

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"rootreplay/internal/core"
	"rootreplay/internal/fault"
	"rootreplay/internal/obs"
	"rootreplay/internal/sim"
	"rootreplay/internal/snapshot"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
)

// faultWorkloadTrace records a small two-thread workload with enough
// opens/reads/writes for injection to bite.
func faultWorkloadTrace(t *testing.T) (*trace.Trace, *snapshot.Snapshot) {
	t.Helper()
	return traceWorkload(t, defaultConf(),
		func(sys *stack.System) error { return sys.SetupCreate("/data/in", 1<<20) },
		func(sys *stack.System, th *sim.Thread) {
			fd, _ := sys.Open(th, "/data/in", trace.ORdonly, 0)
			for i := 0; i < 8; i++ {
				sys.Read(th, fd, 4096)
			}
			sys.Close(th, fd)
			out, _ := sys.Open(th, "/data/out", trace.OWronly|trace.OCreat, 0o644)
			for i := 0; i < 8; i++ {
				sys.Write(th, out, 4096)
			}
			sys.Fsync(th, out)
			sys.Close(th, out)
		})
}

// replayWithInjector compiles and replays the trace with the injector
// wired into both the target stack and the replayer.
func replayWithInjector(t *testing.T, tr *trace.Trace, snap *snapshot.Snapshot, in *fault.Injector, opts Options) (*Report, error) {
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
	opts.Fault = in
	return Replay(sys, b, opts)
}

// A zero plan must be byte-equivalent to no injector at all: same
// errors, same virtual elapsed time, zeroed counters.
func TestFaultZeroPlanMatchesNoInjector(t *testing.T) {
	tr, snap := faultWorkloadTrace(t)
	clean := replayOn(t, tr, snap, defaultConf(), Options{})

	rep, err := replayWithInjector(t, tr, snap, fault.New(fault.Plan{Seed: 9}), Options{SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != clean.Errors || rep.Elapsed != clean.Elapsed {
		t.Fatalf("zero plan diverged: errors %d vs %d, elapsed %v vs %v",
			rep.Errors, clean.Errors, rep.Elapsed, clean.Elapsed)
	}
	if rep.FaultStats == nil || *rep.FaultStats != (fault.Stats{}) {
		t.Fatalf("zero plan counted faults: %v", rep.FaultStats)
	}
}

// Syscall injection without retry must surface as semantic errors with
// exactly reproducible counts for a given seed, and different counts
// across seeds (eventually).
func TestSyscallInjectionDeterministic(t *testing.T) {
	tr, snap := faultWorkloadTrace(t)
	run := func(seed uint64) (*Report, fault.Stats) {
		in := fault.New(fault.Plan{Seed: seed, Syscall: fault.SyscallPlan{Rate: 0.3}})
		rep, err := replayWithInjector(t, tr, snap, in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return rep, in.Stats()
	}
	repA, stA := run(1)
	repB, stB := run(1)
	if repA.Errors != repB.Errors || stA != stB {
		t.Fatalf("same seed diverged: %d/%d errors, stats %v vs %v",
			repA.Errors, repB.Errors, stA, stB)
	}
	if stA.SyscallInjected == 0 || repA.Errors == 0 {
		t.Fatalf("rate 0.3 injected nothing: %v", stA)
	}
	if repA.Errors != int(stA.SyscallInjected) {
		t.Fatalf("each injected failure should be one semantic error: %d errors, %v", repA.Errors, stA)
	}
	diverged := false
	for seed := uint64(2); seed < 12; seed++ {
		if rep, _ := run(seed); rep.Errors != repA.Errors {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("ten different seeds all produced identical error counts")
	}
}

// With a retry budget that outlasts the injection rate, every injected
// failure must be retried to success: zero semantic errors, one retry
// per injected attempt, recovery counted, nothing skipped, and virtual
// time stretched by the backoff.
func TestRetryRecoversInjectedFaults(t *testing.T) {
	tr, snap := faultWorkloadTrace(t)
	clean := replayOn(t, tr, snap, defaultConf(), Options{})
	in := fault.New(fault.Plan{
		Seed:    4,
		Syscall: fault.SyscallPlan{Rate: 0.5},
		Retry:   fault.RetryPlan{MaxAttempts: 16},
	})
	rep, err := replayWithInjector(t, tr, snap, in, Options{SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("retries did not recover: %d errors %v", rep.Errors, rep.ErrorSamples)
	}
	st := in.Stats()
	if st.SyscallInjected < 2 || st.Retries != st.SyscallInjected ||
		st.Recovered == 0 || st.Recovered > st.Retries || st.Skipped != 0 {
		t.Fatalf("stats = %v, want every injected attempt retried and recovered", st)
	}
	if rep.Elapsed <= clean.Elapsed {
		t.Fatalf("backoff did not stretch virtual time: %v <= %v", rep.Elapsed, clean.Elapsed)
	}
}

// Storage faults are transparent to replay semantics — the device
// retries internally — but cost virtual time and are counted.
func TestStorageFaultsTransparentButSlower(t *testing.T) {
	tr, snap := faultWorkloadTrace(t)
	clean := replayOn(t, tr, snap, defaultConf(), Options{})
	in := fault.New(fault.Plan{
		Seed:    7,
		Storage: fault.StoragePlan{ErrorRate: 0.5, SlowRate: 0.3},
	})
	rep, err := replayWithInjector(t, tr, snap, in, Options{SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != clean.Errors {
		t.Fatalf("storage faults changed semantics: %d vs %d errors", rep.Errors, clean.Errors)
	}
	st := in.Stats()
	if st.StorageErrors == 0 && st.StorageSlow == 0 {
		t.Fatalf("no storage faults injected at these rates: %v", st)
	}
	if rep.Elapsed <= clean.Elapsed {
		t.Fatalf("device retries cost no virtual time: %v <= %v", rep.Elapsed, clean.Elapsed)
	}
}

// The stall watchdog converts a dependency-cycle hang into a structured
// deadlock report naming the blocked actions and their wait reasons —
// the PR 2 deadlock-report path, now exercised under injected faults.
// Without a watchdog the same cycle surfaces as the kernel's own
// DeadlockError; with one, the report is the replayer's richer form.
func TestWatchdogStallReportTable(t *testing.T) {
	res := core.ResourceID{Kind: core.KFD, Name: "9", Gen: 1}
	cycleTrace := &trace.Trace{Platform: "linux"}
	s := cycleTrace.Intern
	cycleTrace.Records = []trace.Record{
		{TID: 1, Call: s("read"), FD: 9, Path: s("/cyc"), Start: 0, End: 10},
		{TID: 2, Call: s("write"), FD: 9, Path: s("/cyc"), Start: 0, End: 10},
	}
	cycle := []core.Edge{
		{From: 0, To: 1, Kind: core.WaitComplete, Res: res},
		{From: 1, To: 0, Kind: core.WaitComplete, Res: res},
	}
	// Three actions: 0 completes, then 1 and 2 deadlock on each other.
	partialTrace := &trace.Trace{Platform: "linux"}
	s = partialTrace.Intern
	partialTrace.Records = []trace.Record{
		{TID: 1, Call: s("stat"), Path: s("/f"), Err: s("ENOENT"), Start: 0, End: 5},
		{TID: 1, Call: s("read"), FD: 9, Path: s("/cyc"), Start: 5, End: 10},
		{TID: 2, Call: s("write"), FD: 9, Path: s("/cyc"), Start: 5, End: 10},
	}
	partial := []core.Edge{
		{From: 1, To: 2, Kind: core.WaitComplete, Res: res},
		{From: 2, To: 1, Kind: core.WaitComplete, Res: res},
	}

	cases := []struct {
		name          string
		tr            *trace.Trace
		edges         []core.Edge
		compiled      bool // compile for a real Analysis (actions execute)
		obs           bool
		wantCompleted int
		wantBlocked   []int
		wantReasons   []string
	}{
		{
			name: "two-action cycle", tr: cycleTrace, edges: cycle,
			wantCompleted: 0, wantBlocked: []int{0, 1},
			wantReasons: []string{"e.g. on action 1 (fd(9)@1)", "e.g. on action 0 (fd(9)@1)"},
		},
		{
			name: "cycle after progress", tr: partialTrace, edges: partial, compiled: true,
			wantCompleted: 1, wantBlocked: []int{1, 2},
			wantReasons: []string{"e.g. on action 2 (fd(9)@1)", "e.g. on action 1 (fd(9)@1)"},
		},
		{
			name: "cycle with obs attached", tr: cycleTrace, edges: cycle, obs: true,
			wantCompleted: 0, wantBlocked: []int{0, 1},
			wantReasons: []string{"e.g. on action 1 (fd(9)@1)", "e.g. on action 0 (fd(9)@1)"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := fault.New(fault.Plan{Seed: 1, Watchdog: 50 * time.Millisecond})
			var b *Benchmark
			if tc.compiled {
				// Actions before the cycle actually execute, so the
				// benchmark needs a real Analysis; only the graph is
				// replaced by the hand-built cycle.
				var err error
				b, err = Compile(tc.tr, nil, core.DefaultModes())
				if err != nil {
					t.Fatal(err)
				}
				b.Graph = handGraph(len(tc.tr.Records), tc.edges)
			} else {
				b = handBench(tc.tr, handGraph(len(tc.tr.Records), tc.edges))
			}
			sys := stack.New(sim.NewKernel(), defaultConf())
			opts := Options{Fault: in}
			if tc.obs {
				opts.Obs = obs.NewRecorder(0, 0)
			}
			_, err := Replay(sys, b, opts)
			if err == nil {
				t.Fatal("cyclic replay under a watchdog returned no error")
			}
			var sr *StallReport
			if !errors.As(err, &sr) {
				t.Fatalf("error = %v, want a *StallReport", err)
			}
			if sr.Trigger != "watchdog" || sr.Window != 50*time.Millisecond {
				t.Fatalf("Trigger/Window = %q/%v", sr.Trigger, sr.Window)
			}
			if sr.Completed != tc.wantCompleted || sr.Total != len(tc.tr.Records) {
				t.Fatalf("Completed/Total = %d/%d, want %d/%d",
					sr.Completed, sr.Total, tc.wantCompleted, len(tc.tr.Records))
			}
			if len(sr.Blocked) != len(tc.wantBlocked) {
				t.Fatalf("blocked = %v, want actions %v", sr.Blocked, tc.wantBlocked)
			}
			for i, want := range tc.wantBlocked {
				if sr.Blocked[i].Action != want {
					t.Fatalf("blocked[%d] = action %d, want %d", i, sr.Blocked[i].Action, want)
				}
				if !strings.Contains(sr.Blocked[i].Reason, "dep(s) left") ||
					!strings.Contains(sr.Blocked[i].Reason, tc.wantReasons[i]) {
					t.Fatalf("blocked[%d] reason = %q, want it to name %q",
						i, sr.Blocked[i].Reason, tc.wantReasons[i])
				}
			}
			if tc.obs && sr.Crit == nil {
				t.Fatal("obs-enabled stall report lost its critical path")
			}
			msg := err.Error()
			for _, want := range []string{"stalled (watchdog)", "dep(s) left", "fd(9)@1"} {
				if !strings.Contains(msg, want) {
					t.Fatalf("report text missing %q:\n%s", want, msg)
				}
			}
		})
	}
}

// A healthy replay under an armed watchdog must complete normally: the
// watchdog sees completion and stops re-arming.
func TestWatchdogQuietOnHealthyReplay(t *testing.T) {
	tr, snap := faultWorkloadTrace(t)
	// Size the window so the replay cannot sit a full two windows
	// without completing anything: half the clean elapsed time always
	// sees progress on this workload.
	clean := replayOn(t, tr, snap, defaultConf(), Options{})
	in := fault.New(fault.Plan{Seed: 3, Watchdog: clean.Elapsed / 2})
	rep, err := replayWithInjector(t, tr, snap, in, Options{SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("healthy watchdog replay reported %d errors", rep.Errors)
	}
}

// A replay the watchdog aborts stops its kernel with replay threads
// still blocked mid-call. Run must unwind them: a daemon that aborts
// chaos jobs all day cannot keep a goroutine per abandoned thread.
func TestWatchdogAbortLeavesNoGoroutines(t *testing.T) {
	// Two threads each read from a blocking /dev/random stand-in, at
	// 200ms of virtual time a byte: no action completes within two
	// 50ms watchdog windows.
	tr, snap := traceWorkload(t, defaultConf(),
		func(sys *stack.System) error { return sys.SetupSpecial("/entropy", stack.SpecialRandomBlocking) },
		func(sys *stack.System, th *sim.Thread) {
			wg := sim.NewWaitGroup(sys.K)
			for i := 0; i < 2; i++ {
				wg.Add(1)
				sys.K.Spawn("reader", func(rt *sim.Thread) {
					fd, _ := sys.Open(rt, "/entropy", trace.ORdonly, 0)
					sys.Read(rt, fd, 16)
					sys.Close(rt, fd)
					wg.Done()
				})
			}
			wg.Wait(th)
		})
	b, err := Compile(tr, snap, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		_, _, err := Run(b, RunSpec{
			Target: defaultConf(),
			Fault:  &fault.Plan{Seed: 1, Watchdog: 50 * time.Millisecond},
		})
		var sr *StallReport
		if !errors.As(err, &sr) || sr.Trigger != "watchdog" {
			t.Fatalf("Run = %v, want a watchdog stall", err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked across aborted replays: %d before, %d after", base, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
