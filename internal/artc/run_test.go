package artc_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"rootreplay/internal/artc"
	"rootreplay/internal/core"
	"rootreplay/internal/fault"
	"rootreplay/internal/magritte"
	"rootreplay/internal/obs"
	"rootreplay/internal/sim"
	"rootreplay/internal/stack"
	"rootreplay/internal/workload"
)

func TestRunSpecValidate(t *testing.T) {
	cases := []struct {
		name    string
		spec    artc.RunSpec
		wantErr string // substring; "" = valid
	}{
		{"zero spec is a serial replay", artc.RunSpec{}, ""},
		{"serial, warm, fault plan", artc.RunSpec{Warm: true, Fault: &fault.Plan{}}, ""},
		{"sharded", artc.RunSpec{Shards: 4}, ""},
		{"GOMAXPROCS workers, every slice option", artc.RunSpec{Shards: -1, SliceActions: 500, SliceMax: 4,
			SliceDeviceSync: true}, ""},
		{"slice-actions without shards", artc.RunSpec{SliceActions: 500}, "slice options require Shards"},
		{"slice-max without shards", artc.RunSpec{SliceMax: 4}, "slice options require Shards"},
		{"slice-device-sync without shards", artc.RunSpec{SliceDeviceSync: true}, "slice options require Shards"},
		{"injector instead of plan", artc.RunSpec{Options: artc.Options{Fault: fault.New(fault.Plan{})}}, "fault plan in Fault"},
		{"injector instead of plan, sharded", artc.RunSpec{Shards: 2, Options: artc.Options{Fault: fault.New(fault.Plan{})}}, "fault plan in Fault"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error = %v, want one containing %q", tc.name, err, tc.wantErr)
			continue
		}
		// Run refuses the same spec before it touches the benchmark.
		if _, _, rerr := artc.Run(nil, tc.spec); rerr == nil || rerr.Error() != err.Error() {
			t.Errorf("%s: Run error = %v, want %v", tc.name, rerr, err)
		}
	}
}

// A failed init is reported as ErrInit by both engines, with the
// caller's error still in the chain.
func TestRunInitError(t *testing.T) {
	b := componentsBench(t)
	boom := errors.New("boom")
	for _, shards := range []int{0, 2} {
		_, _, err := artc.Run(b, artc.RunSpec{
			Target: magritte.DefaultSuiteOptions().Target,
			Shards: shards,
			Init:   func(*stack.System) error { return boom },
		})
		if !errors.Is(err, artc.ErrInit) || !errors.Is(err, boom) {
			t.Errorf("shards=%d: err = %v, want ErrInit wrapping the init error", shards, err)
		}
	}
}

func magritteBench(t *testing.T) *artc.Benchmark {
	t.Helper()
	spec, ok := magritte.SpecByName("pages_docphoto15")
	if !ok {
		t.Fatal("unknown magritte spec")
	}
	gen, err := magritte.Generate(spec, magritte.GenOptions{Scale: 0.01, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := artc.Compile(gen.Trace, gen.Snapshot, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func componentsBench(t *testing.T) *artc.Benchmark {
	t.Helper()
	tr, snap, err := workload.SynthComponents(workload.Components{N: 5, Ops: 200, Skew: 0.5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := artc.Compile(tr, snap, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// outcome is everything a driver hands on: the report and the export.
func outcome(t *testing.T, rep *artc.Report, rec *obs.Recorder) (string, []byte) {
	t.Helper()
	doc, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var export bytes.Buffer
	if err := rec.WriteChrome(&export); err != nil {
		t.Fatal(err)
	}
	return string(doc), export.Bytes()
}

// Run must be the two engines and nothing else: for every shape a
// driver can ask for, its report and its Chrome export equal those of
// the engine called by hand the way the drivers used to call it —
// machine built, injector wired into stack and replayer, init, warm.
func TestRunMatchesEngines(t *testing.T) {
	plan := fault.Plan{
		Seed:    3,
		Syscall: fault.SyscallPlan{Rate: 0.02, Errno: "EIO"},
		Storage: fault.StoragePlan{ErrorRate: 0.02, SlowRate: 0.02},
		Retry:   fault.RetryPlan{MaxAttempts: 4},
	}
	target := magritte.DefaultSuiteOptions().Target
	mb := magritteBench(t)
	corpora := []struct {
		name string
		b    *artc.Benchmark
		init func(*stack.System) error // the spec's Init; nil = default
	}{
		{"magritte", mb, magritte.TargetInit(mb, true)},
		{"components", componentsBench(t), nil},
	}
	for _, c := range corpora {
		b := c.b
		sliceActions := len(b.Trace.Records)/4 + 1
		shapes := []struct {
			name string
			spec artc.RunSpec
		}{
			{"serial", artc.RunSpec{}},
			{"serial warm fault", artc.RunSpec{Warm: true, Fault: &plan}},
			{"sharded", artc.RunSpec{Shards: 2}},
			{"sharded procs", artc.RunSpec{Shards: -1}},
			{"sliced warm fault", artc.RunSpec{Shards: 2, SliceActions: sliceActions, SliceMax: 4, Warm: true, Fault: &plan}},
		}
		for _, sh := range shapes {
			spec := sh.spec
			spec.Target = target
			spec.Init = c.init
			spec.Options = artc.Options{Method: artc.MethodARTC, SelfCheck: true}

			recRun := obs.NewRecorder(0, 0)
			spec.Options.Obs = recRun
			rep, st, err := artc.Run(b, spec)
			if err != nil {
				t.Fatalf("%s/%s: Run: %v", c.name, sh.name, err)
			}
			if (st != nil) != (spec.Shards != 0) {
				t.Errorf("%s/%s: ShardStats = %v with Shards = %d", c.name, sh.name, st, spec.Shards)
			}

			// The same replay, spelled out.
			init := func(sys *stack.System) error {
				if c.init == nil {
					if err := artc.Init(sys, b, ""); err != nil {
						return err
					}
				} else if err := c.init(sys); err != nil {
					return err
				}
				if spec.Warm {
					sys.WarmAll()
				}
				return nil
			}
			recHand := obs.NewRecorder(0, 0)
			opts := spec.Options
			opts.Obs = recHand
			var want *artc.Report
			if spec.Shards == 0 {
				conf := target
				if spec.Fault != nil {
					opts.Fault = fault.New(*spec.Fault)
					conf.Faults = opts.Fault
				}
				sys := stack.New(sim.NewKernel(), conf)
				if err := init(sys); err != nil {
					t.Fatal(err)
				}
				want, err = artc.Replay(sys, b, opts)
			} else {
				want, _, err = artc.ReplaySharded(b, opts, artc.ShardOptions{
					Shards: max(spec.Shards, 0), Target: target, Init: init, Fault: spec.Fault,
					SliceActions: spec.SliceActions, SliceMax: spec.SliceMax,
				})
			}
			if err != nil {
				t.Fatalf("%s/%s: by hand: %v", c.name, sh.name, err)
			}

			gotDoc, gotExport := outcome(t, rep, recRun)
			wantDoc, wantExport := outcome(t, want, recHand)
			if gotDoc != wantDoc {
				t.Errorf("%s/%s: Run's report differs from the engine's", c.name, sh.name)
			}
			if !bytes.Equal(gotExport, wantExport) {
				t.Errorf("%s/%s: Run's export differs from the engine's (%d vs %d bytes)",
					c.name, sh.name, len(gotExport), len(wantExport))
			}
			if spec.Fault != nil && (rep.FaultStats == nil || *rep.FaultStats == (fault.Stats{})) {
				t.Errorf("%s/%s: the fault plan injected nothing", c.name, sh.name)
			}
		}
	}
}
