package artc_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"rootreplay/internal/artc"
	"rootreplay/internal/core"
	"rootreplay/internal/fault"
	"rootreplay/internal/magritte"
	"rootreplay/internal/obs"
	"rootreplay/internal/sim"
	"rootreplay/internal/snapshot"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
	"rootreplay/internal/workload"
)

// diffCase is one corpus of the differential test: a compiled benchmark,
// the machine to replay it on, and how to initialize that machine.
type diffCase struct {
	name   string
	b      *artc.Benchmark
	target stack.Config
	init   func(*stack.System) error
	warm   bool
	plan   *fault.Plan
	// slice, when positive, also runs the sharded arm sliced to this many
	// actions (the corpus is one component otherwise).
	slice int
}

func compileCase(t *testing.T, name string, tr *trace.Trace, snap *snapshot.Snapshot, target string) diffCase {
	t.Helper()
	b, err := artc.Compile(tr, snap, core.DefaultModes())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	conf, err := stack.ParseTarget(target, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return diffCase{name: name, b: b, target: conf,
		init: func(sys *stack.System) error { return artc.Init(sys, b, "") }}
}

// descriptorCorpus traces what the remap tables exist for: descriptor
// numbers reused across generations and threads, dup, dup2 onto an open
// number, F_DUPFD, AIO control blocks, and calls that fail on a
// then-valid descriptor (FDHint) or on a closed one.
func descriptorCorpus(t *testing.T) (*trace.Trace, *snapshot.Snapshot) {
	t.Helper()
	conf := stack.DefaultConfig()
	k := sim.NewKernel()
	sys := stack.New(k, conf)
	for _, err := range []error{
		sys.SetupMkdirAll("/dir"), sys.SetupCreate("/a", 1<<20), sys.SetupCreate("/b", 1<<20),
		sys.SetupCreate("/c", 64<<10),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	snap := snapshot.Capture(sys)
	tr := &trace.Trace{Platform: string(conf.Platform)}
	sys.SetTracer(tr)
	for w := 0; w < 3; w++ {
		k.Spawn("w", func(th *sim.Thread) {
			for round := 0; round < 6; round++ {
				a, _ := sys.Open(th, "/a", trace.ORdwr, 0)
				b, _ := sys.Open(th, "/b", trace.ORdonly, 0)
				dir, _ := sys.Open(th, "/dir", trace.ORdonly|trace.ODir, 0)
				sys.Read(th, dir, 100) // EISDIR on a valid descriptor
				d, _ := sys.Dup(th, a)
				sys.Pread(th, d, 4096, int64(round)*4096)
				sys.Dup2(th, b, d) // closes d's generation, rebinds the number
				sys.Pread(th, d, 4096, 0)
				e, _ := sys.Fcntl(th, a, "F_DUPFD", 0)
				sys.Write(th, e, 8192)
				id, _ := sys.AioRead(th, b, 16384, int64(round)*16384)
				id2, _ := sys.AioWrite(th, a, 4096, 65536)
				sys.AioSuspend(th, id)
				sys.AioError(th, id)
				sys.AioReturn(th, id)
				sys.AioSuspend(th, id2)
				sys.AioReturn(th, id2)
				sys.AioReturn(th, id2) // EINVAL: already reaped
				sys.Close(th, dir)
				sys.Fstat(th, dir) // EBADF: the number is free now
				sys.Close(th, e)
				sys.Close(th, d)
				sys.Close(th, b)
				sys.Fsync(th, a)
				sys.Close(th, a)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	tr.Renumber()
	return tr, snap
}

func diffCases(t *testing.T) []diffCase {
	t.Helper()
	var cases []diffCase
	specs := magritte.Specs
	if testing.Short() {
		specs = specs[:4]
	}
	mopts := magritte.DefaultSuiteOptions()
	for _, spec := range specs {
		gen, err := magritte.Generate(spec, mopts.Gen)
		if err != nil {
			t.Fatal(err)
		}
		b, err := artc.Compile(gen.Trace, gen.Snapshot, core.DefaultModes())
		if err != nil {
			t.Fatal(err)
		}
		// OS X traces on the Linux target: the emulation table at work.
		cases = append(cases, diffCase{name: "magritte/" + spec.FullName(), b: b, target: mopts.Target,
			init: magritte.TargetInit(b, mopts.DevRandomSymlink)})
	}

	tr, snap, err := workload.SynthPipeline(workload.Pipeline{Stages: 4, Ops: 300, Handoff: 16, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	c := compileCase(t, "pipeline", tr, snap, "linux-ext4-ssd-noop")
	c.warm, c.slice = true, len(tr.Records)/4+1
	cases = append(cases, c)

	tr, snap, err = workload.SynthPipeline(workload.Pipeline{Stages: 4, Ops: 200, Handoff: 16, Fsync: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, compileCase(t, "pipeline-fsync", tr, snap, "linux-ext4-hdd-cfq"))

	tr, snap, err = workload.SynthComponents(workload.Components{N: 5, Ops: 400, Skew: 0.5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, compileCase(t, "components", tr, snap, "linux-ext4-ssd-noop"))

	tr, snap = descriptorCorpus(t)
	cases = append(cases, compileCase(t, "descriptors", tr, snap, "linux-ext4-hdd-cfq"))
	c = compileCase(t, "descriptors-on-osx", tr, snap, "osx-hfs+-hdd")
	cases = append(cases, c)

	c = compileCase(t, "descriptors-faults", tr, snap, "linux-ext4-hdd-cfq")
	c.plan = &fault.Plan{
		Seed:    3,
		Syscall: fault.SyscallPlan{Rate: 0.2, Calls: []string{"pread", "open", "fsync"}},
		Retry:   fault.RetryPlan{MaxAttempts: 2},
		Storage: fault.StoragePlan{SlowRate: 0.05},
	}
	cases = append(cases, c)
	return cases
}

// reportJSON renders what two replays of one benchmark must agree on:
// every exported field of the Report but its coordinator accounting,
// maps in key order.
func reportJSON(t *testing.T, r *artc.Report) string {
	t.Helper()
	buf, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// exportOf renders a recorder's spans; counter samples observe
// per-replica scheduler state and are dropped, as in every sliced
// comparison.
func exportOf(t *testing.T, rec *obs.Recorder) []byte {
	t.Helper()
	rec.ClearSamples()
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTablesMatchMapOracle replays every corpus through the map-keyed
// reference replayer and through the product's table-driven one, serial
// and sharded, and requires the same Report (per-call and per-thread maps
// included), the same stack statistics, the same span export bytes, and —
// where the corpus slices — the same wait profile at every shard count.
func TestTablesMatchMapOracle(t *testing.T) {
	for _, c := range diffCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			newSystem := func() (*stack.System, *fault.Injector) {
				var inj *fault.Injector
				conf := c.target
				if c.plan != nil {
					inj = fault.New(*c.plan)
					conf.Faults = inj
				}
				sys := stack.New(sim.NewKernel(), conf)
				if err := c.init(sys); err != nil {
					t.Fatal(err)
				}
				if c.warm {
					sys.WarmAll()
				}
				return sys, inj
			}

			osys, oinj := newSystem()
			orec := obs.NewRecorder(len(c.b.Trace.Records), 0)
			want, err := oracleReplay(osys, c.b, artc.Options{Obs: orec, Fault: oinj})
			if err != nil {
				t.Fatal(err)
			}
			wantExport := exportOf(t, orec)
			if want.Actions == 0 || len(want.CallCount) == 0 {
				t.Fatal("oracle replayed nothing")
			}
			if c.plan != nil && (want.FaultStats.SyscallInjected == 0 || want.FaultStats.Recovered == 0) {
				t.Fatalf("fault plan injected nothing: %v", want.FaultStats)
			}

			sys, inj := newSystem()
			rec := obs.NewRecorder(len(c.b.Trace.Records), 0)
			got, err := artc.Replay(sys, c.b, artc.Options{Obs: rec, Fault: inj, SelfCheck: true})
			if err != nil {
				t.Fatal(err)
			}
			wantReport := reportJSON(t, want)
			if g := reportJSON(t, got); g != wantReport {
				t.Fatalf("serial report differs from the oracle's:\n got %s\nwant %s", g, wantReport)
			}
			if g, w := sys.Stats(), osys.Stats(); !reflect.DeepEqual(g, w) {
				t.Fatalf("stack statistics differ from the oracle's:\n got %+v\nwant %+v", g, w)
			}
			if !bytes.Equal(exportOf(t, rec), wantExport) {
				t.Fatal("serial export differs from the oracle's")
			}

			var wait *[2]int64 // virtual cross-edge wait and publications
			for _, shards := range []int{2, 4} {
				rec := obs.NewRecorder(len(c.b.Trace.Records), 0)
				warm := c.warm
				got, st, err := artc.ReplaySharded(c.b, artc.Options{Obs: rec, SelfCheck: true}, artc.ShardOptions{
					Shards: shards, Target: c.target, Fault: c.plan, SliceActions: c.slice,
					Init: func(sys *stack.System) error {
						if err := c.init(sys); err != nil {
							return err
						}
						if warm {
							sys.WarmAll()
						}
						return nil
					},
				})
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if c.slice > 0 && st.Components < 2 {
					t.Fatalf("shards=%d: corpus did not slice: %+v", shards, st)
				}
				// A plan of several replicas injects storage faults per
				// replica, so only single-replica plans replay the oracle's
				// virtual time under a fault plan.
				if c.plan == nil || st.Components == 1 {
					if g := reportJSON(t, got); g != wantReport {
						t.Fatalf("shards=%d: report differs from the oracle's:\n got %s\nwant %s", shards, g, wantReport)
					}
					if !bytes.Equal(exportOf(t, rec), wantExport) {
						t.Fatalf("shards=%d: export differs from the oracle's", shards)
					}
				}
				if got.Coord != nil {
					w := [2]int64{got.Coord.CrossWaitNs, got.Coord.Published}
					if wait != nil && w != *wait {
						t.Fatalf("shards=%d: cross-edge wait accounting %v differs across shard counts (%v)", shards, w, *wait)
					}
					wait = &w
				}
			}
			if c.slice > 0 && wait == nil {
				t.Fatal("sliced corpus produced no cross-edge wait accounting")
			}
		})
	}
}
