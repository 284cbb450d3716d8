package artc

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"rootreplay/internal/core"
	"rootreplay/internal/sim"
	"rootreplay/internal/snapshot"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
)

// traceWorkload runs fn on a fresh traced system and returns the trace
// plus a snapshot of the pre-run tree.
func traceWorkload(t *testing.T, conf stack.Config, setup func(*stack.System) error, fn func(*stack.System, *sim.Thread)) (*trace.Trace, *snapshot.Snapshot) {
	t.Helper()
	k := sim.NewKernel()
	sys := stack.New(k, conf)
	if setup != nil {
		if err := setup(sys); err != nil {
			t.Fatal(err)
		}
	}
	snap := snapshot.Capture(sys)
	tr := &trace.Trace{Platform: string(conf.Platform)}
	sys.SetTracer(tr)
	k.Spawn("workload", func(th *sim.Thread) { fn(sys, th) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	tr.Renumber()
	return tr, snap
}

// replayOn compiles and replays on a fresh system with the given config.
func replayOn(t *testing.T, tr *trace.Trace, snap *snapshot.Snapshot, conf stack.Config, opts Options) *Report {
	t.Helper()
	b, err := Compile(tr, snap, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	sys := stack.New(k, conf)
	if err := Init(sys, b, opts.Prefix); err != nil {
		t.Fatal(err)
	}
	opts.SelfCheck = true
	rep, err := Replay(sys, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func defaultConf() stack.Config {
	c := stack.DefaultConfig()
	c.Scheduler = stack.SchedNoop
	return c
}

func TestRoundTripSingleThreadNoErrors(t *testing.T) {
	tr, snap := traceWorkload(t, defaultConf(),
		func(sys *stack.System) error { return sys.SetupCreate("/data/in", 1<<20) },
		func(sys *stack.System, th *sim.Thread) {
			fd, _ := sys.Open(th, "/data/in", trace.ORdonly, 0)
			for i := 0; i < 10; i++ {
				sys.Read(th, fd, 4096)
			}
			sys.Close(th, fd)
			out, _ := sys.Open(th, "/data/out", trace.OWronly|trace.OCreat, 0o644)
			sys.Write(th, out, 8192)
			sys.Fsync(th, out)
			sys.Close(th, out)
			sys.Stat(th, "/data/missing") // fails in trace, must fail in replay
			sys.Rename(th, "/data/out", "/data/out2")
			sys.Unlink(th, "/data/out2")
		})
	if len(tr.Records) != 19 {
		t.Fatalf("traced %d records", len(tr.Records))
	}
	for _, m := range []Method{MethodARTC, MethodSingle, MethodTemporal, MethodUnconstrained} {
		rep := replayOn(t, tr, snap, defaultConf(), Options{Method: m})
		if rep.Errors != 0 {
			t.Errorf("%s: %d semantic errors: %v", m, rep.Errors, rep.ErrorSamples)
		}
		if rep.Actions != len(tr.Records) {
			t.Errorf("%s: replayed %d actions", m, rep.Actions)
		}
	}
}

// Cross-thread fd handoff: one thread opens, another reads, a third
// closes. Unconstrained replay must race and fail; ARTC must not.
func TestCrossThreadHandoffSemantics(t *testing.T) {
	conf := defaultConf()
	k := sim.NewKernel()
	sys := stack.New(k, conf)
	if err := sys.SetupCreate("/shared", 1<<20); err != nil {
		t.Fatal(err)
	}
	snap := snapshot.Capture(sys)
	tr := &trace.Trace{Platform: string(conf.Platform)}
	sys.SetTracer(tr)

	var fd int64 = -1
	opened := sim.NewCond(k)
	readDone := sim.NewCond(k)
	reads := 0
	k.Spawn("opener", func(th *sim.Thread) {
		fd, _ = sys.Open(th, "/shared", trace.ORdonly, 0)
		opened.Broadcast()
	})
	for i := 0; i < 3; i++ {
		k.Spawn("reader", func(th *sim.Thread) {
			for fd == -1 {
				opened.Wait(th, "open")
			}
			sys.Pread(th, fd, 4096, int64(reads)*4096)
			reads++
			readDone.Broadcast()
		})
	}
	k.Spawn("closer", func(th *sim.Thread) {
		for reads < 3 {
			readDone.Wait(th, "reads")
		}
		sys.Close(th, fd)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	tr.Renumber()
	if len(tr.Threads()) != 5 {
		t.Fatalf("trace has %d threads", len(tr.Threads()))
	}

	artcRep := replayOn(t, tr, snap, defaultConf(), Options{Method: MethodARTC})
	if artcRep.Errors != 0 {
		t.Fatalf("artc errors: %v", artcRep.ErrorSamples)
	}
	ucRep := replayOn(t, tr, snap, defaultConf(), Options{Method: MethodUnconstrained})
	if ucRep.Errors == 0 {
		t.Fatal("unconstrained replay of racy handoff produced no errors")
	}
}

func TestBenchmarkEncodeDecode(t *testing.T) {
	tr, snap := traceWorkload(t, defaultConf(),
		func(sys *stack.System) error { return sys.SetupCreate("/f", 8192) },
		func(sys *stack.System, th *sim.Thread) {
			fd, _ := sys.Open(th, "/f", trace.ORdonly, 0)
			sys.Read(th, fd, 4096)
			sys.Close(th, fd)
		})
	b, err := Compile(tr, snap, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := b.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	b2, err := DecodeBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(b2.Trace.Records) != len(b.Trace.Records) {
		t.Fatalf("decoded %d records", len(b2.Trace.Records))
	}
	if len(b2.Graph.Edges) != len(b.Graph.Edges) {
		t.Fatalf("decoded graph has %d edges, want %d", len(b2.Graph.Edges), len(b.Graph.Edges))
	}
	if b2.Platform != b.Platform {
		t.Fatal("platform lost")
	}
	// The decoded benchmark must replay cleanly.
	k := sim.NewKernel()
	sys := stack.New(k, defaultConf())
	if err := Init(sys, b2, ""); err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(sys, b2, Options{SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("decoded replay errors: %v", rep.ErrorSamples)
	}
}

func TestModesEncodeDecode(t *testing.T) {
	cases := []core.ModeSet{
		{},
		DefaultModesForTest(),
		{ProgramSeq: true},
		{FileSeq: true, FDStage: true},
	}
	for _, m := range cases {
		s := ModesString(m)
		got, err := ParseModes(s)
		if err != nil {
			t.Fatal(err)
		}
		if got != m {
			t.Fatalf("modes %+v -> %q -> %+v", m, s, got)
		}
	}
	if _, err := ParseModes("bogus_mode"); err == nil {
		t.Fatal("bogus mode accepted")
	}
}

// DefaultModesForTest re-exports core.DefaultModes for table reuse.
func DefaultModesForTest() core.ModeSet { return core.DefaultModes() }

func TestFDRemappingCoexistingGenerations(t *testing.T) {
	// Trace where fd 3 is reused: first open/close, then another
	// open/read/close. ARTC replay may overlap the two generations'
	// surrounding work; the remap must keep them distinct.
	tr, snap := traceWorkload(t, defaultConf(),
		func(sys *stack.System) error {
			if err := sys.SetupCreate("/a", 8192); err != nil {
				return err
			}
			return sys.SetupCreate("/b", 8192)
		},
		func(sys *stack.System, th *sim.Thread) {
			fd, _ := sys.Open(th, "/a", trace.ORdonly, 0)
			sys.Read(th, fd, 100)
			sys.Close(th, fd)
			fd2, _ := sys.Open(th, "/b", trace.ORdonly, 0)
			sys.Read(th, fd2, 100)
			sys.Close(th, fd2)
		})
	rep := replayOn(t, tr, snap, defaultConf(), Options{Method: MethodARTC})
	if rep.Errors != 0 {
		t.Fatalf("errors: %v", rep.ErrorSamples)
	}
}

func TestDup2Replay(t *testing.T) {
	tr, snap := traceWorkload(t, defaultConf(),
		func(sys *stack.System) error { return sys.SetupCreate("/f", 8192) },
		func(sys *stack.System, th *sim.Thread) {
			fd, _ := sys.Open(th, "/f", trace.ORdonly, 0)
			nfd, _ := sys.Dup2(th, fd, 9)
			sys.Pread(th, nfd, 100, 0)
			sys.Close(th, nfd)
			sys.Close(th, fd)
		})
	rep := replayOn(t, tr, snap, defaultConf(), Options{Method: MethodARTC})
	if rep.Errors != 0 {
		t.Fatalf("dup2 replay errors: %v", rep.ErrorSamples)
	}
}

func TestCrossPlatformOSXToLinux(t *testing.T) {
	osxConf := stack.Config{
		Name: "osx", Platform: stack.OSX, Profile: stack.HFSPlus,
		Device: stack.DeviceHDD, Scheduler: stack.SchedNoop,
	}
	tr, snap := traceWorkload(t, osxConf,
		func(sys *stack.System) error {
			if err := sys.SetupCreate("/Library/a.plist", 4096); err != nil {
				return err
			}
			return sys.SetupCreate("/Library/b.plist", 4096)
		},
		func(sys *stack.System, th *sim.Thread) {
			sys.Getattrlist(th, "/Library/a.plist", "common")
			fd, _ := sys.Open(th, "/Library/a.plist", trace.ORdwr, 0)
			sys.Write(th, fd, 4096)
			sys.Fcntl(th, fd, "F_FULLFSYNC", 0)
			sys.Close(th, fd)
			sys.Exchangedata(th, "/Library/a.plist", "/Library/b.plist")
			sys.Searchfs(th, "/Library")
			sys.Setattrlist(th, "/Library/b.plist", "common")
			sys.Fsctl(th, "/Library/b.plist")
			sys.Vfsconf(th, "/Library")
		})
	if tr.Platform != "osx" {
		t.Fatalf("trace platform = %s", tr.Platform)
	}
	rep := replayOn(t, tr, snap, defaultConf() /* linux */, Options{Method: MethodARTC})
	if rep.Errors != 0 {
		t.Fatalf("cross-platform replay errors: %v", rep.ErrorSamples)
	}
	if rep.Emulated < 6 {
		t.Fatalf("emulated %d calls, want >= 6 (exchangedata + attrlists + obscure calls)", rep.Emulated)
	}
}

func TestLinuxToOSXFsyncPolicy(t *testing.T) {
	tr, snap := traceWorkload(t, defaultConf(),
		func(sys *stack.System) error { return nil },
		func(sys *stack.System, th *sim.Thread) {
			fd, _ := sys.Open(th, "/f", trace.OWronly|trace.OCreat, 0o644)
			sys.Write(th, fd, 4096)
			sys.Fsync(th, fd)
			sys.Close(th, fd)
		})
	osxConf := stack.Config{
		Name: "osx", Platform: stack.OSX, Profile: stack.HFSPlus,
		Device: stack.DeviceHDD, Scheduler: stack.SchedNoop,
	}
	relaxed := replayOn(t, tr, snap, osxConf, Options{Method: MethodARTC})
	strict := replayOn(t, tr, snap, osxConf, Options{Method: MethodARTC, FullFsyncOnOSX: true})
	if relaxed.Errors != 0 || strict.Errors != 0 {
		t.Fatalf("errors: %v / %v", relaxed.ErrorSamples, strict.ErrorSamples)
	}
	if strict.Emulated == 0 {
		t.Fatal("strict fsync policy did not use emulation")
	}
	// Strict durability must cost more time.
	if strict.Elapsed <= relaxed.Elapsed {
		t.Fatalf("strict fsync (%v) not slower than relaxed (%v)", strict.Elapsed, relaxed.Elapsed)
	}
}

func TestNaturalSpeedReproducesGaps(t *testing.T) {
	tr, snap := traceWorkload(t, defaultConf(),
		func(sys *stack.System) error { return sys.SetupCreate("/f", 1<<20) },
		func(sys *stack.System, th *sim.Thread) {
			fd, _ := sys.Open(th, "/f", trace.ORdonly, 0)
			sys.Read(th, fd, 4096)
			th.Sleep(50 * time.Millisecond) // compute
			sys.Read(th, fd, 4096)
			sys.Close(th, fd)
		})
	afap := replayOn(t, tr, snap, defaultConf(), Options{Method: MethodARTC, Speed: AFAP})
	natural := replayOn(t, tr, snap, defaultConf(), Options{Method: MethodARTC, Speed: Natural})
	scaled := replayOn(t, tr, snap, defaultConf(), Options{Method: MethodARTC, Speed: Scaled, Scale: 2.0})
	if afap.Elapsed >= 50*time.Millisecond {
		t.Fatalf("AFAP took %v", afap.Elapsed)
	}
	if natural.Elapsed < 50*time.Millisecond {
		t.Fatalf("natural took %v, want >= 50ms", natural.Elapsed)
	}
	if scaled.Elapsed < 100*time.Millisecond {
		t.Fatalf("scaled x2 took %v, want >= 100ms", scaled.Elapsed)
	}
}

func TestReplayWithPrefix(t *testing.T) {
	tr, snap := traceWorkload(t, defaultConf(),
		func(sys *stack.System) error { return sys.SetupCreate("/data/f", 8192) },
		func(sys *stack.System, th *sim.Thread) {
			fd, _ := sys.Open(th, "/data/f", trace.ORdonly, 0)
			sys.Read(th, fd, 100)
			sys.Close(th, fd)
			sys.Mkdir(th, "/data/new", 0o755)
		})
	b, err := Compile(tr, snap, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	sys := stack.New(k, defaultConf())
	if err := Init(sys, b, "/mnt/test"); err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(sys, b, Options{Prefix: "/mnt/test", SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("prefixed replay errors: %v", rep.ErrorSamples)
	}
	if _, errno := sys.FS.Resolve(nil, "/mnt/test/data/new"); errno != 0 {
		t.Fatal("mkdir did not land under prefix")
	}
}

func TestInferSnapshotCompile(t *testing.T) {
	// Compile with nil snapshot: sizes and paths inferred from the trace.
	tr, _ := traceWorkload(t, defaultConf(),
		func(sys *stack.System) error { return sys.SetupCreate("/in/file", 64<<10) },
		func(sys *stack.System, th *sim.Thread) {
			fd, _ := sys.Open(th, "/in/file", trace.ORdonly, 0)
			sys.Pread(th, fd, 4096, 60<<10)
			sys.Close(th, fd)
		})
	b, err := Compile(tr, nil, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	sys := stack.New(k, defaultConf())
	if err := Init(sys, b, ""); err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(sys, b, Options{SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("inferred-snapshot replay errors: %v", rep.ErrorSamples)
	}
}

func TestReportConcurrency(t *testing.T) {
	rep := &Report{Elapsed: 10 * time.Second, ThreadTime: 25 * time.Second}
	if c := rep.Concurrency(); c < 2.4 || c > 2.6 {
		t.Fatalf("concurrency = %v", c)
	}
	empty := &Report{}
	if empty.Concurrency() != 0 {
		t.Fatal("zero-elapsed concurrency")
	}
}

func TestReplayDetectsBadMethod(t *testing.T) {
	tr, snap := traceWorkload(t, defaultConf(), nil,
		func(sys *stack.System, th *sim.Thread) { sys.Stat(th, "/") })
	b, err := Compile(tr, snap, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	sys := stack.New(k, defaultConf())
	if err := Init(sys, b, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(sys, b, Options{Method: "bogus"}); err == nil {
		t.Fatal("bogus method accepted")
	}
}

func TestAIOReplay(t *testing.T) {
	tr, snap := traceWorkload(t, defaultConf(),
		func(sys *stack.System) error { return sys.SetupCreate("/f", 1<<20) },
		func(sys *stack.System, th *sim.Thread) {
			fd, _ := sys.Open(th, "/f", trace.ORdonly, 0)
			id, _ := sys.AioRead(th, fd, 4096, 0)
			sys.AioSuspend(th, id)
			sys.AioError(th, id)
			sys.AioReturn(th, id)
			sys.Close(th, fd)
		})
	rep := replayOn(t, tr, snap, defaultConf(), Options{Method: MethodARTC})
	if rep.Errors != 0 {
		t.Fatalf("aio replay errors: %v", rep.ErrorSamples)
	}
}

func TestGraphStatsInReport(t *testing.T) {
	tr, snap := traceWorkload(t, defaultConf(),
		func(sys *stack.System) error { return sys.SetupCreate("/f", 1<<20) },
		func(sys *stack.System, th *sim.Thread) {
			fd, _ := sys.Open(th, "/f", trace.ORdonly, 0)
			sys.Read(th, fd, 4096)
			sys.Close(th, fd)
		})
	rep := replayOn(t, tr, snap, defaultConf(), Options{Method: MethodTemporal})
	// Single-threaded trace: temporal graph has no cross-thread edges.
	if rep.Graph.Edges != 0 {
		t.Fatalf("graph edges = %d", rep.Graph.Edges)
	}
	if !strings.Contains(string(rep.Method), "temporal") {
		t.Fatal("method not recorded")
	}
}
