package artc

import (
	"strings"
	"testing"
	"time"

	"rootreplay/internal/core"
	"rootreplay/internal/sim"
	"rootreplay/internal/snapshot"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
	"rootreplay/internal/vfs"
)

// Toggling ordering constraints at replay time: with the path rules
// disabled, a create-then-open handoff across threads loses its ordering
// edge and the replay fails like unconstrained mode; with default modes
// it replays cleanly.
func TestReplayModeOverride(t *testing.T) {
	conf := defaultConf()
	k := sim.NewKernel()
	sys := stack.New(k, conf)
	if err := sys.SetupMkdirAll("/new"); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetupCreate("/config", 1<<20); err != nil {
		t.Fatal(err)
	}
	snap := snapshot.Capture(sys)
	tr := &trace.Trace{Platform: string(conf.Platform)}
	sys.SetTracer(func(r *trace.Record) { tr.Records = append(tr.Records, r) })

	created := false
	done := sim.NewCond(k)
	k.Spawn("creator", func(th *sim.Thread) {
		// Device I/O before the create, so an unconstrained replay's
		// opener overtakes the creator.
		cfd, _ := sys.Open(th, "/config", trace.ORdonly, 0)
		for i := 0; i < 8; i++ {
			sys.Pread(th, cfd, 4096, int64(i)*131072)
		}
		sys.Close(th, cfd)
		fd, _ := sys.Open(th, "/new/file", trace.OWronly|trace.OCreat, 0o644)
		sys.Write(th, fd, 65536) // takes a little time before close
		sys.Fsync(th, fd)
		sys.Close(th, fd)
		created = true
		done.Broadcast()
	})
	k.Spawn("opener", func(th *sim.Thread) {
		for !created {
			done.Wait(th, "create")
		}
		fd, _ := sys.Open(th, "/new/file", trace.ORdonly, 0)
		sys.Read(th, fd, 100)
		sys.Close(th, fd)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	tr.Renumber()
	b, err := Compile(tr, snap, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}

	replayWith := func(modes *core.ModeSet) int {
		k2 := sim.NewKernel()
		sys2 := stack.New(k2, conf)
		if err := Init(sys2, b, ""); err != nil {
			t.Fatal(err)
		}
		rep, err := Replay(sys2, b, Options{Method: MethodARTC, Modes: modes, SelfCheck: true})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Errors
	}
	if n := replayWith(nil); n != 0 {
		t.Fatalf("default modes: %d errors", n)
	}
	none := core.ModeSet{}
	if n := replayWith(&none); n == 0 {
		t.Fatal("disabling all constraints should reintroduce the race")
	}
}

// traceWorkloadPlain traces a small single-thread workload under root.
func traceWorkloadPlain(t *testing.T, conf stack.Config, root string) (*trace.Trace, *snapshot.Snapshot) {
	t.Helper()
	k := sim.NewKernel()
	sys := stack.New(k, conf)
	if err := sys.SetupCreate(root+"/data", 16<<20); err != nil {
		t.Fatal(err)
	}
	snap := snapshot.Capture(sys)
	tr := &trace.Trace{Platform: string(conf.Platform)}
	sys.SetTracer(func(r *trace.Record) { tr.Records = append(tr.Records, r) })
	k.Spawn("w", func(th *sim.Thread) {
		fd, _ := sys.Open(th, root+"/data", trace.ORdonly, 0)
		for i := 0; i < 20; i++ {
			sys.Pread(th, fd, 4096, int64(i*7919)%(15<<20))
		}
		sys.Close(th, fd)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	tr.Renumber()
	return tr, snap
}

// A failed call on a then-valid descriptor must fail the same way in
// replay (EISDIR, not EBADF): the FDHint remap.
func TestFailedCallFDHintRemap(t *testing.T) {
	conf := defaultConf()
	k := sim.NewKernel()
	sys := stack.New(k, conf)
	if err := sys.SetupMkdirAll("/dir"); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetupCreate("/before", 4096); err != nil {
		t.Fatal(err)
	}
	snap := snapshot.Capture(sys)
	tr := &trace.Trace{Platform: string(conf.Platform)}
	sys.SetTracer(func(r *trace.Record) { tr.Records = append(tr.Records, r) })
	k.Spawn("w", func(th *sim.Thread) {
		// Shift descriptor numbering so replay numbers differ from traced
		// numbers unless remapped.
		f0, _ := sys.Open(th, "/before", trace.ORdonly, 0)
		dirFD, _ := sys.Open(th, "/dir", trace.ORdonly|trace.ODir, 0)
		sys.Close(th, f0)
		if _, err := sys.Read(th, dirFD, 100); err != vfs.EISDIR {
			t.Errorf("traced dir read = %v, want EISDIR", err)
		}
		sys.Close(th, dirFD)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	tr.Renumber()
	b, err := Compile(tr, snap, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	k2 := sim.NewKernel()
	sys2 := stack.New(k2, conf)
	if err := Init(sys2, b, ""); err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(sys2, b, Options{SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("failed-call errno not reproduced: %v", rep.ErrorSamples)
	}
}

// Natural-speed identity: replaying a think-time workload on the system
// it was traced on reproduces the traced duration closely, while AFAP
// compresses it.
func TestNaturalSpeedIdentity(t *testing.T) {
	conf := defaultConf()
	k := sim.NewKernel()
	sys := stack.New(k, conf)
	if err := sys.SetupCreate("/f", 4<<20); err != nil {
		t.Fatal(err)
	}
	snap := snapshot.Capture(sys)
	tr := &trace.Trace{Platform: string(conf.Platform)}
	sys.SetTracer(func(r *trace.Record) { tr.Records = append(tr.Records, r) })
	start := k.Now()
	k.Spawn("w", func(th *sim.Thread) {
		fd, _ := sys.Open(th, "/f", trace.ORdonly, 0)
		for i := 0; i < 10; i++ {
			sys.Pread(th, fd, 4096, int64(i)*131072)
			th.Sleep(20 * time.Millisecond) // compute between I/Os
		}
		sys.Close(th, fd)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	traced := k.Now() - start
	tr.Renumber()
	b, err := Compile(tr, snap, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	replay := func(speed Speed) time.Duration {
		k2 := sim.NewKernel()
		sys2 := stack.New(k2, conf)
		if err := Init(sys2, b, ""); err != nil {
			t.Fatal(err)
		}
		rep, err := Replay(sys2, b, Options{Speed: speed, SelfCheck: true})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Elapsed
	}
	natural := replay(Natural)
	afap := replay(AFAP)
	if rel := float64(natural) / float64(traced); rel < 0.9 || rel > 1.1 {
		t.Fatalf("natural replay %v vs traced %v (%.2fx); want ~1x", natural, traced, rel)
	}
	if float64(afap) > 0.5*float64(traced) {
		t.Fatalf("AFAP replay %v not much faster than traced %v", afap, traced)
	}
}

// Timeline renders something sane for a replay: right dimensions, and
// the busy single-thread rows are mostly '#'.
func TestTimelineRendering(t *testing.T) {
	conf := defaultConf()
	tr, snap := traceWorkloadPlain(t, conf, "/x")
	b, err := Compile(tr, snap, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	sys := stack.New(k, conf)
	if err := Init(sys, b, ""); err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(sys, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tl := rep.Timeline(b, 60)
	lines := strings.Split(strings.TrimSpace(tl), "\n")
	if len(lines) != 2 { // header + one thread
		t.Fatalf("timeline lines = %d:\n%s", len(lines), tl)
	}
	row := lines[1]
	if !strings.HasPrefix(row, "T") || !strings.Contains(row, "#") {
		t.Fatalf("row = %q", row)
	}
	// Width too small clamps to 10.
	if tlSmall := rep.Timeline(b, 1); !strings.Contains(tlSmall, "10 cols") {
		t.Fatalf("width clamp missing:\n%s", tlSmall)
	}
}
