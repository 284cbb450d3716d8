package artc_test

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"

	"rootreplay/internal/artc"
	"rootreplay/internal/core"
	"rootreplay/internal/fault"
	"rootreplay/internal/magritte"
	"rootreplay/internal/obs"
	"rootreplay/internal/stack"
	"rootreplay/internal/workload"
)

// nopPacer never objects to an advance. A paced kernel must ask before
// its clock moves, so a machine that has one takes no sleep in place and
// is otherwise the same machine: the reference side of the differential
// below, with no switch in the kernel.
type nopPacer struct{}

func (nopPacer) Advance(time.Duration) bool { return false }

// sleepCorpus is one replay both ways round.
type sleepCorpus struct {
	name   string
	b      *artc.Benchmark
	target string
	warm   bool
	init   func(*stack.System) error // nil: restore the snapshot
	plan   *fault.Plan
}

func pipelineCorpus(t *testing.T, name string, p workload.Pipeline, target string, warm bool) sleepCorpus {
	t.Helper()
	tr, snap, err := workload.SynthPipeline(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := artc.Compile(tr, snap, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	return sleepCorpus{name: name, b: b, target: target, warm: warm}
}

func magritteCorpus(t *testing.T, name string, scale float64, plan *fault.Plan) sleepCorpus {
	t.Helper()
	spec, ok := magritte.SpecByName(name)
	if !ok {
		t.Fatalf("unknown magritte spec %s", name)
	}
	gen, err := magritte.Generate(spec, magritte.GenOptions{Scale: scale, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := artc.Compile(gen.Trace, gen.Snapshot, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	c := sleepCorpus{name: name, b: b, target: "linux-ext4-hdd-cfq", init: magritte.TargetInit(b, true), plan: plan}
	if plan != nil {
		c.name += " faulted"
	}
	return c
}

// The two pipelines whose shares of in-place sleeps are pinned: the
// fsync-heavy one replay_writeback replays cold on hdd-cfq, where every
// thread but one is parked on the disk, and the hit-only one replay_hits
// replays warm on ssd-noop, where eight threads are runnable throughout.
var (
	fsyncPipeline = workload.Pipeline{Stages: 8, Ops: 300, Handoff: 64, Fsync: 2, FileBytes: 8 << 20, Seed: 7}
	warmPipeline  = workload.Pipeline{Stages: 8, Ops: 300, Handoff: 64, FileBytes: 8 << 20, Seed: 7}
)

type sleepOutcome struct {
	report         string
	export         []byte
	stats          *stack.Stats
	sleeps, placed uint64
}

// replay runs c serially with a recorder (samples included), under
// nopPacer when paced.
func (c sleepCorpus) replay(t *testing.T, paced bool) sleepOutcome {
	t.Helper()
	conf, err := stack.ParseTarget(c.target, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sys *stack.System
	rec := obs.NewRecorder(0, 0)
	rep, _, err := artc.Run(c.b, artc.RunSpec{
		Options: artc.Options{Method: artc.MethodARTC, SelfCheck: true, Obs: rec},
		Target:  conf,
		Warm:    c.warm,
		Fault:   c.plan,
		Init: func(s *stack.System) error {
			sys = s
			if paced {
				s.K.SetPacer(nopPacer{})
			}
			if c.init != nil {
				return c.init(s)
			}
			return artc.Init(s, c.b, "")
		},
	})
	if err != nil {
		t.Fatalf("%s paced=%v: %v", c.name, paced, err)
	}
	out := sleepOutcome{stats: sys.Stats()}
	out.report, out.export = outcome(t, rep, rec)
	out.sleeps, out.placed = sys.K.Sleeps()
	return out
}

// TestSleepInPlaceMatchesPacedReplay: whether lone sleeps advance the
// clock in place or, under a no-op Pacer, all go through the event queue, a
// replay gives the same Report, the same Chrome export byte for byte —
// counter samples included, so the obs probes sampled the same values at
// the same virtual instants — and the same stack.Stats. scripts/ci.sh
// determinism repeats it at GOMAXPROCS 1, 2 and 8. The shares are the
// reason the path exists; a change that makes its condition unreachable
// fails here, not in a benchmark.
func TestSleepInPlaceMatchesPacedReplay(t *testing.T) {
	plan := &fault.Plan{
		Seed:     3,
		Syscall:  fault.SyscallPlan{Rate: 0.02, Errno: "EIO"},
		Storage:  fault.StoragePlan{ErrorRate: 0.02, SlowRate: 0.02},
		Retry:    fault.RetryPlan{MaxAttempts: 4},
		Watchdog: 50 * time.Millisecond,
	}
	corpora := []sleepCorpus{
		pipelineCorpus(t, "fsync pipeline cold on hdd-cfq", fsyncPipeline, "linux-ext4-hdd-cfq", false),
		pipelineCorpus(t, "fsync pipeline warm on ssd-noop", fsyncPipeline, "linux-ext4-ssd-noop", true),
		pipelineCorpus(t, "hit-only pipeline warm on ssd-noop", warmPipeline, "linux-ext4-ssd-noop", true),
		magritteCorpus(t, "iphoto_edit400", 0.005, nil),
		magritteCorpus(t, "itunes_album1", 0.2, nil),
		magritteCorpus(t, "imovie_export1", 0.05, nil),
		magritteCorpus(t, "numbers_start5", 0.2, nil),
		magritteCorpus(t, "pages_docphoto15", 0.01, plan),
	}
	for _, c := range corpora {
		got, want := c.replay(t, false), c.replay(t, true)
		if got.report != want.report {
			t.Errorf("%s: report differs from the paced replay's\nin place: %s\npaced:    %s", c.name, got.report, want.report)
		}
		if !bytes.Equal(got.export, want.export) {
			t.Errorf("%s: Chrome export differs from the paced replay's (%d vs %d bytes)", c.name, len(got.export), len(want.export))
		}
		if !reflect.DeepEqual(got.stats, want.stats) {
			t.Errorf("%s: stack.Stats differ from the paced replay's", c.name)
		}
		if want.placed != 0 || want.sleeps != got.sleeps {
			t.Errorf("%s: paced replay took %d of %d sleeps in place, unpaced counted %d sleeps",
				c.name, want.placed, want.sleeps, got.sleeps)
		}
		share := float64(got.placed) / float64(got.sleeps)
		t.Logf("%s: %d of %d sleeps in place (%.1f%%)", c.name, got.placed, got.sleeps, 100*share)
		switch c.name {
		case "fsync pipeline cold on hdd-cfq":
			if share < 0.80 {
				t.Errorf("%s: %.1f%% of sleeps in place, want at least 80%%", c.name, 100*share)
			}
		case "hit-only pipeline warm on ssd-noop":
			if share > 0.01 {
				t.Errorf("%s: %.1f%% of sleeps in place, want at most 1%%", c.name, 100*share)
			}
		}
	}
}

// Every member of a sliced replay is paced by the coordinator, so none
// takes a sleep in place.
func TestSlicedMembersNeverSleepInPlace(t *testing.T) {
	c := pipelineCorpus(t, "hit-only pipeline", warmPipeline, "linux-ext4-ssd-noop", true)
	conf, err := stack.ParseTarget(c.target, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var members []*stack.System
	_, st, err := artc.Run(c.b, artc.RunSpec{
		Options:      artc.Options{Method: artc.MethodARTC},
		Target:       conf,
		Warm:         true,
		Shards:       2,
		SliceActions: len(c.b.Trace.Records)/4 + 1,
		Init: func(s *stack.System) error {
			mu.Lock()
			members = append(members, s)
			mu.Unlock()
			return artc.Init(s, c.b, "")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(members) < 2 || st.CrossEdges == 0 {
		t.Fatalf("%d members, %d cross edges: not a sliced replay", len(members), st.CrossEdges)
	}
	for i, s := range members {
		if total, placed := s.K.Sleeps(); total == 0 || placed != 0 {
			t.Errorf("member %d: %d of %d sleeps in place", i, placed, total)
		}
	}
}
