package artc_test

import (
	"runtime"
	"testing"

	"rootreplay/internal/artc"
	"rootreplay/internal/core"
	"rootreplay/internal/magritte"
	"rootreplay/internal/sim"
	"rootreplay/internal/snapshot"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
	"rootreplay/internal/workload"
)

// TestWarmAllocsPerPage is the warm's ceiling beside the replay loop's
// in allocs_test.go (scripts/ci.sh allocs runs both): a replica of the
// hits pipeline and one of the largest Magritte job the service
// benchmark sends are initialized and then warmed, and WarmAll may make
// one heap allocation per twenty pages it leaves resident — slab chunks,
// page-table leaves, a file's index — where a page that is a heap object
// of its own, or an entry of a growing map, costs one or more each.
func TestWarmAllocsPerPage(t *testing.T) {
	for _, c := range []struct {
		name string
		gen  func() (*trace.Trace, *snapshot.Snapshot, error)
	}{
		{"hits pipeline", func() (*trace.Trace, *snapshot.Snapshot, error) {
			return workload.SynthPipeline(workload.Pipeline{Stages: 8, Ops: 2000, Handoff: 64, FileBytes: 8 << 20, Seed: 7})
		}},
		{"iphoto_edit400", func() (*trace.Trace, *snapshot.Snapshot, error) {
			spec, _ := magritte.SpecByName("iphoto_edit400")
			g, err := magritte.Generate(spec, magritte.GenOptions{Scale: 0.005, Seed: 7})
			if err != nil {
				return nil, nil, err
			}
			return g.Trace, g.Snapshot, nil
		}},
	} {
		tr, snap, err := c.gen()
		if err != nil {
			t.Fatal(err)
		}
		b, err := artc.Compile(tr, snap, core.DefaultModes())
		if err != nil {
			t.Fatal(err)
		}
		conf, err := stack.ParseTarget("linux-ext4-ssd-noop", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		sys := stack.New(sim.NewKernel(), conf)
		if err := artc.Init(sys, b, ""); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		sys.WarmAll()
		runtime.ReadMemStats(&after)
		pages := sys.Cache.Resident()
		got := float64(after.Mallocs-before.Mallocs) / float64(pages)
		t.Logf("%s: %d allocations and %d bytes for %d pages", c.name,
			after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc, pages)
		if pages < 10000 || got > 0.05 {
			t.Errorf("%s: %.3f allocations per resident page over %d pages, ceiling 0.05", c.name, got, pages)
		}
	}
}
