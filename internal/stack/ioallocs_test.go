package stack

import (
	"fmt"
	"runtime"
	"testing"

	"rootreplay/internal/sim"
	"rootreplay/internal/trace"
	"rootreplay/internal/vfs"
)

// TestIOAllocsPerRequest drives read misses, eviction and fsync
// writebacks and journal commits through every scheduler on an HDD and
// an SSD, from two threads reading the same pages, and requires that
// once the free lists have grown no device request allocates: the
// cache's, the journal's and the scheduler's records are all recycled
// (DESIGN.md, "I/O completion records"). scripts/ci.sh allocs runs it
// under GOMAXPROCS 1 and 2.
func TestIOAllocsPerRequest(t *testing.T) {
	for _, dev := range []string{"hdd", "ssd"} {
		for _, sch := range []string{"noop", "cfq", "deadline"} {
			target := "linux-ext4-" + dev + "-" + sch
			t.Run(target, func(t *testing.T) {
				allocs, reqs, st := ioAllocsPerRequest(t, target)
				t.Logf("%d allocations over %d device requests (%+v)", allocs, reqs, st)
				if st.Misses == 0 || st.Writebacks == 0 || st.Evictions == 0 {
					t.Fatalf("the measured rounds missed no page, wrote none back or evicted none: %+v", st)
				}
				if allocs != 0 {
					t.Fatalf("%d allocations over %d device requests after warm-up, want 0", allocs, reqs)
				}
			})
		}
	}
}

// ioStats is what the measured rounds did in the cache.
type ioStats struct{ Misses, Writebacks, Evictions int64 }

// ioAllocsPerRequest runs warm-up rounds and then measured rounds of the
// same I/O on a fresh machine with a 32-page cache, and returns the heap
// allocations and device requests of the measured rounds.
func ioAllocsPerRequest(t *testing.T, target string) (allocs uint64, reqs int64, st ioStats) {
	t.Helper()
	conf, err := ParseTarget(target, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	if conf.Profile.JournalBlocks <= 0 || !conf.Profile.FsyncIsBarrier {
		t.Fatalf("%s: fsync commits no journal", target)
	}
	k := sim.NewKernel()
	sys := New(k, conf)
	if err := sys.SetupCreate("/data/f", 256<<12); err != nil {
		t.Fatal(err)
	}
	const warmup, measured = 8, 8
	// round rereads pages a 32-page cache cannot hold all of, dirties two
	// pages of the thread's own and fsyncs.
	round := func(th *sim.Thread, fd int64, own int64) {
		for page := int64(0); page < 12*17; page += 17 {
			if _, err := sys.Pread(th, fd, 3<<12, page<<12); err != vfs.OK {
				t.Errorf("pread: %v", err)
			}
		}
		if _, err := sys.Pwrite(th, fd, 2<<12, own<<12); err != vfs.OK {
			t.Errorf("pwrite: %v", err)
		}
		if _, err := sys.Fsync(th, fd); err != vfs.OK {
			t.Errorf("fsync: %v", err)
		}
	}
	// Both threads meet between the warm-up and the measured rounds and
	// after the latter; the first thread reads the counters there.
	arrived := 0
	met := sim.NewCond(k)
	meet := func(th *sim.Thread) {
		if arrived++; arrived%2 == 1 {
			for arrived%2 == 1 {
				met.Wait(th, "meet")
			}
			return
		}
		met.Broadcast()
	}
	var before, after runtime.MemStats
	var devBefore int64
	var cacheBefore ioStats
	counters := func() (int64, ioStats) {
		d, c := sys.Dev.Stats(), sys.Cache.Stats()
		return d.Reads + d.Writes, ioStats{c.Misses, c.Writebacks, c.Evictions}
	}
	for i := int64(0); i < 2; i++ {
		k.Spawn(fmt.Sprint("io", i), func(th *sim.Thread) {
			fd, err := sys.Open(th, "/data/f", trace.ORdwr, 0)
			if err != vfs.OK {
				t.Errorf("open: %v", err)
				return
			}
			own := 200 + 20*i
			for range warmup {
				round(th, fd, own)
			}
			meet(th)
			if i == 0 {
				devBefore, cacheBefore = counters()
				runtime.ReadMemStats(&before)
			}
			for range measured {
				round(th, fd, own)
			}
			meet(th)
			if i == 0 {
				runtime.ReadMemStats(&after)
				d, c := counters()
				reqs = d - devBefore
				st = ioStats{c.Misses - cacheBefore.Misses, c.Writebacks - cacheBefore.Writebacks, c.Evictions - cacheBefore.Evictions}
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return after.Mallocs - before.Mallocs, reqs, st
}
