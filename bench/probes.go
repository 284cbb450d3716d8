package main

import (
	"flag"
	"fmt"
	"sync"
	"testing"

	"rootreplay/internal/cache"
	"rootreplay/internal/par"
	"rootreplay/internal/sched"
	"rootreplay/internal/sim"
	"rootreplay/internal/sim/simbench"
	"rootreplay/internal/storage"
	"rootreplay/internal/vfs"
)

// Layer probes: microbenchmarks over one layer's public API, run once
// per traced run outside every timed region. They cost the layers that
// no workload can time from outside, because the replayer calls them
// from inside artc.Replay.

// runProbes runs every probe for benchtime each and stores ns (or us)
// per operation in m.
func runProbes(benchtime string, m map[string]float64) error {
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return err
	}
	var failed error
	nsPerOp := func(name string, fn func(b *testing.B)) testing.BenchmarkResult {
		r := testing.Benchmark(fn)
		if r.N == 0 {
			failed = fmt.Errorf("probe %s failed", name)
			return r
		}
		m[name] = float64(r.T.Nanoseconds()) / float64(r.N)
		return r
	}

	r := nsPerOp("sim.timer_churn_ns_per_op", simbench.TimerChurn)
	m["sim.timer_churn_allocs_per_op"] = float64(r.AllocsPerOp())
	nsPerOp("sim.sleep_churn_ns_per_op", simbench.SleepChurn)
	nsPerOp("sim.pingpong_ns_per_op", simbench.PingPong)
	nsPerOp("sim.completion_ns_per_op", simbench.CompletionStorm)

	// cache: write 16 pages and fsync them, with 4k and with 64k clean
	// pages of another file resident. A ratio near 1 means Sync costs
	// what the dirty pages cost; near 16 means it scans the residents.
	nsPerOp("cache.sync_us_r4k", func(b *testing.B) { probeCacheSync(b, 4<<10) })
	nsPerOp("cache.sync_us_r64k", func(b *testing.B) { probeCacheSync(b, 64<<10) })
	m["cache.sync_us_r4k"] /= 1e3
	m["cache.sync_us_r64k"] /= 1e3
	m["cache.sync_scan_ratio"] = m["cache.sync_us_r64k"] / m["cache.sync_us_r4k"]
	nsPerOp("cache.drop_us_r64k", probeCacheDrop)
	m["cache.drop_us_r64k"] /= 1e3

	// sched and storage: random single-block reads, 8 in flight, through
	// CFQ onto the HDD and through noop onto the SSD, then onto each
	// device directly.
	nsPerOp("sched.cfq_ns_per_request", func(b *testing.B) {
		k := sim.NewKernel()
		probeRequests(b, k, sched.NewCFQ(k, storage.NewHDD(k, "hdd", storage.DefaultHDD()), sched.DefaultCFQ()))
	})
	nsPerOp("sched.noop_ns_per_request", func(b *testing.B) {
		k := sim.NewKernel()
		probeRequests(b, k, sched.NewNoop(storage.NewSSD(k, "ssd", storage.DefaultSSD())))
	})
	nsPerOp("storage.hdd_ns_per_request", func(b *testing.B) {
		k := sim.NewKernel()
		probeRequests(b, k, storage.NewHDD(k, "hdd", storage.DefaultHDD()))
	})
	nsPerOp("storage.ssd_ns_per_request", func(b *testing.B) {
		k := sim.NewKernel()
		probeRequests(b, k, storage.NewSSD(k, "ssd", storage.DefaultSSD()))
	})

	nsPerOp("vfs.resolve_ns_per_op", func(b *testing.B) {
		fs, paths := probeTree(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fs.Resolve(nil, paths[i%len(paths)]); err != vfs.OK {
				b.Fatal(err)
			}
		}
	})
	nsPerOp("vfs.create_unlink_ns_per_op", func(b *testing.B) {
		fs, _ := probeTree(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := fs.Create(nil, "/d050/new", 0o644, true); err != vfs.OK {
				b.Fatal(err)
			}
			if err := fs.Unlink(nil, "/d050/new"); err != vfs.OK {
				b.Fatal(err)
			}
		}
	})
	nsPerOp("vfs.rename_ns_per_op", func(b *testing.B) {
		fs, paths := probeTree(b)
		from, to := paths[0], "/d099/moved"
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := fs.Rename(nil, from, to); err != vfs.OK {
				b.Fatal(err)
			}
			from, to = to, from
		}
	})

	nsPerOp("par.pool_submit_ns_per_op", func(b *testing.B) {
		pool := par.NewPool(procs)
		defer pool.Close()
		var wg sync.WaitGroup
		wg.Add(b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pool.Submit(wg.Done)
		}
		wg.Wait()
	})
	return failed
}

func identity(page int64) int64 { return page }

// probeCache builds an unbounded cache over noop→SSD with resident clean
// pages of file 1, and runs body on a simulated thread.
func probeCache(b *testing.B, resident int64, body func(t *sim.Thread, c *cache.Cache)) {
	k := sim.NewKernel()
	c := cache.New(k, sched.NewNoop(storage.NewSSD(k, "ssd", storage.DefaultSSD())), 0)
	c.Warm(1, identity, 0, resident)
	k.Spawn("probe", func(t *sim.Thread) { body(t, c) })
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

func probeCacheSync(b *testing.B, resident int64) {
	probeCache(b, resident, func(t *sim.Thread, c *cache.Cache) {
		for i := 0; i < b.N; i++ {
			c.Write(t, 2, identity, int64(i%64)*16, 16)
			c.Sync(t, 2)
		}
	})
}

// probeCacheDrop caches 16 pages of a file and drops the file, as an
// unlink does, with 64k pages of another file resident.
func probeCacheDrop(b *testing.B) {
	probeCache(b, 64<<10, func(t *sim.Thread, c *cache.Cache) {
		for i := 0; i < b.N; i++ {
			c.Warm(2, identity, 0, 16)
			c.Drop(2)
		}
	})
}

// submitter is what schedulers and devices have in common.
type submitter interface {
	Submit(r *storage.Request, done func())
}

func probeRequests(b *testing.B, k *sim.Kernel, dev submitter) {
	left, lba := b.N, uint64(1)
	var next func()
	next = func() {
		if left == 0 {
			return
		}
		left--
		lba = lba*6364136223846793005 + 1442695040888963407
		dev.Submit(&storage.Request{Kind: storage.Read, LBA: int64(lba >> 40), Blocks: 1, Owner: int(lba>>20) % 4}, next)
	}
	b.ResetTimer()
	for i := 0; i < 8; i++ {
		next()
	}
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// probeTree builds a 10k-entry tree, 100 directories of 100 files, and
// returns the file paths.
func probeTree(b *testing.B) (*vfs.FS, []string) {
	fs := vfs.New()
	var paths []string
	for d := 0; d < 100; d++ {
		dir := fmt.Sprintf("/d%03d", d)
		if _, err := fs.Mkdir(nil, dir, 0o755); err != vfs.OK {
			b.Fatal(err)
		}
		for f := 0; f < 100; f++ {
			p := fmt.Sprintf("%s/f%03d", dir, f)
			if _, _, err := fs.Create(nil, p, 0o644, true); err != vfs.OK {
				b.Fatal(err)
			}
			paths = append(paths, p)
		}
	}
	return fs, paths
}
