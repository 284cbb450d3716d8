package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"rootreplay/internal/sched"
	"rootreplay/internal/sim"
	"rootreplay/internal/storage"
)

// recorder is a scheduler that notes every request on its way through.
type recorder struct {
	sched.Scheduler
	reqs []storage.Request
}

func (r *recorder) Submit(req *storage.Request, done func()) {
	r.reqs = append(r.reqs, *req)
	r.Scheduler.Submit(req, done)
}

func recordedEnv(k *sim.Kernel) *recorder {
	return &recorder{Scheduler: sched.NewNoop(storage.NewHDD(k, "d", storage.DefaultHDD()))}
}

// recency lists the resident pages from most to least recently used.
func (c *Cache) recency() []pageKey {
	var keys []pageKey
	for p := c.mru; p != nil; p = p.older {
		keys = append(keys, p.key)
	}
	return keys
}

func (c *scanCache) recency() []pageKey {
	var keys []pageKey
	for e := c.lru.Front(); e != nil; e = e.Next() {
		keys = append(keys, e.Value.(*scanPage).key)
	}
	return keys
}

// checkIndex compares the per-file indexes with a scan of c.pages, and
// walks the recency list: every resident page on it once, links paired.
func checkIndex(c *Cache) error {
	listed := 0
	for p, newer := c.mru, (*page)(nil); p != nil; p, newer = p.older, p {
		if p.newer != newer || c.pages[p.key] != p {
			return fmt.Errorf("recency list broken at %v", p.key)
		}
		if p.older == nil && c.lru != p {
			return fmt.Errorf("recency list ends at %v, lru is elsewhere", p.key)
		}
		listed++
	}
	if listed != len(c.pages) || (listed == 0 && c.lru != nil) {
		return fmt.Errorf("recency list holds %d pages, %d resident", listed, len(c.pages))
	}
	pages := make(map[FileID]int)
	dirty := make(map[FileID]int)
	for key, p := range c.pages {
		fi := c.files[key.file]
		if fi == nil {
			return fmt.Errorf("page %v resident, file has no index", key)
		}
		if p.fpos >= len(fi.pages) || fi.pages[p.fpos] != p {
			return fmt.Errorf("page %v not at fpos %d", key, p.fpos)
		}
		pages[key.file]++
		if p.dpos >= 0 {
			if p.dpos >= len(fi.dirty) || fi.dirty[p.dpos] != p {
				return fmt.Errorf("dirty page %v not at dpos %d", key, p.dpos)
			}
			dirty[key.file]++
		}
	}
	var nPages, nDirty, nDirtyFiles int
	for file, fi := range c.files {
		if len(fi.pages) == 0 {
			return fmt.Errorf("file %d: empty index left behind", file)
		}
		if len(fi.pages) != pages[file] || len(fi.dirty) != dirty[file] {
			return fmt.Errorf("file %d: index has %d pages %d dirty, scan has %d and %d",
				file, len(fi.pages), len(fi.dirty), pages[file], dirty[file])
		}
		if len(fi.dirty) > 0 {
			nDirtyFiles++
			if fi.qpos >= len(c.dirtyFiles) || c.dirtyFiles[fi.qpos] != fi {
				return fmt.Errorf("file %d: not at qpos %d of dirtyFiles", file, fi.qpos)
			}
		} else if fi.qpos != -1 {
			return fmt.Errorf("file %d: clean but qpos %d", file, fi.qpos)
		}
		nPages += len(fi.pages)
		nDirty += len(fi.dirty)
	}
	if c.Resident() != int64(nPages) || c.DirtyCount() != nDirty || len(c.dirtyFiles) != nDirtyFiles {
		return fmt.Errorf("Resident %d DirtyCount %d dirtyFiles %d, indexes sum to %d, %d, %d",
			c.Resident(), c.DirtyCount(), len(c.dirtyFiles), nPages, nDirty, nDirtyFiles)
	}
	return nil
}

// pageCache is what Cache and the scanCache oracle have in common.
type pageCache interface {
	Read(*sim.Thread, FileID, Mapper, int64, int64)
	Write(*sim.Thread, FileID, Mapper, int64, int64)
	Warm(FileID, Mapper, int64, int64)
	Sync(*sim.Thread, FileID) int
	SyncAll(*sim.Thread) int
	Drop(FileID)
	DropAll()
}

// TestIndexMatchesScanOracle drives the indexed cache and the scanning
// oracle, each on a kernel of its own, through one seeded sequence of
// operations; the capacity is small enough that writes evict dirty
// victims. After every step the indexes must equal a scan of the page
// map and the step must have ended at the oracle's virtual time with the
// oracle's page count written and the oracle's recency order, which is
// the eviction order (the oracle keeps its LRU in a container/list, as the
// cache did before the list moved into the pages); at the end both must
// have sent the device the same requests and hold the same pages.
func TestIndexMatchesScanOracle(t *testing.T) {
	const (
		files    = 5
		filePgs  = 48
		capacity = 64
		steps    = 4000
	)
	// Files overlap on the device, so writeback meets equal LBAs.
	mapper := func(f FileID) Mapper { return ident(int64(f) * 40) }
	for seed := int64(1); seed <= 4; seed++ {
		kc, ko := sim.NewKernel(), sim.NewKernel()
		rc, ro := recordedEnv(kc), recordedEnv(ko)
		c, o := New(kc, rc, capacity), newScanCache(ko, ro, capacity)

		type op struct {
			kind     int
			file     FileID
			start, n int64
		}
		rng := rand.New(rand.NewSource(seed))
		ops := make([]op, steps)
		for i := range ops {
			ops[i] = op{rng.Intn(16), FileID(rng.Intn(files)), rng.Int63n(filePgs), rng.Int63n(8) + 1}
		}
		var failed error
		drive := func(th *sim.Thread, pc pageCache, after func(step int, synced int)) {
			for i, op := range ops {
				synced := -1
				switch {
				case op.kind < 6:
					pc.Write(th, op.file, mapper(op.file), op.start, op.n)
				case op.kind < 9:
					pc.Read(th, op.file, mapper(op.file), op.start, op.n)
				case op.kind < 10:
					pc.Warm(op.file, mapper(op.file), op.start, op.n)
				case op.kind < 13:
					synced = pc.Sync(th, op.file)
				case op.kind < 14:
					synced = pc.SyncAll(th)
				case op.kind < 15:
					pc.Drop(op.file)
				case i%7 == 0:
					pc.DropAll()
				}
				after(i, synced)
				if failed != nil {
					return
				}
			}
		}
		var oracleSynced []int
		var oracleTimes []time.Duration
		var oracleRecency [][]pageKey
		ko.Spawn("driver", func(th *sim.Thread) {
			drive(th, o, func(_ int, synced int) {
				oracleSynced = append(oracleSynced, synced)
				oracleTimes = append(oracleTimes, ko.Now())
				oracleRecency = append(oracleRecency, o.recency())
			})
		})
		if err := ko.Run(); err != nil {
			t.Fatal(err)
		}
		kc.Spawn("driver", func(th *sim.Thread) {
			drive(th, c, func(step int, synced int) {
				if err := checkIndex(c); err != nil {
					failed = fmt.Errorf("seed %d step %d (%+v): %v", seed, step, ops[step], err)
				} else if synced != oracleSynced[step] || kc.Now() != oracleTimes[step] {
					failed = fmt.Errorf("seed %d step %d (%+v): synced %d at %v, oracle %d at %v",
						seed, step, ops[step], synced, kc.Now(), oracleSynced[step], oracleTimes[step])
				} else if !slices.Equal(c.recency(), oracleRecency[step]) {
					failed = fmt.Errorf("seed %d step %d (%+v): recency order differs from the oracle's", seed, step, ops[step])
				}
			})
		})
		if err := kc.Run(); err != nil {
			t.Fatal(err)
		}
		if failed != nil {
			t.Fatal(failed)
		}
		if !slices.Equal(rc.reqs, ro.reqs) {
			t.Fatalf("seed %d: request sequences differ (%d vs oracle %d requests)", seed, len(rc.reqs), len(ro.reqs))
		}
		if c.Stats() != o.Stats() || c.Resident() != o.Resident() || c.DirtyCount() != o.DirtyCount() {
			t.Fatalf("seed %d: stats %+v resident %d dirty %d, oracle %+v %d %d",
				seed, c.Stats(), c.Resident(), c.DirtyCount(), o.Stats(), o.Resident(), o.DirtyCount())
		}
		for f := FileID(0); f < files; f++ {
			for i := int64(0); i < filePgs+8; i++ {
				if c.Contains(f, i) != o.Contains(f, i) {
					t.Fatalf("seed %d: page (%d,%d) resident %v, oracle %v", seed, f, i, c.Contains(f, i), o.Contains(f, i))
				}
			}
		}
		if st := c.Stats(); st.Evictions == 0 || st.Writebacks == 0 || len(rc.reqs) == 0 {
			t.Fatalf("seed %d: sequence exercised nothing: %+v", seed, st)
		}
	}
}

// TestOverlappingLBAsWriteInOneOrder maps two files onto overlapping
// LBAs and checks that writeback submits the same requests every run:
// the order of equal-LBA pages comes from (lba, file, idx), not from the
// order pages were collected in.
func TestOverlappingLBAsWriteInOneOrder(t *testing.T) {
	run := func() []storage.Request {
		k := sim.NewKernel()
		r := recordedEnv(k)
		c := New(k, r, 0)
		k.Spawn("w", func(th *sim.Thread) {
			c.Write(th, 2, ident(104), 0, 8)
			c.Write(th, 1, ident(100), 0, 8)
			c.SyncAll(th)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return r.reqs
	}
	want := run()
	if len(want) < 2 {
		t.Fatalf("overlap did not split the writeback: %+v", want)
	}
	for i := 0; i < 100; i++ {
		if got := run(); !slices.Equal(got, want) {
			t.Fatalf("run %d: requests %+v, first run %+v", i, got, want)
		}
	}
}

// TestDropDuringEvictionWriteback drops a file while another thread is
// blocked writing back one of its pages as an eviction victim; the
// evictor must find the page already gone and leave the indexes whole.
func TestDropDuringEvictionWriteback(t *testing.T) {
	k, c, _ := env(2)
	k.Spawn("evictor", func(th *sim.Thread) {
		c.Write(th, 1, ident(0), 0, 2)
		c.Read(th, 2, ident(100), 0, 1) // evicts dirty (1,0): blocks on the device
		if err := checkIndex(c); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("unlinker", func(th *sim.Thread) {
		th.Sleep(time.Microsecond)
		c.Drop(1)
		if err := checkIndex(c); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Resident() != 1 || !c.Contains(2, 0) || c.DirtyCount() != 0 {
		t.Fatalf("resident %d dirty %d", c.Resident(), c.DirtyCount())
	}
}

// benchResident runs body on a simulated thread of an unbounded cache
// that holds resident clean pages of file 1.
func benchResident(b *testing.B, resident int64, body func(t *sim.Thread, c *Cache)) {
	k := sim.NewKernel()
	c := New(k, sched.NewNoop(storage.NewSSD(k, "ssd", storage.DefaultSSD())), 0)
	c.Warm(1, ident(0), 0, resident)
	k.Spawn("bench", func(t *sim.Thread) { body(t, c) })
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSyncResident dirties 16 pages of one file and fsyncs it with
// N clean pages of another file resident; ns/op should not depend on N.
func BenchmarkSyncResident(b *testing.B) {
	for _, bc := range []struct {
		name     string
		resident int64
	}{{"4k", 4 << 10}, {"64k", 64 << 10}} {
		b.Run(bc.name, func(b *testing.B) {
			benchResident(b, bc.resident, func(t *sim.Thread, c *Cache) {
				for i := 0; i < b.N; i++ {
					c.Write(t, 2, ident(1<<20), int64(i%64)*16, 16)
					c.Sync(t, 2)
				}
			})
		})
	}
}

// BenchmarkDropResident caches 16 pages of one file and drops it, as an
// unlink does, with 64k clean pages of another file resident.
func BenchmarkDropResident(b *testing.B) {
	b.Run("64k", func(b *testing.B) {
		benchResident(b, 64<<10, func(t *sim.Thread, c *Cache) {
			for i := 0; i < b.N; i++ {
				c.Warm(2, ident(1<<20), 0, 16)
				c.Drop(2)
			}
		})
	})
}
