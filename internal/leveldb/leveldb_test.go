package leveldb

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"rootreplay/internal/sim"
	"rootreplay/internal/stack"
	"rootreplay/internal/vfs"
)

func newSys(mutate func(*stack.Config)) (*sim.Kernel, *stack.System) {
	k := sim.NewKernel()
	conf := stack.DefaultConfig()
	conf.Scheduler = stack.SchedNoop
	if mutate != nil {
		mutate(&conf)
	}
	return k, stack.New(k, conf)
}

func TestPutGetRoundTrip(t *testing.T) {
	k, sys := newSys(nil)
	k.Spawn("test", func(th *sim.Thread) {
		db, err := Open(sys, th, DefaultOptions("/db"))
		if err != nil {
			t.Error(err)
			return
		}
		db.Put(th, "alpha", []byte("one"), false)
		db.Put(th, "beta", []byte("two"), true)
		if v, ok := db.Get(th, "alpha"); !ok || string(v) != "one" {
			t.Errorf("get alpha = %q, %v", v, ok)
		}
		if v, ok := db.Get(th, "beta"); !ok || string(v) != "two" {
			t.Errorf("get beta = %q, %v", v, ok)
		}
		if _, ok := db.Get(th, "gamma"); ok {
			t.Error("missing key found")
		}
		db.Close(th)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOverwriteLatestWins(t *testing.T) {
	k, sys := newSys(nil)
	k.Spawn("test", func(th *sim.Thread) {
		db, _ := Open(sys, th, DefaultOptions("/db"))
		db.Put(th, "k", []byte("v1"), false)
		db.Put(th, "k", []byte("v2"), false)
		if v, _ := db.Get(th, "k"); string(v) != "v2" {
			t.Errorf("got %q", v)
		}
		db.Close(th)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMemtableFlushCreatesTable(t *testing.T) {
	k, sys := newSys(nil)
	opts := DefaultOptions("/db")
	opts.MemtableBytes = 16 << 10 // tiny memtable
	k.Spawn("test", func(th *sim.Thread) {
		db, _ := Open(sys, th, opts)
		val := make([]byte, 1024)
		for i := 0; i < 64; i++ {
			db.Put(th, fmt.Sprintf("key%04d", i), val, false)
		}
		if db.stats.Flushes == 0 {
			t.Error("no flush despite exceeding memtable budget")
		}
		// Values written before the flush must be readable from tables.
		if v, ok := db.Get(th, "key0000"); !ok || len(v) != 1024 {
			t.Errorf("get after flush = %d bytes, %v", len(v), ok)
		}
		db.Close(th)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// A table file must exist on the simulated FS (earlier tables may
	// have been consumed by compaction).
	foundTable := false
	sys.FS.Walk(func(p string, _ *vfs.Inode) {
		if strings.HasSuffix(p, ".ldb") {
			foundTable = true
		}
	})
	if !foundTable {
		t.Error("no table file on the file system")
	}
}

func TestCompactionMergesTables(t *testing.T) {
	k, sys := newSys(nil)
	opts := DefaultOptions("/db")
	opts.MemtableBytes = 8 << 10
	opts.L0CompactTrigger = 3
	k.Spawn("test", func(th *sim.Thread) {
		db, _ := Open(sys, th, opts)
		val := make([]byte, 512)
		for i := 0; i < 200; i++ {
			db.Put(th, fmt.Sprintf("key%04d", i%50), val, false)
		}
		if db.stats.Compactions == 0 {
			t.Error("no compaction")
		}
		for i := 0; i < 50; i++ {
			if _, ok := db.Get(th, fmt.Sprintf("key%04d", i)); !ok {
				t.Errorf("key%04d lost after compaction", i)
			}
		}
		db.Close(th)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// Group commit: concurrent sync Puts must be batched — far fewer batches
// (and fsyncs) than Puts.
func TestGroupCommitBatching(t *testing.T) {
	k, sys := newSys(nil)
	var db *DB
	ready := sim.NewCond(k)
	k.Spawn("open", func(th *sim.Thread) {
		db, _ = Open(sys, th, DefaultOptions("/db"))
		ready.Broadcast()
	})
	const threads, per = 8, 25
	for i := 0; i < threads; i++ {
		i := i
		k.Spawn(fmt.Sprintf("w%d", i), func(th *sim.Thread) {
			for db == nil {
				ready.Wait(th, "open")
			}
			for n := 0; n < per; n++ {
				db.Put(th, fmt.Sprintf("k-%d-%d", i, n), []byte("v"), true)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	st := db.stats
	if st.Puts != threads*per {
		t.Fatalf("puts = %d", st.Puts)
	}
	if st.BatchCount >= st.Puts {
		t.Fatalf("no batching: %d batches for %d puts", st.BatchCount, st.Puts)
	}
	if st.BatchedPuts != st.Puts {
		t.Fatalf("batched puts %d != puts %d", st.BatchedPuts, st.Puts)
	}
	// All values durable and readable.
	k.Spawn("verify", func(th *sim.Thread) {
		for i := 0; i < threads; i++ {
			for n := 0; n < per; n++ {
				if _, ok := db.Get(th, fmt.Sprintf("k-%d-%d", i, n)); !ok {
					t.Errorf("k-%d-%d missing", i, n)
				}
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFillSyncWorkload(t *testing.T) {
	k, sys := newSys(nil)
	w := &FillSync{Threads: 4, OpsPerThread: 20, ValueBytes: 100, Seed: 42}
	if err := w.Setup(sys); err != nil {
		t.Fatal(err)
	}
	w.Spawn(sys)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if w.db.stats.Puts != 80 {
		t.Fatalf("puts = %d", w.db.stats.Puts)
	}
	// Sync inserts hit the device.
	if sys.Dev.Stats().Writes == 0 {
		t.Fatal("no device writes from fillsync")
	}
}

func TestReadRandomWorkload(t *testing.T) {
	k, sys := newSys(nil)
	w := &ReadRandom{Threads: 4, OpsPerThread: 50, Records: 2000, ValueBytes: 100, Seed: 7}
	if err := w.Setup(sys); err != nil {
		t.Fatal(err)
	}
	readsBefore := sys.Dev.Stats().Reads
	w.Spawn(sys)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if w.db.stats.Gets != 200 {
		t.Fatalf("gets = %d", w.db.stats.Gets)
	}
	if sys.Dev.Stats().Reads == readsBefore {
		t.Fatal("readrandom measured phase issued no device reads (cache not cold?)")
	}
}

// Property: any interleaving of Puts followed by Gets returns the last
// value written for every key, across flush boundaries.
func TestQuickLastWriteWins(t *testing.T) {
	f := func(ops []uint16) bool {
		if len(ops) > 150 {
			ops = ops[:150]
		}
		k, sys := newSys(nil)
		opts := DefaultOptions("/db")
		opts.MemtableBytes = 4 << 10
		opts.L0CompactTrigger = 2
		want := make(map[string]byte)
		okRun := true
		k.Spawn("driver", func(th *sim.Thread) {
			db, err := Open(sys, th, opts)
			if err != nil {
				okRun = false
				return
			}
			for _, op := range ops {
				key := fmt.Sprintf("key%d", op%37)
				val := []byte{byte(op >> 8), 0, 1, 2, 3}
				db.Put(th, key, val, op%5 == 0)
				want[key] = byte(op >> 8)
			}
			for key, b := range want {
				v, ok := db.Get(th, key)
				if !ok || len(v) != 5 || v[0] != b {
					okRun = false
				}
			}
			db.Close(th)
		})
		if err := k.Run(); err != nil {
			return false
		}
		return okRun
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFillSyncSSDFasterThanHDD(t *testing.T) {
	elapsed := func(dev stack.DeviceKind) int64 {
		k, sys := newSys(func(c *stack.Config) { c.Device = dev })
		w := &FillSync{Threads: 2, OpsPerThread: 30, ValueBytes: 256, Seed: 1}
		if err := w.Setup(sys); err != nil {
			t.Fatal(err)
		}
		start := k.Now()
		w.Spawn(sys)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return int64(k.Now() - start)
	}
	hdd := elapsed(stack.DeviceHDD)
	ssd := elapsed(stack.DeviceSSD)
	if ssd >= hdd {
		t.Fatalf("fillsync on SSD (%d) not faster than HDD (%d)", ssd, hdd)
	}
}
