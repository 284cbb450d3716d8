package cache

import (
	"slices"
	"testing"
	"time"

	"rootreplay/internal/sched"
	"rootreplay/internal/sim"
	"rootreplay/internal/storage"
)

// The I/O records of Read and writePages go back on the cache's free
// lists once nothing can look at them any more (DESIGN.md, "I/O
// completion records"). These scenes reuse a record right after the
// point where that stops being true, and pin the virtual times and
// statistics the cache produced before it recycled anything: a record
// recycled too early would show as a thread that wakes at the wrong
// time, waits forever, or counts a page twice.

// returned is one Read, Write or Sync coming back: who, when, and the
// cache's statistics at that moment.
type returned struct {
	who   string
	at    time.Duration
	stats Stats
}

// TestSharedReadRecordRecycled has thread a miss on four cold pages and
// thread b read the same four while a's fetch is in flight, so b waits
// on a's record. Once both have woken, thread c misses on another file:
// its Read must take a's record off the free list, and every thread
// must come back when it did before records were recycled.
func TestSharedReadRecordRecycled(t *testing.T) {
	k, c, dev := env(1000)
	var got []returned
	note := func(who string) { got = append(got, returned{who, k.Now(), c.Stats()}) }
	var shared *readOp
	k.Spawn("a", func(th *sim.Thread) {
		c.Read(th, 1, ident(0), 0, 4)
		note("a")
	})
	k.Spawn("b", func(th *sim.Thread) {
		th.Sleep(time.Microsecond)
		shared = c.reading[pageKey{1, 0}]
		if shared == nil {
			t.Error("b found no fetch in flight to share")
			return
		}
		c.Read(th, 1, ident(0), 0, 4)
		note("b")
		if shared.holds != 0 {
			t.Errorf("shared record not let go: %d holds", shared.holds)
		}
	})
	k.Spawn("c", func(th *sim.Thread) {
		th.Sleep(100 * time.Millisecond)
		if n := len(c.readFree); n == 0 || c.readFree[n-1] != shared {
			t.Errorf("a's record is not next on the free list (%d idle)", n)
		}
		c.Read(th, 2, ident(500), 0, 2)
		note("c")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []returned{
		{"a", 130208, Stats{Hits: 4, Misses: 4}},
		{"b", 130208, Stats{Hits: 4, Misses: 4}},
		{"c", 104768471, Stats{Hits: 4, Misses: 6}},
	}
	if !slices.Equal(got, want) {
		t.Errorf("returns %+v, want %+v", got, want)
	}
	if r := dev.Stats().Reads; r != 2 {
		t.Errorf("%d device reads, want 2", r)
	}
	if len(c.reading) != 0 || len(c.readFree) != 2 {
		t.Errorf("%d fetches left in flight, %d records idle; want 0 and 2", len(c.reading), len(c.readFree))
	}
}

// completionLog is a device that notes the first block of each request
// it completes, in completion order.
type completionLog struct {
	storage.Device
	done []int64
}

func (d *completionLog) Submit(r *storage.Request, done func()) {
	lba := r.LBA
	d.Device.Submit(r, func() {
		d.done = append(d.done, lba)
		done()
	})
}

// TestWritebackOutOfOrderRecycled syncs three dirty pages far apart
// through CFQ while the disk is busy at a higher address, so the disk's
// elevator completes the three write requests in the reverse of the
// order they were issued in. The syncing thread must wake once, after
// the last, and its record must serve the next Sync.
func TestWritebackOutOfOrderRecycled(t *testing.T) {
	k := sim.NewKernel()
	dev := &completionLog{Device: storage.NewHDD(k, "d", storage.DefaultHDD())}
	s := sched.NewCFQ(k, dev, sched.DefaultCFQ())
	c := New(k, s, 1000)
	lbas := []int64{100, 5000, 9000}
	spread := func(page int64) int64 { return lbas[page] }
	var got []returned
	k.Spawn("w", func(th *sim.Thread) {
		// Owner 99 seeks three times, so CFQ finds its queue seeky and
		// does not hold the disk for it.
		other := func(lba int64) {
			s.Submit(&storage.Request{Kind: storage.Read, LBA: lba, Blocks: 1, Owner: 99}, func() {})
		}
		for _, lba := range []int64{0, 100_000, 200_000} {
			other(lba)
			th.Sleep(time.Second)
		}
		c.Write(th, 1, spread, 0, 3)
		other(20_000) // the disk is busy with it while the writes queue
		c.Sync(th, 1)
		got = append(got, returned{"sync", k.Now(), c.Stats()})
		if len(c.writeFree) != 1 {
			t.Errorf("%d write records idle after the sync, want 1", len(c.writeFree))
		}
		o := c.writeFree[0]
		c.Write(th, 1, spread, 1, 2)
		c.Sync(th, 1)
		got = append(got, returned{"sync again", k.Now(), c.Stats()})
		if len(c.writeFree) != 1 || c.writeFree[0] != o {
			t.Error("the second sync did not reuse the first one's record")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int64{0, 100_000, 200_000, 20_000, 9000, 5000, 100, 5000, 9000}; !slices.Equal(dev.done, want) {
		t.Fatalf("completion order %v, want %v", dev.done, want)
	}
	want := []returned{
		{"sync", 3018383475, Stats{Writes: 3, Writebacks: 3}},
		{"sync again", 3028001467, Stats{Writes: 5, Writebacks: 5}},
	}
	if !slices.Equal(got, want) {
		t.Errorf("returns %+v, want %+v", got, want)
	}
}
