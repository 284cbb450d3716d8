package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
	"time"
)

// oracleHeap is the kernel's former container/heap event queue, kept
// verbatim as the test oracle: the wheel must dequeue in exactly this
// order for every insert sequence.
type oracleHeap []*event

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h oracleHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *oracleHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// randomAt draws an insert time at or after now, weighted to exercise
// every wheel path: same-instant ties, sub-tick offsets, level-0 and
// level-1 distances, and far times beyond the wheel horizon that land
// in the overflow heap and later cascade in.
func randomAt(r *rand.Rand, now time.Duration) time.Duration {
	switch r.Intn(10) {
	case 0, 1:
		return now // same-instant burst
	case 2:
		return now + time.Duration(r.Int63n(1<<wheelShift)) // same tick or next
	case 3, 4, 5:
		return now + time.Duration(r.Int63n(int64(wheelSlots)<<wheelShift)) // level 0
	case 6, 7:
		return now + time.Duration(r.Int63n(int64(wheelSpan)<<wheelShift)) // level 1
	case 8:
		return now + time.Duration(int64(wheelSpan)<<wheelShift) +
			time.Duration(r.Int63n(int64(wheelSpan)<<wheelShift)) // overflow
	default:
		// Far jump: empty stretches force multi-slot advances.
		return now + time.Duration(r.Int63n(int64(8*wheelSpan)<<wheelShift))
	}
}

// TestWheelMatchesHeapOracle drives a wheel and the old heap with the
// same randomized insert/expire sequence and requires identical dequeue
// order — the determinism contract of the replacement. Mixed in are the
// clock moves of sleeps taken in place: now jumps to any instant strictly
// before earliest() without an expire, then rebase as sleepInPlace does. After every step earliest() must not exceed
// the oracle's minimum and must equal it whenever level 0 is occupied.
func TestWheelMatchesHeapOracle(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 12345, 987654321} {
		r := rand.New(rand.NewSource(seed))
		var w wheel
		var h oracleHeap
		var seq uint64
		now := time.Duration(0)
		var batch []*event
		var rebased, advanced int

		expireOne := func() {
			batch = batch[:0]
			if !w.expire(&batch) {
				if len(h) != 0 {
					t.Fatalf("seed %d: wheel empty, oracle has %d", seed, len(h))
				}
				return
			}
			now = batch[0].at
			for _, e := range batch {
				if len(h) == 0 {
					t.Fatalf("seed %d: wheel produced %v/%d, oracle empty", seed, e.at, e.seq)
				}
				want := heap.Pop(&h).(*event)
				if e.at != want.at || e.seq != want.seq {
					t.Fatalf("seed %d: wheel dequeued (%v, %d), oracle (%v, %d)",
						seed, e.at, e.seq, want.at, want.seq)
				}
				if e.at != now {
					t.Fatalf("seed %d: batch mixes instants %v and %v", seed, now, e.at)
				}
			}
		}
		insert := func(at time.Duration) {
			e := &event{at: at, seq: seq}
			seq++
			w.insert(e)
			heap.Push(&h, e)
		}
		checkEarliest := func(op int) {
			got := w.earliest()
			if len(h) == 0 {
				if got != math.MaxInt64 {
					t.Fatalf("seed %d op %d: earliest() = %v on an empty wheel", seed, op, got)
				}
				return
			}
			if min := h[0].at; got > min || w.l0n > 0 && got != min {
				t.Fatalf("seed %d op %d: earliest() = %v, oracle minimum %v, %d events in level 0",
					seed, op, got, min, w.l0n)
			}
		}
		// advanceInPlace moves now as a sleep to wake would, if the wheel
		// allows it.
		advanceInPlace := func(wake time.Duration) {
			if wake <= now || wake >= w.earliest() {
				return
			}
			now = wake
			advanced++
			w.rebase(wake)
			if w.n == 0 {
				rebased++
				// The point of re-basing: an insert at the new now is a
				// level-0 insert, whose time earliest() knows exactly.
				insert(now)
				if w.l0n != 1 {
					t.Fatalf("seed %d: insert just after a re-base to %v missed level 0", seed, now)
				}
			}
		}

		for op := 0; op < 20000; op++ {
			switch k := r.Intn(12); {
			case w.n == 0 || k < 6:
				// Insert a burst of 1–4 events; bursts create the
				// same-instant ties the seq tie-break exists for.
				burst := 1 + r.Intn(4)
				at := randomAt(r, now)
				for i := 0; i < burst; i++ {
					insert(at)
				}
			case k < 9:
				expireOne()
			case k < 11:
				advanceInPlace(randomAt(r, now))
			default:
				// A lone sleeper: drain, then sleep past the old window.
				for w.n > 0 {
					expireOne()
				}
				advanceInPlace(randomAt(r, now))
			}
			checkEarliest(op)
		}
		for w.n > 0 {
			expireOne()
		}
		if len(h) != 0 {
			t.Fatalf("seed %d: drained wheel but oracle holds %d events", seed, len(h))
		}
		if rebased == 0 || advanced == rebased {
			t.Fatalf("seed %d: %d in-place advances, %d on an empty wheel: one of the two cases went untested",
				seed, advanced, rebased)
		}
	}
}

// BenchmarkOracleHeapTimerChurn reproduces the pre-wheel kernel's cost
// model — container/heap plus a fresh event and closure per schedule —
// on the same churn pattern as simbench.TimerChurn, so the allocs/op
// delta in BENCH JSON has an in-tree baseline.
func BenchmarkOracleHeapTimerChurn(b *testing.B) {
	b.ReportAllocs()
	offsets := [...]time.Duration{
		3 * time.Microsecond,
		170 * time.Microsecond,
		1100 * time.Microsecond,
		47 * time.Millisecond,
		400 * time.Millisecond,
	}
	var h oracleHeap
	var seq uint64
	now := time.Duration(0)
	n := 0
	push := func(d time.Duration) {
		local := now
		e := &event{at: now + d, seq: seq, op: opFunc, fn: func() { _ = local }}
		seq++
		heap.Push(&h, e)
	}
	b.ResetTimer()
	for i := 0; i < 64; i++ {
		push(offsets[i%len(offsets)])
	}
	for len(h) > 0 {
		e := heap.Pop(&h).(*event)
		now = e.at
		e.fn()
		if n < b.N {
			n++
			push(offsets[n%len(offsets)])
		}
	}
}

// TestKernelEventOrderOracle checks the full kernel path: events
// scheduled through At fire in (at, seq) order even when scheduling
// happens from inside callbacks, which inserts into the live window and
// appends to in-flight same-instant batches.
func TestKernelEventOrderOracle(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	k := NewKernel()
	type stamp struct {
		at time.Duration
		id int
	}
	var got []stamp
	var want []stamp
	id := 0
	var schedule func(depth int)
	schedule = func(depth int) {
		n := 2 + r.Intn(6)
		for i := 0; i < n; i++ {
			at := k.Now() + time.Duration(r.Int63n(int64(2*wheelSpan)<<wheelShift))
			if r.Intn(4) == 0 {
				at = k.Now() // same-instant reentry
			}
			myID := id
			id++
			want = append(want, stamp{at, myID})
			k.At(at, func() {
				got = append(got, stamp{k.Now(), myID})
				if depth < 3 && r.Intn(3) == 0 {
					schedule(depth + 1)
				}
			})
		}
	}
	schedule(0)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, scheduled %d", len(got), len(want))
	}
	// The oracle order is (at, then scheduling order) — a stable sort of
	// the scheduling log by time. Events scheduled later from callbacks
	// have larger seq, and callbacks run in time order, so the log's
	// index order matches seq order.
	sorted := make([]stamp, len(want))
	copy(sorted, want)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].at < sorted[j-1].at; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	for i := range got {
		if got[i].id != sorted[i].id {
			t.Fatalf("position %d: fired id %d, want id %d", i, got[i].id, sorted[i].id)
		}
		if got[i].at != sorted[i].at {
			t.Fatalf("position %d: fired at %v, want %v", i, got[i].at, sorted[i].at)
		}
	}
}

// TestTimerRandomStopReset drives one Timer with a random Reset/Stop/
// sleep sequence and checks the fires against a model replayed from the
// op log: a timer fires at its last Reset deadline iff no Stop or Reset
// intervenes before that deadline.
func TestTimerRandomStopReset(t *testing.T) {
	for _, seed := range []int64{3, 17, 2024} {
		r := rand.New(rand.NewSource(seed))
		k := NewKernel()
		var fires []time.Duration
		tm := k.NewTimer(func() { fires = append(fires, k.Now()) })

		type op struct {
			t     time.Duration // when the op executes
			reset time.Duration // deadline; 0 means Stop
		}
		var log []op
		k.Spawn("driver", func(th *Thread) {
			for i := 0; i < 300; i++ {
				switch r.Intn(3) {
				case 0, 1:
					d := time.Duration(r.Int63n(int64(5 * time.Millisecond)))
					log = append(log, op{k.Now(), k.Now() + d})
					tm.Reset(d)
				default:
					log = append(log, op{k.Now(), 0})
					tm.Stop()
				}
				th.Sleep(time.Duration(r.Int63n(int64(4 * time.Millisecond))))
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}

		var want []time.Duration
		pending := time.Duration(-1)
		for _, o := range log {
			if pending >= 0 && pending <= o.t {
				// Deadline passed before this op ran (a deadline equal to
				// the op time fires first: the wake event was scheduled
				// earlier, so it has a smaller seq than the driver's).
				want = append(want, pending)
				pending = -1
			}
			if o.reset > 0 {
				pending = o.reset
			} else {
				pending = -1
			}
		}
		if pending >= 0 {
			want = append(want, pending)
		}
		if len(fires) != len(want) {
			t.Fatalf("seed %d: %d fires, want %d\nfires: %v\nwant:  %v",
				seed, len(fires), len(want), fires, want)
		}
		for i := range fires {
			if fires[i] != want[i] {
				t.Fatalf("seed %d: fire %d at %v, want %v", seed, i, fires[i], want[i])
			}
		}
	}
}

// TestBatchWakeSharedInstant stresses many threads released at one
// instant: all wakes must happen at exactly that time, in the FIFO
// order the sleeps were scheduled, regardless of direct-handoff and
// same-instant batch extraction.
func TestBatchWakeSharedInstant(t *testing.T) {
	const n = 500
	k := NewKernel()
	target := 10 * time.Millisecond
	var order []int
	for i := 0; i < n; i++ {
		i := i
		k.Spawn("sleeper", func(th *Thread) {
			// Stagger the pre-sleep so sleep events are scheduled in
			// spawn order but from different virtual times.
			th.Sleep(time.Duration(i%7) * time.Microsecond)
			th.Sleep(target - k.Now())
			if k.Now() != target {
				t.Errorf("thread %d woke at %v, want %v", i, k.Now(), target)
			}
			order = append(order, i)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != n {
		t.Fatalf("%d threads finished, want %d", len(order), n)
	}
	// Wake order is the order the sleep-to-target events were enqueued:
	// threads run their pre-sleeps grouped by (i%7) microsecond step, in
	// spawn order within a step.
	var want []int
	for step := 0; step < 7; step++ {
		for i := 0; i < n; i++ {
			if i%7 == step {
				want = append(want, i)
			}
		}
	}
	for i := range order {
		if order[i] != want[i] {
			t.Fatalf("wake position %d: thread %d, want %d", i, order[i], want[i])
		}
	}
}
