package sim

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// Event opcodes. The kernel's hot-path callbacks (thread wakes, I/O
// completions, timer expiries) are tagged operations on a pooled event
// struct instead of captured closures, so scheduling them allocates
// nothing once the pool is warm. opFunc remains the fully general form.
const (
	opFunc uint8 = iota
	// opWake moves th to the back of the run queue (Thread.Sleep).
	opWake
	// opComplete invokes c.Complete(tag) — the I/O completion path.
	opComplete
	// opTimer fires tm if the event is still the timer's pending event;
	// a stale event (the timer was stopped or reset) is skipped.
	opTimer
)

// event is a timed entry in the kernel's pending-event structure: an
// opcode plus operand words. Events are pooled and reused; all operand
// fields are cleared on release so the pool retains nothing.
type event struct {
	at  time.Duration
	seq uint64 // FIFO tie-break for events at the same instant

	op  uint8
	th  *Thread   // opWake
	fn  func()    // opFunc
	c   Completer // opComplete
	tag uint64    // opComplete operand
	tm  *Timer    // opTimer
}

// less orders events by (at, seq) — exactly the old eventHeap order, the
// determinism contract every queue implementation here must preserve.
func (e *event) less(f *event) bool {
	if e.at != f.at {
		return e.at < f.at
	}
	return e.seq < f.seq
}

// Wheel geometry. Level 0 buckets one tick (2^wheelShift ns ≈ 4.1µs)
// per slot and covers ~1ms ahead; level 1 buckets 256 ticks per slot
// and covers ~268ms; everything farther sits in a min-heap until the
// window advances over it. The tick size straddles the simulation's
// natural event scale (SSD ≈ 200µs, HDD ≈ ms, scheduler slices ≈
// 100ms), so the common case is a level-0 or level-1 insert.
const (
	wheelShift = 12
	wheelBits  = 8
	wheelSlots = 1 << wheelBits
	wheelMask  = wheelSlots - 1
	// wheelSpan is the total tick horizon of both levels.
	wheelSpan = wheelSlots * wheelSlots
)

func wheelTick(at time.Duration) int64 { return int64(at) >> wheelShift }

// bucket holds the events of one wheel slot. Buckets are unordered
// until first expired, at which point they are sorted by (at, seq) and
// kept sorted: appends that arrive in order (the common case — seq is
// monotonic, so only a smaller at breaks order) keep the flag, anything
// else does a binary insertion.
type bucket struct {
	evs    []*event
	sorted bool
}

func (b *bucket) add(e *event) {
	if b.sorted && len(b.evs) > 0 && b.evs[len(b.evs)-1].less(e) {
		b.evs = append(b.evs, e)
		return
	}
	if b.sorted && len(b.evs) > 0 {
		i := sort.Search(len(b.evs), func(i int) bool { return e.less(b.evs[i]) })
		b.evs = append(b.evs, nil)
		copy(b.evs[i+1:], b.evs[i:])
		b.evs[i] = e
		return
	}
	b.evs = append(b.evs, e)
	if len(b.evs) == 1 {
		b.sorted = true
	}
}

func (b *bucket) ensureSorted() {
	if b.sorted {
		return
	}
	evs := b.evs
	sort.Slice(evs, func(i, j int) bool { return evs[i].less(evs[j]) })
	b.sorted = true
}

// wheel is the kernel's pending-event structure: a two-level timer
// wheel with a sorted overflow heap for far timers. Dequeue order is
// strictly (at, seq) — identical to the container/heap implementation
// it replaced — because level-0 slots cover disjoint, increasing tick
// ranges, level-1 slots cover disjoint tick ranges strictly after level
// 0's window, the heap holds only ticks at or beyond the level-1
// horizon, and each bucket is sorted by (at, seq) before events leave
// it. The property test in wheel_test.go checks this against the old
// heap as an oracle.
type wheel struct {
	n int // total pending events across all levels

	// base is the absolute tick of level-0 slot 0, always aligned to
	// wheelSlots and never beyond the earliest pending tick. It advances
	// inside expire, just before the kernel moves the clock to the minimum
	// it returns (and with the clock when a sleep taken in place finds the
	// wheel empty) — but the pacer hook sits between expire and the move,
	// and a paced kernel may inject an event earlier than the expired batch
	// (never earlier than now). insert detects tick(at) < base and rewinds
	// the window, so the only standing invariant is tick(at) >= tick(now).
	base int64

	l0     [wheelSlots]bucket
	l0bits [wheelSlots / 64]uint64
	l0n    int

	l1  [wheelSlots]bucket
	l1n int

	over overflowHeap
}

// insert files e by tick distance from base: level 0 within wheelSlots
// ticks, level 1 within wheelSpan, the overflow heap beyond. An event
// before base — possible only from a pacer injection between expire and
// the clock move — rewinds the window first; filing it by masked slot
// index alone would alias it onto a future rotation and dispatch it
// after later events, dragging the kernel clock backward.
func (w *wheel) insert(e *event) {
	t := wheelTick(e.at)
	if t < w.base {
		w.rewind(t)
	}
	w.n++
	switch {
	case t < w.base+wheelSlots:
		i := t & wheelMask
		w.l0[i].add(e)
		w.l0bits[i>>6] |= 1 << uint(i&63)
		w.l0n++
	case t < w.base+wheelSpan:
		w.l1[(t>>wheelBits)&wheelMask].add(e)
		w.l1n++
	default:
		w.over.push(e)
	}
}

// expire removes every pending event at the earliest instant and
// appends them, in seq order, to *batch. It reports false when no
// events remain. The kernel dispatches the batch one event at a time,
// re-checking the run queue in between, so batching changes only the
// extraction cost, never the dispatch order.
func (w *wheel) expire(batch *[]*event) bool {
	if w.n == 0 {
		return false
	}
	for w.l0n == 0 {
		w.advance()
	}
	// The earliest event is in the first non-empty level-0 slot: slots
	// are monotone in tick because base is wheelSlots-aligned.
	i := w.firstL0()
	b := &w.l0[i]
	b.ensureSorted()
	at := b.evs[0].at
	cut := 1
	for cut < len(b.evs) && b.evs[cut].at == at {
		cut++
	}
	*batch = append(*batch, b.evs[:cut]...)
	rest := copy(b.evs, b.evs[cut:])
	for j := rest; j < len(b.evs); j++ {
		b.evs[j] = nil
	}
	b.evs = b.evs[:rest]
	if rest == 0 {
		b.sorted = false
		w.l0bits[i>>6] &^= 1 << uint(i&63)
	}
	w.l0n -= cut
	w.n -= cut
	return true
}

// earliest returns the time of the earliest pending event when level 0
// holds one, otherwise a lower bound on it — levels 1 and up hold only
// ticks at or past base+wheelSlots — and the far future when empty.
func (w *wheel) earliest() time.Duration {
	if w.l0n == 0 {
		if w.n == 0 {
			return math.MaxInt64
		}
		return time.Duration((w.base + wheelSlots) << wheelShift)
	}
	b := &w.l0[w.firstL0()]
	b.ensureSorted()
	return b.evs[0].at
}

// rebase moves an empty wheel's window to at, so near inserts stay in level 0.
func (w *wheel) rebase(at time.Duration) {
	if w.n == 0 {
		w.base = wheelTick(at) &^ wheelMask
	}
}

// firstL0 returns the index of the first non-empty level-0 slot.
func (w *wheel) firstL0() int64 {
	for wi, word := range w.l0bits {
		if word != 0 {
			return int64(wi<<6) + int64(bits.TrailingZeros64(word))
		}
	}
	panic("sim: wheel level-0 bitmap empty with l0n > 0")
}

// rewind lowers the window so tick t heads it again, refiling every
// leveled event against the new base. The kernel's clock still trails
// t — only expire's look-ahead moved base — so dequeue order is
// preserved. Overflow-heap events need no refiling: they carry absolute
// times and advance drains them against whatever base is current. Rare
// (one paced injection behind an expired batch), so the O(pending)
// rebuild does not show up in steady-state scheduling.
func (w *wheel) rewind(t int64) {
	var evs []*event
	if w.l0n > 0 {
		for i := range w.l0 {
			evs = append(evs, w.l0[i].evs...)
			for j := range w.l0[i].evs {
				w.l0[i].evs[j] = nil
			}
			w.l0[i].evs = w.l0[i].evs[:0]
			w.l0[i].sorted = false
		}
		for i := range w.l0bits {
			w.l0bits[i] = 0
		}
		w.l0n = 0
	}
	if w.l1n > 0 {
		for i := range w.l1 {
			evs = append(evs, w.l1[i].evs...)
			for j := range w.l1[i].evs {
				w.l1[i].evs[j] = nil
			}
			w.l1[i].evs = w.l1[i].evs[:0]
			w.l1[i].sorted = false
		}
		w.l1n = 0
	}
	w.base = t &^ wheelMask
	w.n -= len(evs)
	for _, e := range evs {
		w.insert(e)
	}
}

// advance moves the window forward when level 0 has drained: it picks
// the earlier of the next non-empty level-1 slot and the overflow
// heap's minimum as the new base, scatters that level-1 slot into level
// 0 if it starts the new window, and drains newly in-horizon overflow
// events into the levels. base increases strictly, so repeated calls
// terminate.
func (w *wheel) advance() {
	if w.l1n == 0 && w.over.n() == 0 {
		panic("sim: wheel advance with nothing pending")
	}
	const maxTick = int64(1)<<62 - 1
	newBase := int64(maxTick)
	jabs := int64(-1) // absolute level-1 slot index of the next slot
	if w.l1n > 0 {
		// Ring scan: window slots start just after base's own level-1
		// slot and wrap; distance from the cursor recovers absolute
		// order.
		cur := w.base >> wheelBits
		for d := int64(1); d <= wheelMask; d++ {
			if len(w.l1[(cur+d)&wheelMask].evs) > 0 {
				jabs = cur + d
				newBase = jabs << wheelBits
				break
			}
		}
		if jabs < 0 {
			panic("sim: wheel level-1 scan found nothing with l1n > 0")
		}
	}
	if w.over.n() > 0 {
		if mb := wheelTick(w.over.min().at) &^ wheelMask; mb < newBase {
			newBase = mb
		}
	}
	w.base = newBase
	if jabs >= 0 && jabs<<wheelBits == newBase {
		// The next level-1 slot starts the new window: cascade it down.
		b := &w.l1[jabs&wheelMask]
		for _, e := range b.evs {
			i := wheelTick(e.at) & wheelMask
			w.l0[i].add(e)
			w.l0bits[i>>6] |= 1 << uint(i&63)
		}
		moved := len(b.evs)
		for j := range b.evs {
			b.evs[j] = nil
		}
		b.evs = b.evs[:0]
		b.sorted = false
		w.l0n += moved
		w.l1n -= moved
	}
	for w.over.n() > 0 && wheelTick(w.over.min().at) < w.base+wheelSpan {
		e := w.over.pop()
		t := wheelTick(e.at)
		if t < w.base+wheelSlots {
			i := t & wheelMask
			w.l0[i].add(e)
			w.l0bits[i>>6] |= 1 << uint(i&63)
			w.l0n++
		} else {
			w.l1[(t>>wheelBits)&wheelMask].add(e)
			w.l1n++
		}
	}
}

// overflowHeap is a plain binary min-heap of events ordered by
// (at, seq), holding timers beyond the wheel horizon. It avoids
// container/heap so pushes and pops stay interface-free.
type overflowHeap struct {
	evs []*event
}

func (h *overflowHeap) n() int      { return len(h.evs) }
func (h *overflowHeap) min() *event { return h.evs[0] }

func (h *overflowHeap) push(e *event) {
	h.evs = append(h.evs, e)
	i := len(h.evs) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.evs[i].less(h.evs[p]) {
			break
		}
		h.evs[i], h.evs[p] = h.evs[p], h.evs[i]
		i = p
	}
}

func (h *overflowHeap) pop() *event {
	e := h.evs[0]
	last := len(h.evs) - 1
	h.evs[0] = h.evs[last]
	h.evs[last] = nil
	h.evs = h.evs[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(h.evs) && h.evs[l].less(h.evs[s]) {
			s = l
		}
		if r < len(h.evs) && h.evs[r].less(h.evs[s]) {
			s = r
		}
		if s == i {
			break
		}
		h.evs[i], h.evs[s] = h.evs[s], h.evs[i]
		i = s
	}
	return e
}
