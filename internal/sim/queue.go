package sim

import (
	"math"
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

// event is a timed entry in the kernel's event queue: an opcode plus
// operand words. Events are pooled and reused; all operand fields are
// cleared on release so the pool retains nothing.
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

// less orders events by (at, seq), the determinism contract of the
// event queue.
func (e *event) less(f *event) bool {
	if e.at != f.at {
		return e.at < f.at
	}
	return e.seq < f.seq
}

// queue is the kernel's pending-event structure: a binary min-heap of
// events ordered by (at, seq). It is typed rather than container/heap,
// so pushes and pops stay interface-free and allocate nothing once the
// backing array has grown. It is shallow — no benchmark workload keeps
// more than a dozen events pending — so a sift is a few levels at most.
type queue struct {
	evs []*event
}

func (q *queue) len() int { return len(q.evs) }

// earliest returns the time of the earliest pending event, or the far
// future when none is pending.
func (q *queue) earliest() time.Duration {
	if len(q.evs) == 0 {
		return math.MaxInt64
	}
	return q.evs[0].at
}

func (q *queue) push(e *event) {
	q.evs = append(q.evs, e)
	i := len(q.evs) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.less(q.evs[p]) {
			break
		}
		q.evs[i] = q.evs[p]
		i = p
	}
	q.evs[i] = e
}

// pop removes and returns the earliest event; the queue must not be empty.
func (q *queue) pop() *event {
	evs := q.evs
	top := evs[0]
	n := len(evs) - 1
	last := evs[n]
	evs[n] = nil
	evs = evs[:n]
	q.evs = evs
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && evs[c+1].less(evs[c]) {
			c++
		}
		if !evs[c].less(last) {
			break
		}
		evs[i] = evs[c]
		i = c
	}
	evs[i] = last
	return top
}
