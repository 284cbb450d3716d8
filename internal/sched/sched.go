// Package sched implements block I/O schedulers that sit between the
// page cache and a storage device.
//
// Two schedulers are provided:
//
//   - Noop: dispatches every request to the device immediately, leaving
//     any reordering to the device's internal queue (NCQ elevator).
//   - CFQ: a model of Linux's Completely Fair Queueing scheduler with
//     anticipation, the scheduler the paper tunes in §5.2.1 ("Scheduler
//     slice size"). Requests are sorted into per-thread queues; the
//     active queue is serviced exclusively for a time slice
//     (slice_sync), and when a non-seeky queue runs dry the device is
//     held idle for a short window in anticipation of the next request
//     from the same thread. Queues classified as seeky (random I/O) do
//     not idle and are dispatched freely, which preserves the NCQ
//     benefit for parallel random workloads.
package sched

import (
	"time"

	"rootreplay/internal/sim"
	"rootreplay/internal/storage"
)

// Scheduler accepts block requests and forwards them to a device
// according to a scheduling policy. Submit never blocks; done runs in
// kernel context when the request completes.
type Scheduler interface {
	// Name identifies the scheduler ("noop", "cfq").
	Name() string
	// Submit enqueues a request.
	Submit(r *storage.Request, done func())
	// Outstanding reports requests submitted but not yet completed.
	Outstanding() int
	// InFlight reports requests dispatched to the device but not yet
	// completed; Outstanding() - InFlight() is the scheduler's queued
	// depth. Observability probes sample both.
	InFlight() int
}

// Noop dispatches requests straight to the device in arrival order.
type Noop struct {
	dev         storage.Device
	outstanding int
	free        []*noopOp // idle completion records
}

// noopOp is a request's completion record. fire, the completion handed
// to the device, is bound once when the record is made, so a request on
// a recycled record allocates nothing (DESIGN.md, "I/O completion
// records"; CFQ and Deadline keep theirs the same way).
type noopOp struct {
	s    *Noop
	done func()
	fire func()
}

// complete runs in kernel context when the device finishes the request.
// The record goes back on the free list before done runs: the device is
// through with it, and done may submit again.
func (o *noopOp) complete() {
	s, done := o.s, o.done
	o.done = nil
	s.free = append(s.free, o)
	s.outstanding--
	done()
}

// NewNoop returns a pass-through scheduler for dev.
func NewNoop(dev storage.Device) *Noop { return &Noop{dev: dev} }

// Name implements Scheduler.
func (s *Noop) Name() string { return "noop" }

// Outstanding implements Scheduler.
func (s *Noop) Outstanding() int { return s.outstanding }

// InFlight implements Scheduler; Noop holds nothing back, so every
// outstanding request is at the device.
func (s *Noop) InFlight() int { return s.outstanding }

// Submit implements Scheduler.
func (s *Noop) Submit(r *storage.Request, done func()) {
	s.outstanding++
	var o *noopOp
	if n := len(s.free); n > 0 {
		o, s.free = s.free[n-1], s.free[:n-1]
	} else {
		o = &noopOp{s: s}
		o.fire = o.complete
	}
	o.done = done
	s.dev.Submit(r, o.fire)
}

// CFQParams tune the CFQ model.
type CFQParams struct {
	// SliceSync is the service slice granted to a queue, the paper's
	// slice_sync tunable. Linux default is ~100ms for sync queues.
	SliceSync time.Duration
	// IdleWindow is how long the device is held idle waiting for the
	// next request from the active non-seeky queue (Linux: ~8ms).
	IdleWindow time.Duration
	// SeekyThreshold is the block distance between consecutive requests
	// beyond which an access is counted as a seek when classifying a
	// queue as seeky.
	SeekyThreshold int64
}

// DefaultCFQ returns Linux-like defaults (slice_sync = 100ms).
func DefaultCFQ() CFQParams {
	return CFQParams{
		SliceSync:      100 * time.Millisecond,
		IdleWindow:     8 * time.Millisecond,
		SeekyThreshold: 1024, // 4 MiB
	}
}

// cfqOp is a request's record from Submit to completion, recycled
// through CFQ.free like Noop's.
type cfqOp struct {
	s    *CFQ
	r    *storage.Request
	done func()
	fire func() // o.complete, bound once
}

// complete runs in kernel context when the device finishes the request.
func (o *cfqOp) complete() {
	s, done := o.s, o.done
	o.r, o.done = nil, nil
	s.free = append(s.free, o)
	s.inDevice--
	s.outstanding--
	done()
	s.dispatch()
}

type cfqQueue struct {
	owner   int
	fifo    []*cfqOp
	lastEnd int64   // end LBA of the most recent request, for seek detection
	seekEWA float64 // exponentially-weighted fraction of seeky accesses
	started bool
}

// seeky reports whether the queue's recent access pattern is random.
func (q *cfqQueue) seeky() bool { return q.started && q.seekEWA > 0.5 }

func (q *cfqQueue) observe(r *storage.Request, threshold int64) {
	dist := r.LBA - q.lastEnd
	if dist < 0 {
		dist = -dist
	}
	sample := 0.0
	if q.started && dist > threshold {
		sample = 1.0
	}
	if !q.started {
		q.started = true
		q.seekEWA = sample
	} else {
		q.seekEWA = 0.7*q.seekEWA + 0.3*sample
	}
	q.lastEnd = r.End()
}

// CFQ is the anticipatory fair-queueing scheduler model.
type CFQ struct {
	k   *sim.Kernel
	dev storage.Device
	p   CFQParams

	queues      map[int]*cfqQueue
	order       []*cfqQueue // round-robin order of owners with ever-seen traffic
	active      int         // owner of the active queue; -1 if none
	sliceEnd    time.Duration
	idleTimer   *sim.Timer // reused across every anticipation window
	idling      bool       // device held idle for the active owner
	outstanding int        // submitted to scheduler, not yet completed
	inDevice    int        // dispatched to device, not yet completed
	free        []*cfqOp   // idle request records
}

// NewCFQ returns a CFQ scheduler for dev bound to kernel k.
func NewCFQ(k *sim.Kernel, dev storage.Device, p CFQParams) *CFQ {
	if p.SliceSync <= 0 {
		p.SliceSync = DefaultCFQ().SliceSync
	}
	if p.IdleWindow <= 0 {
		p.IdleWindow = DefaultCFQ().IdleWindow
	}
	if p.SeekyThreshold <= 0 {
		p.SeekyThreshold = DefaultCFQ().SeekyThreshold
	}
	s := &CFQ{k: k, dev: dev, p: p, queues: make(map[int]*cfqQueue), active: -1}
	s.idleTimer = k.NewTimer(s.idleExpired)
	return s
}

// Name implements Scheduler.
func (s *CFQ) Name() string { return "cfq" }

// Outstanding implements Scheduler.
func (s *CFQ) Outstanding() int { return s.outstanding }

// InFlight implements Scheduler.
func (s *CFQ) InFlight() int { return s.inDevice }

// Submit implements Scheduler.
func (s *CFQ) Submit(r *storage.Request, done func()) {
	s.outstanding++
	q := s.queues[r.Owner]
	if q == nil {
		q = &cfqQueue{owner: r.Owner}
		s.queues[r.Owner] = q
		s.order = append(s.order, q)
	}
	var o *cfqOp
	if n := len(s.free); n > 0 {
		o, s.free = s.free[n-1], s.free[:n-1]
	} else {
		o = &cfqOp{s: s}
		o.fire = o.complete
	}
	o.r, o.done = r, done
	q.fifo = append(q.fifo, o)
	if s.active == -1 {
		s.activate(r.Owner)
	} else if s.idling && s.active == r.Owner {
		// The anticipated request arrived: stop idling and serve it.
		s.idling = false
		s.idleTimer.Stop()
	}
	s.dispatch()
}

// activate makes owner the active queue and starts a fresh slice.
func (s *CFQ) activate(owner int) {
	s.active = owner
	s.sliceEnd = s.k.Now() + s.p.SliceSync
	s.idling = false
	s.idleTimer.Stop()
}

// nextOwner returns the next owner after the active one (round-robin)
// with queued requests, or -1.
func (s *CFQ) nextOwner() int {
	if len(s.order) == 0 {
		return -1
	}
	start := 0
	for i, q := range s.order {
		if q.owner == s.active {
			start = i + 1
			break
		}
	}
	for i := 0; i < len(s.order); i++ {
		if q := s.order[(start+i)%len(s.order)]; len(q.fifo) > 0 {
			return q.owner
		}
	}
	return -1
}

// allPendingSeeky reports whether every queue with pending requests is
// classified seeky; in that case CFQ serves them all without idling
// (Linux's sync-noidle service tree), letting the device elevator work.
func (s *CFQ) allPendingSeeky() bool {
	any := false
	for _, q := range s.order {
		if len(q.fifo) == 0 {
			continue
		}
		any = true
		if !q.seeky() {
			return false
		}
	}
	return any
}

// dispatch forwards requests to the device within the dispatch budget.
// While the scheduler is idling (anticipating the active owner's next
// request) the device is reserved and nothing is dispatched.
func (s *CFQ) dispatch() {
	if s.idling {
		return
	}
	budget := s.dev.QueueDepth()
	if budget < 1 {
		budget = 1
	}
	for s.inDevice < budget {
		if s.active == -1 {
			o := s.nextOwner()
			if o == -1 {
				return
			}
			s.activate(o)
		}
		q := s.queues[s.active]
		if len(q.fifo) == 0 {
			// Active queue dry: idle (anticipate) if the device is
			// rotational (CFQ never idles on SSDs) and the queue is
			// non-seeky and within its slice; otherwise move on.
			if s.dev.Rotational() && !q.seeky() && s.k.Now() < s.sliceEnd {
				s.startIdle()
				return
			}
			o := s.nextOwner()
			if o == -1 {
				s.active = -1
				return
			}
			s.activate(o)
			continue
		}
		if s.k.Now() >= s.sliceEnd {
			// Slice expired: switch if anyone else is waiting.
			if o := s.nextOwner(); o != -1 && o != s.active {
				s.activate(o)
				continue
			}
			// No competition: renew the slice.
			s.sliceEnd = s.k.Now() + s.p.SliceSync
		}
		s.startOne(q)
		// Seeky queues do not hold the device: when every pending queue
		// is seeky, rotate after each dispatch so the device elevator
		// sees requests from all of them (Linux's sync-noidle tree).
		if q.seeky() && s.allPendingSeeky() {
			if o := s.nextOwner(); o != -1 {
				s.activate(o)
			}
		}
	}
}

// startIdle holds the device idle for the anticipation window; if the
// active owner does not submit in time, the scheduler switches queues.
func (s *CFQ) startIdle() {
	if s.idling {
		return
	}
	if s.inDevice > 0 {
		// Anticipation begins only once the device is quiet; completion
		// of the in-flight request re-runs dispatch, which gets us here
		// again.
		return
	}
	s.idling = true
	deadline := s.p.IdleWindow
	if remaining := s.sliceEnd - s.k.Now(); remaining < deadline {
		deadline = remaining
	}
	// Reset reuses the scheduler's single timer (and, through the kernel
	// pool, its event) instead of allocating a fresh closure per window;
	// Stop/Reset invalidate any still-queued expiry from an earlier
	// window, replacing the idleGen counter.
	s.idleTimer.Reset(deadline)
}

// idleExpired fires when the anticipation window lapses without the
// active owner submitting: give the device to the next waiting queue.
func (s *CFQ) idleExpired() {
	if !s.idling {
		return
	}
	s.idling = false
	if o := s.nextOwner(); o != -1 {
		s.activate(o)
		s.dispatch()
	} else {
		s.active = -1
	}
}

// startOne pops the head of q and hands it to the device.
func (s *CFQ) startOne(q *cfqQueue) {
	o := q.fifo[0]
	q.fifo = append(q.fifo[:0], q.fifo[1:]...)
	q.observe(o.r, s.p.SeekyThreshold)
	s.inDevice++
	s.dev.Submit(o.r, o.fire)
}
