package sched

import (
	"sort"
	"time"

	"rootreplay/internal/sim"
	"rootreplay/internal/storage"
)

// DeadlineParams tune the deadline scheduler model.
type DeadlineParams struct {
	// ReadExpire and WriteExpire bound request latency: a request past
	// its deadline is serviced next regardless of elevator order (Linux
	// defaults: 500ms reads, 5s writes).
	ReadExpire  time.Duration
	WriteExpire time.Duration
	// Batch is how many requests are dispatched in elevator order before
	// the scheduler re-checks deadlines (fifo_batch).
	Batch int
}

// DefaultDeadline returns Linux-like defaults.
func DefaultDeadline() DeadlineParams {
	return DeadlineParams{
		ReadExpire:  500 * time.Millisecond,
		WriteExpire: 5 * time.Second,
		Batch:       16,
	}
}

// dlPending is a request's record from Submit to completion, recycled
// through Deadline.free like Noop's.
type dlPending struct {
	s        *Deadline
	r        *storage.Request
	done     func()
	deadline time.Duration
	fire     func() // p.complete, bound once
}

// complete runs in kernel context when the device finishes the request.
func (p *dlPending) complete() {
	s, done := p.s, p.done
	p.r, p.done = nil, nil
	s.free = append(s.free, p)
	s.inDevice--
	s.outstanding--
	done()
	s.dispatch()
}

// Deadline models Linux's deadline I/O scheduler: requests are kept in a
// sector-sorted list and dispatched in elevator batches, but each
// request also carries an expiry; when the head of a FIFO is past its
// deadline, the scheduler jumps there, bounding starvation. Unlike CFQ
// it has no per-thread fairness or anticipation, so it never idles the
// device — sync readers pay no slice or idling costs.
type Deadline struct {
	k   *sim.Kernel
	dev storage.Device
	p   DeadlineParams

	sorted      []*dlPending // by LBA
	fifo        []*dlPending // by arrival
	inBatch     int
	lastLBA     int64
	outstanding int
	inDevice    int
	free        []*dlPending // idle request records
}

// NewDeadline returns a deadline scheduler for dev bound to k.
func NewDeadline(k *sim.Kernel, dev storage.Device, p DeadlineParams) *Deadline {
	if p.ReadExpire <= 0 {
		p.ReadExpire = DefaultDeadline().ReadExpire
	}
	if p.WriteExpire <= 0 {
		p.WriteExpire = DefaultDeadline().WriteExpire
	}
	if p.Batch <= 0 {
		p.Batch = DefaultDeadline().Batch
	}
	return &Deadline{k: k, dev: dev, p: p}
}

// Name implements Scheduler.
func (s *Deadline) Name() string { return "deadline" }

// Outstanding implements Scheduler.
func (s *Deadline) Outstanding() int { return s.outstanding }

// InFlight implements Scheduler.
func (s *Deadline) InFlight() int { return s.inDevice }

// Submit implements Scheduler.
func (s *Deadline) Submit(r *storage.Request, done func()) {
	s.outstanding++
	exp := s.p.ReadExpire
	if r.Kind == storage.Write {
		exp = s.p.WriteExpire
	}
	var p *dlPending
	if n := len(s.free); n > 0 {
		p, s.free = s.free[n-1], s.free[:n-1]
	} else {
		p = &dlPending{s: s}
		p.fire = p.complete
	}
	p.r, p.done, p.deadline = r, done, s.k.Now()+exp
	idx := sort.Search(len(s.sorted), func(i int) bool { return s.sorted[i].r.LBA >= r.LBA })
	s.sorted = append(s.sorted, nil)
	copy(s.sorted[idx+1:], s.sorted[idx:])
	s.sorted[idx] = p
	s.fifo = append(s.fifo, p)
	s.dispatch()
}

// dispatch forwards requests within the device's queue budget.
func (s *Deadline) dispatch() {
	budget := s.dev.QueueDepth()
	if budget < 1 {
		budget = 1
	}
	for s.inDevice < budget && len(s.sorted) > 0 {
		var pick *dlPending
		// Deadlines are only consulted between batches (fifo_batch):
		// within a batch the elevator runs uninterrupted.
		if s.inBatch == 0 && len(s.fifo) > 0 && s.k.Now() >= s.fifo[0].deadline {
			// Expired: jump to the FIFO head and start a fresh batch
			// from its position.
			pick = s.fifo[0]
			s.inBatch = 1
		} else {
			// Elevator: next request at or after the last dispatched LBA,
			// wrapping to the lowest.
			idx := sort.Search(len(s.sorted), func(i int) bool { return s.sorted[i].r.LBA >= s.lastLBA })
			if idx == len(s.sorted) {
				idx = 0
			}
			pick = s.sorted[idx]
			s.inBatch++
			if s.inBatch >= s.p.Batch {
				s.inBatch = 0
			}
		}
		s.remove(pick)
		s.lastLBA = pick.r.End()
		s.inDevice++
		s.dev.Submit(pick.r, pick.fire)
	}
}

// remove deletes p from both queues.
func (s *Deadline) remove(p *dlPending) {
	for i, q := range s.sorted {
		if q == p {
			s.sorted = append(s.sorted[:i], s.sorted[i+1:]...)
			break
		}
	}
	for i, q := range s.fifo {
		if q == p {
			s.fifo = append(s.fifo[:i], s.fifo[i+1:]...)
			break
		}
	}
}
