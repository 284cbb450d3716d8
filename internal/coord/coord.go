// Package coord synchronizes the virtual clocks of co-replaying
// simulation kernels: the clock-exchange coordinator of a sharded
// replay. A Cluster is a monitor — one mutex, one condition variable
// per member, every field a plain value guarded by that mutex — over N
// members joined by cross edges, each published once by its source
// member and awaited by a thread of its destination member.
//
// The safety rule is conservative: a member may advance its clock to T
// only while every source it still has unpublished inbound edges from
// has a clock strictly past T, so no publication with a wake at or
// before T can still arrive. Around that rule:
//
//   - Publications buffer in the publishing member's handle and are
//     applied when its pacer next runs. Buffering is sound because a
//     member's clock rises only through its pacer, which flushes first:
//     a peer allowed past T cannot have missed a publication at or
//     before T. In every quiescent state all buffers are empty.
//   - Wakes for parked awaiters are queued per member, ordered by
//     (time, edge), and scheduled into the member's kernel only by that
//     member's own pacer, so their place in its event order depends on
//     virtual times alone, never on which host thread got there first.
//   - When every member is blocked — a state that is a function of the
//     virtual execution — the smallest (target, member) is granted one
//     advance, which resolves the zero-lookahead cycles program-order
//     chains create. No member blocked and none runnable is a deadlock.
//
// The package depends on internal/sim and the standard library only.
package coord

import (
	"math"
	"sync"
	"time"

	"rootreplay/internal/sim"
)

// Edge is one cross edge: ID is the caller's name for it (unique within
// the cluster; Publish and Await take it, and it breaks ties between
// same-instant wakes), Src and Dst are member indices.
type Edge struct {
	ID       int32
	Src, Dst int
}

// Stats is a cluster's accounting. EdgeWaitNs, EdgePublished and
// Advances are functions of the virtual execution, identical across
// hosts and GOMAXPROCS; the rest depends on host timing and is for
// humans only.
type Stats struct {
	// EdgeWaitNs and EdgePublished are indexed like New's edges: the
	// virtual time the awaiting thread waited on each edge, max(0, v -
	// now), and whether the edge was published.
	EdgeWaitNs    []int64
	EdgePublished []bool
	// FlushBatches counts non-empty publication flushes, FlushMaxBatch
	// the largest.
	FlushBatches  int64
	FlushMaxBatch int
	// Advances counts pacer calls, Parks those that waited on their
	// condition variable, Grants the quiescent grants (which member gets
	// one is deterministic; a member whose gate a peer's flush opened in
	// the same critical section may get one it did not need).
	Advances, Parks, Grants int64
	// BlockedNs is the host time pacers spent parked.
	BlockedNs int64
}

const (
	// inf is the "no constraint" time; unpublished marks an edge whose
	// satisfaction time is not known yet.
	inf         = time.Duration(math.MaxInt64)
	unpublished = time.Duration(-1)
)

type memberState uint8

const (
	running memberState = iota
	blocked
	done
)

// edge is an Edge's destination and its source's slot in the
// destination's srcs (and unpub) list.
type edge struct {
	dst, slot int
}

// waiter is one thread parked in Await. fired is written by the
// scheduled wake and read by the thread after it resumes, both in the
// waiter's own kernel.
type waiter struct {
	th    *sim.Thread
	m     int
	tPark time.Duration
	fired bool
}

// wake is a pending unpark of w.th at virtual time at.
type wake struct {
	at   time.Duration
	edge int32
	w    *waiter
}

type pub struct {
	edge int32
	at   time.Duration
}

// Cluster is the monitor. Everything below mu is guarded by it.
type Cluster struct {
	// dense maps Edge.ID to the edge's index; read-only after New.
	dense map[int32]int

	mu sync.Mutex
	// conds[m] parks member m's pacer. Wakes are targeted: a clock
	// advance signals the members whose gate reads that clock, a
	// publication its destination, a grant its recipient.
	conds []*sync.Cond

	// Per member: the latest advance target reached; the state; while
	// blocked, the target it waits for; a one-shot quiescent grant; the
	// number of its threads parked in Await; its pending wakes sorted by
	// (at, edge).
	clock   []time.Duration
	state   []memberState
	target  []time.Duration
	granted []bool
	parked  []int
	wakes   [][]wake
	// srcs[m] lists the distinct sources of m's inbound edges, ascending;
	// unpub[m] the count of still-unpublished edges per source, so the
	// gate is O(sources) however many edges join two members; dsts
	// inverts srcs. blockedNs[m] is host time parked per gating source,
	// with one more slot for waits without a finite target.
	srcs      [][]int
	dsts      [][]int
	unpub     [][]int
	blockedNs [][]int64

	// Per edge: its ends, its satisfaction time, the thread parked on it,
	// the virtual time that thread waited.
	edges   []edge
	pubAt   []time.Duration
	waiters []*waiter
	waitNs  []int64

	dead, deadlocked        bool
	flushBatches            int64
	flushMax                int
	advances, parks, grants int64
}

// New builds the coordinator of a cluster of the given size. Edges join
// distinct members; Stats reports per edge in the order given here.
func New(members int, edges []Edge) *Cluster {
	c := &Cluster{
		dense:     make(map[int32]int, len(edges)),
		conds:     make([]*sync.Cond, members),
		clock:     make([]time.Duration, members),
		state:     make([]memberState, members),
		target:    make([]time.Duration, members),
		granted:   make([]bool, members),
		parked:    make([]int, members),
		wakes:     make([][]wake, members),
		srcs:      make([][]int, members),
		dsts:      make([][]int, members),
		unpub:     make([][]int, members),
		blockedNs: make([][]int64, members),
		edges:     make([]edge, len(edges)),
		pubAt:     make([]time.Duration, len(edges)),
		waiters:   make([]*waiter, len(edges)),
		waitNs:    make([]int64, len(edges)),
	}
	for m := range c.conds {
		c.conds[m] = sync.NewCond(&c.mu)
	}
	isSrc := make([][]bool, members)
	for _, e := range edges {
		if isSrc[e.Dst] == nil {
			isSrc[e.Dst] = make([]bool, members)
		}
		isSrc[e.Dst][e.Src] = true
	}
	slotOf := make([][]int, members)
	for m, from := range isSrc {
		slotOf[m] = make([]int, len(from))
		for src, ok := range from {
			if ok {
				slotOf[m][src] = len(c.srcs[m])
				c.srcs[m] = append(c.srcs[m], src)
				c.dsts[src] = append(c.dsts[src], m)
			}
		}
		c.unpub[m] = make([]int, len(c.srcs[m]))
		c.blockedNs[m] = make([]int64, len(c.srcs[m])+1)
	}
	for i, e := range edges {
		slot := slotOf[e.Dst][e.Src]
		c.dense[e.ID] = i
		c.edges[i] = edge{dst: e.Dst, slot: slot}
		c.pubAt[i] = unpublished
		c.unpub[e.Dst][slot]++
	}
	return c
}

// Member is one member's handle, used from that member's kernel
// goroutine only. It is the kernel's sim.Pacer.
type Member struct {
	c *Cluster
	m int
	k *sim.Kernel
	// pending buffers Publish calls until the next Advance or Done.
	pending []pub
}

// Member returns the handle of member m, whose simulation runs on k,
// and installs it as k's pacer.
func (c *Cluster) Member(m int, k *sim.Kernel) *Member {
	h := &Member{c: c, m: m, k: k}
	k.SetPacer(h)
	return h
}

// Publish records that edge is satisfied at virtual time at. Peers see
// it at this member's next Advance or Done.
func (h *Member) Publish(edge int32, at time.Duration) {
	h.pending = append(h.pending, pub{edge: edge, at: at})
}

// Advance is the pacer gate (sim.Pacer): it flushes the member's
// publications, then blocks until the member may move its clock to
// next, or — for sim.PacerIdle — until a wake for one of its parked
// threads can be scheduled.
func (h *Member) Advance(next time.Duration) bool {
	c, m := h.c, h.m
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advances++
	c.flush(h)
	parked := false
	for {
		if c.dead {
			h.k.Stop()
			return true
		}
		target := inf
		if next != sim.PacerIdle {
			target = next
		}
		if q := c.wakes[m]; len(q) > 0 && q[0].at < target {
			target = q[0].at
		}
		// slot attributes a park to the source gating it; the last slot
		// collects waits that have no finite target.
		slot := len(c.srcs[m])
		if target == inf {
			if c.parked[m] == 0 {
				// No events, no thread in Await: a local deadlock, which
				// the kernel reports.
				return false
			}
		} else if slot = c.gate(m, target); slot < 0 || c.granted[m] {
			injected := c.scheduleWakes(h, target)
			c.granted[m] = false
			if target > c.clock[m] {
				c.clock[m] = target
				c.wakeDeps(m)
			}
			return next == sim.PacerIdle || injected || target < next
		}
		c.state[m] = blocked
		c.target[m] = target
		c.checkStall()
		// checkStall may have granted this very member or declared the
		// cluster dead; its signal fired before this member could wait.
		if !c.granted[m] && !c.dead {
			if !parked {
				parked = true
				c.parks++
			}
			t0 := time.Now()
			c.conds[m].Wait()
			c.blockedNs[m][slot] += time.Since(t0).Nanoseconds()
		}
		c.state[m] = running
	}
}

// scheduleWakes moves member h's wakes due at or before target into its
// kernel and reports whether there were any. The queue's tail is copied
// down and the vacated slots cleared, so its memory follows the pending
// wakes, not the delivered ones.
func (c *Cluster) scheduleWakes(h *Member, target time.Duration) bool {
	q := c.wakes[h.m]
	n := 0
	for ; n < len(q) && q[n].at <= target; n++ {
		w := q[n].w
		h.k.At(q[n].at, func() {
			w.fired = true
			h.k.Unpark(w.th)
		})
	}
	if n > 0 {
		rest := copy(q, q[n:])
		clear(q[rest:])
		c.wakes[h.m] = q[:rest]
	}
	return n > 0
}

// gate returns the slot in srcs[m] of the first source that keeps
// member m from advancing to target — one with an unpublished edge into
// m and a clock not strictly past target — or -1 when none does. A
// finished source never gates: it will not publish, so a thread parked
// on it is a deadlock, which the idle path finds.
func (c *Cluster) gate(m int, target time.Duration) int {
	for k, src := range c.srcs[m] {
		if c.unpub[m][k] > 0 && c.state[src] != done && c.clock[src] <= target {
			return k
		}
	}
	return -1
}

// wakeDeps signals the blocked members whose gate reads m's clock.
func (c *Cluster) wakeDeps(m int) {
	for _, d := range c.dsts[m] {
		if c.state[d] == blocked {
			c.conds[d].Signal()
		}
	}
}

func (c *Cluster) wakeAll() {
	for _, cv := range c.conds {
		cv.Signal()
	}
}

// flush applies h's buffered publications.
func (c *Cluster) flush(h *Member) {
	if len(h.pending) == 0 {
		return
	}
	c.flushBatches++
	if len(h.pending) > c.flushMax {
		c.flushMax = len(h.pending)
	}
	for _, p := range h.pending {
		i := c.dense[p.edge]
		if c.pubAt[i] != unpublished {
			continue // an edge publishes exactly once
		}
		c.pubAt[i] = p.at
		e := c.edges[i]
		c.unpub[e.dst][e.slot]--
		if w := c.waiters[i]; w != nil {
			c.waiters[i] = nil
			c.addWake(max(p.at, w.tPark), p.edge, w)
		}
		// Only the destination can be re-qualified: its gate loosened and
		// a wake may now bound its target.
		if c.state[e.dst] == blocked {
			c.conds[e.dst].Signal()
		}
	}
	h.pending = h.pending[:0]
}

// checkStall runs whenever a member blocks or finishes. If the cluster
// is quiescent it grants the smallest (target, member) one advance, or —
// no member having a finite target — declares a deadlock. Quiescent
// states are functions of the virtual execution alone, so who is granted
// is too.
func (c *Cluster) checkStall() {
	if c.dead {
		return // members leaving an aborted cluster are not a deadlock
	}
	best, allDone := -1, true
	var bestT time.Duration
	for m, st := range c.state {
		if st == running {
			return
		}
		if st == done {
			continue
		}
		allDone = false
		// The recorded target may be stale: a flush can queue a wake for
		// a member that has not re-evaluated yet. Folding it in makes the
		// decision the same whether or not that member has woken.
		t := c.target[m]
		if q := c.wakes[m]; len(q) > 0 && q[0].at < t {
			t = q[0].at
		}
		if t < inf && (best < 0 || t < bestT) {
			best, bestT = m, t
		}
	}
	switch {
	case allDone:
	case best < 0:
		c.dead, c.deadlocked = true, true
		c.wakeAll()
	case !c.granted[best]:
		c.granted[best] = true
		c.grants++
		c.conds[best].Signal()
	}
}

// addWake queues a wake for w's member, keeping the queue sorted by
// (at, edge).
func (c *Cluster) addWake(at time.Duration, edge int32, w *waiter) {
	q := append(c.wakes[w.m], wake{})
	i := len(q) - 1
	for ; i > 0 && (q[i-1].at > at || (q[i-1].at == at && q[i-1].edge > edge)); i-- {
		q[i] = q[i-1]
	}
	q[i] = wake{at: at, edge: edge, w: w}
	c.wakes[w.m] = q
}

// Await blocks thread t of this member until edge is published and the
// member's clock has reached its satisfaction time v, and returns v and
// the virtual time waited, max(0, v - now). The thread resumes at max(v,
// now) whether the edge was already published in the member's future
// (wake queued here) or not yet (wake queued by the publisher's flush),
// so the measurement does not depend on which happened.
func (h *Member) Await(t *sim.Thread, edge int32, reason func() string) (v, waited time.Duration) {
	c := h.c
	i := c.dense[edge]
	now := h.k.Now()
	c.mu.Lock()
	if v = c.pubAt[i]; v != unpublished && v <= now {
		c.mu.Unlock()
		return v, 0
	}
	w := &waiter{th: t, m: h.m, tPark: now}
	if v != unpublished {
		c.addWake(v, edge, w)
	} else {
		c.waiters[i] = w
	}
	c.parked[h.m]++
	c.mu.Unlock()
	for !w.fired {
		t.ParkFn(reason)
	}
	c.mu.Lock()
	c.parked[h.m]--
	if v = c.pubAt[i]; v > now {
		waited = v - now
		c.waitNs[i] += int64(waited)
	}
	c.mu.Unlock()
	return v, waited
}

// Done flushes the member's last publications and marks it finished: its
// clock no longer constrains anyone.
func (h *Member) Done() {
	c := h.c
	c.mu.Lock()
	c.flush(h)
	c.state[h.m] = done
	c.clock[h.m] = inf
	c.checkStall()
	c.wakeDeps(h.m)
	c.mu.Unlock()
}

// Abort kills the cluster after a member failure: every pacer, parked or
// at its next Advance, stops its kernel.
func (c *Cluster) Abort() {
	c.mu.Lock()
	if !c.dead {
		c.dead = true
		c.wakeAll()
	}
	c.mu.Unlock()
}

// Deadlocked reports whether the cluster died because every unfinished
// member was blocked with nothing to wait for.
func (c *Cluster) Deadlocked() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deadlocked
}

// Stats returns the cluster's accounting so far.
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		EdgeWaitNs:    append([]int64(nil), c.waitNs...),
		EdgePublished: make([]bool, len(c.edges)),
		FlushBatches:  c.flushBatches,
		FlushMaxBatch: c.flushMax,
		Advances:      c.advances,
		Parks:         c.parks,
		Grants:        c.grants,
	}
	for i, at := range c.pubAt {
		st.EdgePublished[i] = at != unpublished
	}
	for _, per := range c.blockedNs {
		for _, ns := range per {
			st.BlockedNs += ns
		}
	}
	return st
}
