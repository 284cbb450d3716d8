package artc

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rootreplay/internal/core"
	"rootreplay/internal/fault"
	"rootreplay/internal/obs"
	"rootreplay/internal/par"
	"rootreplay/internal/shard"
	"rootreplay/internal/sim"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
)

// ShardOptions configure a sharded replay. Unlike Replay, ReplaySharded
// owns system construction: every component replays on its own
// kernel/scheduler/storage replica, so the caller describes the target
// once and the replayer instantiates it per component.
type ShardOptions struct {
	// Shards bounds the number of component clusters replayed
	// concurrently (the host worker pool). Zero selects GOMAXPROCS. It
	// does not affect replay output: partitioning is a property of the
	// graph, and every component advances its own virtual clock
	// regardless of how many host workers drive them.
	Shards int
	// Target is the system configuration each component replica is built
	// from (Faults is overridden per replica; see Fault).
	Target stack.Config
	// Init initializes one component's replica system — typically
	// artc.Init to restore the benchmark snapshot, plus any target
	// warm-up. It runs once per component, so it must be safe to call
	// concurrently against distinct systems.
	Init func(sys *stack.System) error
	// Fault, when non-nil, gives every component replica its own
	// injector built from this plan, so chaos replay stays
	// bit-reproducible: decision streams are keyed by global action
	// index and per-replica device state, independent of shard count.
	// Options.Fault must be nil for a sharded replay.
	Fault *fault.Plan
	// SliceActions enables resource-cut slicing: components larger than
	// this many actions are split along resource-series cuts
	// (internal/shard.Slice) and the slices co-replay under the
	// clock-exchange coordinator, with synthetic program-order edges
	// restoring the traced threads' sequential order across cuts. Zero
	// keeps components whole (the PR 6 behavior). Like Shards, the
	// value changes the partition — and so which spans carry which
	// slice-internal tie-breaks — but never the merged report.
	SliceActions int
	// SliceMax caps the slices per component (0 = no cap).
	SliceMax int
	// SliceDeviceSync lets slicing cut components containing fsync-family
	// calls (shard.SliceOptions.AllowDeviceSync). The merged report stays
	// deterministic but reflects per-slice device queues, so it is no
	// longer byte-identical to serial Replay; perf measurements opt in,
	// differential tests must not.
	SliceDeviceSync bool
	// SliceProfile, when non-nil, feeds a prior replay's observed
	// per-atom-pair wait/traffic weights into the slicer
	// (shard.SliceOptions.Profile): the cut is re-run with observed
	// cross-edge wait cost in place of the static structural proxy. The
	// plan — and therefore the replay — stays a pure function of
	// (trace, options, profile).
	SliceProfile *shard.SliceProfile
}

// ShardStats summarizes the partition a sharded replay executed.
type ShardStats struct {
	// Components is the number of replica-isolated partitions; Clusters
	// the number of independent work units after grouping components
	// connected by cross edges.
	Components int
	Clusters   int
	// CrossEdges counts dependency edges enforced by clock-exchange
	// barriers rather than a shared kernel.
	CrossEdges int
	// Largest is the action count of the biggest component.
	Largest int
	// Shards is the resolved worker bound.
	Shards int
	// Sliced counts components split by resource-cut slicing;
	// Synthetic the program-order edges the splits created.
	Sliced    int
	Synthetic int
	// Profiled reports whether the plan was cut from a slice profile;
	// PlanFingerprint identifies the executed partition (component
	// membership + cross edges), so callers can tell a profiled re-cut
	// actually moved the cut.
	Profiled        bool
	PlanFingerprint uint64
	// Profile is the slice profile built from this replay's coordinator
	// measurements — per-atom virtual cost and per-atom-pair cross-edge
	// wait/traffic — nil when the plan was not sliced. Feeding it back
	// through ShardOptions.SliceProfile re-cuts adaptively.
	Profile *shard.SliceProfile
}

// CoordStats aggregates the clock-exchange coordinator's accounting
// across a sharded replay's clusters. The virtual quantities (cross
// wait, publishes) are deterministic; BlockedNs is host wall time and
// is reported for humans only — it never feeds the profile.
type CoordStats struct {
	// EdgeWaitNs and EdgePublished are indexed by the plan's cross-edge
	// list: virtual nanoseconds the destination action waited on each
	// edge, and whether the edge published (0 or 1).
	EdgeWaitNs    []int64
	EdgePublished []int64
	// CrossWaitNs sums EdgeWaitNs; Published sums EdgePublished.
	CrossWaitNs int64
	Published   int64
	// FlushBatches counts non-empty epoch publication flushes;
	// FlushMaxBatch is the largest single flush.
	FlushBatches  int64
	FlushMaxBatch int
	// BlockedNs is host wall time member pacers spent parked waiting for
	// peer clocks, attributed per gating source internally.
	BlockedNs int64
}

// infDur is the coordinator's "no constraint" time.
const infDur = time.Duration(math.MaxInt64)

// subState is a replayState's view of its place in a sharded replay:
// index translations back to the whole trace plus the cross-edge
// barrier wiring.
type subState struct {
	comp int32
	// orig is the pre-slicing component index — what spans report as
	// their shard, so a sliced single-component trace still attributes
	// everything to component 0, like the serial replayer.
	orig   int32
	member int // cluster-local index, meaningful when coord != nil
	// global maps local action indices to trace indices; edgeGlobal maps
	// local graph edges to full-graph edges.
	global     []int32
	edgeGlobal []int32
	full       *core.Graph
	plan       *shard.Plan
	// crossIn/crossOut hold, per local action, the inbound/outbound
	// cross-component edges (full-graph indices, ascending; crossOut
	// may also carry synthetic thread-adjacency edges, ids >=
	// plan.EdgeBase).
	crossIn  [][]int32
	crossOut [][]int32
	// threadPrevIn[i] is the synthetic program-order edge action i must
	// await before anything else (-1 none; nil when the plan is
	// unsliced): its traced thread's previous action completing on
	// another slice.
	threadPrevIn []int32
	// crossWaitEdge[i] is the cross edge action i is currently parked
	// on, -1 otherwise (stall reports read it).
	crossWaitEdge []int32
	// crossRelAt/crossRelEdge track the latest-satisfied inbound cross
	// edge per action — the cross candidate for a span's ReleasedBy
	// (allocated only when observability is on).
	crossRelAt   []time.Duration
	crossRelEdge []int32
	coord        *clusterCoord
	// pendingPub buffers this member's outbound publications between
	// epochs; the pacer flushes it under one lock acquisition per clock
	// advance. pubLocal mirrors published edges (dense cluster ids)
	// delivered to this member, giving await a lock-free fast path;
	// both are touched only from the member's own kernel goroutine.
	pendingPub []pubRec
	pubLocal   []time.Duration
	// crossWaitNs accumulates the member's virtual cross-edge wait time
	// (written and read only on the member's kernel goroutine; the obs
	// CounterCrossWait probe samples it from the same goroutine).
	crossWaitNs int64
}

// edgeKindOf returns a cross edge's kind; synthetic thread-adjacency
// edges behave as WaitComplete (the successor waits for the
// predecessor's completion).
func (s *subState) edgeKindOf(ge int32) core.EdgeKind {
	if int(ge) < len(s.full.Edges) {
		return s.full.Edges[ge].Kind
	}
	return core.WaitComplete
}

// waitCross blocks action idx on its inbound cross-component edges, in
// ascending full-graph edge order. Called after the local dependency
// counter drains and before predelay, so the issue time is the fixed
// point of local and cross constraints, exactly as under one kernel.
func (s *subState) waitCross(rs *replayState, t *sim.Thread, idx int) {
	ins := s.crossIn[idx]
	if len(ins) == 0 {
		return
	}
	k := rs.sys.K
	for _, ge := range ins {
		s.crossWaitEdge[idx] = ge
		v, waited := s.coord.await(t, k, s.member, ge, s.pubLocal, func() string { return s.crossReason(idx) })
		s.crossWaitNs += int64(waited)
		if s.crossRelEdge != nil {
			if best := s.crossRelEdge[idx]; best < 0 || v > s.crossRelAt[idx] {
				s.crossRelAt[idx] = v
				s.crossRelEdge[idx] = ge
			}
		}
	}
	s.crossWaitEdge[idx] = -1
}

// waitThreadPrev blocks action idx until its traced thread's previous
// action — replayed on another slice — completes, restoring the
// program order the serial replayer enforces structurally by running
// each traced thread on one replay thread. It runs before the span's
// wait-start sample: the wake lands exactly at the predecessor's
// completion time, which is when the serial thread would have arrived
// here, so sliced spans open their wait window at the serial instant.
// Synthetic edges never enter ReleasedBy attribution — the serial
// graph has no such edge to attribute.
func (s *subState) waitThreadPrev(rs *replayState, t *sim.Thread, idx int) {
	if s.threadPrevIn == nil {
		return
	}
	ge := s.threadPrevIn[idx]
	if ge < 0 {
		return
	}
	s.crossWaitEdge[idx] = ge
	_, waited := s.coord.await(t, rs.sys.K, s.member, ge, s.pubLocal, func() string { return s.crossReason(idx) })
	s.crossWaitNs += int64(waited)
	s.crossWaitEdge[idx] = -1
}

// publishCross buffers action idx's outbound cross edges of the given
// kind, satisfied at virtual time at, for the member's next epoch
// flush. Buffering is safe because the member's clock only moves
// through the pacer, which flushes first: no peer can be granted an
// advance that should have seen a still-buffered publication.
func (s *subState) publishCross(idx int, kind core.EdgeKind, at time.Duration) {
	for _, ge := range s.crossOut[idx] {
		if s.edgeKindOf(ge) == kind {
			s.pendingPub = append(s.pendingPub, pubRec{edge: ge, v: at})
		}
	}
}

// fillReleasedBy picks the span's releasing edge among the local
// released edge and the satisfied cross edges: latest satisfaction
// time, ties to the higher full-graph edge index. With no cross edges
// (every single-component replay) this reduces to the serial rule.
func (s *subState) fillReleasedBy(rs *replayState, idx int, sp *obs.Span) {
	bestEdge := int32(-1)
	var bestAt time.Duration
	if re := rs.releasedEdge[idx]; re >= 0 {
		bestEdge = s.edgeGlobal[re]
		bestAt = rs.releasedAt[idx]
	}
	if s.crossRelEdge != nil {
		if ce := s.crossRelEdge[idx]; ce >= 0 {
			if at := s.crossRelAt[idx]; bestEdge < 0 || at > bestAt || (at == bestAt && ce > bestEdge) {
				bestEdge, bestAt = ce, at
			}
		}
	}
	if bestEdge < 0 {
		return
	}
	e := &s.full.Edges[bestEdge]
	sp.ReleasedBy = int32(e.From)
	sp.ReleasedAt = bestAt
	if e.Res != (core.ResourceID{}) {
		sp.ReleaseRes = e.Res.String()
	}
}

// crossReason renders a cross-barrier wait for park and stall reports:
// the peer shard and edge, not a spurious local deadlock.
func (s *subState) crossReason(idx int) string {
	ge := s.crossWaitEdge[idx]
	if ge < 0 {
		return fmt.Sprintf("action %d: cross-shard barrier", s.global[idx])
	}
	if int(ge) >= len(s.full.Edges) {
		te := s.plan.ThreadCross[ge-s.plan.EdgeBase]
		return fmt.Sprintf("action %d: program-order barrier, awaiting action %d (slice %d)",
			s.global[idx], te.From, s.plan.CompOf[te.From])
	}
	e := &s.full.Edges[ge]
	return fmt.Sprintf("action %d: cross-shard barrier on edge %d, awaiting action %d (shard %d)",
		s.global[idx], ge, e.From, s.plan.CompOf[e.From])
}

// Coordinator member states.
const (
	memberRunning = iota
	memberBlocked
	memberDone
)

// crossWaiter is one thread parked on a cross edge. fired is written in
// the waiter's own kernel context by the injected wake and read by the
// thread after it resumes; the kernel's park/resume handoff orders the
// two.
type crossWaiter struct {
	th    *sim.Thread
	m     int
	tPark time.Duration
	fired bool
}

// injection is a pending wake for a member's kernel: unpark w.th at
// virtual time at. Injections are delivered only by the member's own
// pacer during a clock advance, never directly from the publishing
// shard, so their position in the member's event order depends only on
// virtual times — not on which host thread got there first.
type injection struct {
	at   time.Duration
	edge int32
	w    *crossWaiter
}

// pubRec is one buffered outbound publication: a cross edge satisfied
// at virtual time v, awaiting the owning member's next epoch flush.
type pubRec struct {
	edge int32
	v    time.Duration
}

// delivery carries a flushed publication into a destination member's
// lock-free mirror (drained under the lock inside that member's own
// advance).
type delivery struct {
	dense int32
	v     time.Duration
}

// coordEdge is one cross edge in cluster-dense form: source and
// destination members plus the edge's slot in the destination's
// per-source unpublished counts.
type coordEdge struct {
	src, dst int32
	slot     int32
}

// unpubbed marks a dense edge (or mirror entry) not yet published.
const unpubbed = time.Duration(-1)

// clusterCoord synchronizes the virtual clocks of one cluster's
// components with a batched, epoch-based exchange. The safety rule is
// conservative and unchanged from the per-edge protocol: a member may
// advance its clock to T only if, for every source it still has
// unpublished inbound edges from, the source member's clock is
// strictly past T (so no publication with a wake at or before T can
// still arrive). What the epochs batch is everything around that rule:
//
//   - Publications buffer lock-free in the publishing member
//     (subState.pendingPub) and flush under one lock acquisition when
//     its pacer next runs — one exchange per clock advance. Buffering
//     is sound because a member's clock only rises through the pacer,
//     which flushes first; a peer granted an advance past T therefore
//     cannot have missed a publication at or before T. At every
//     quiescent window all buffers are empty, so grant decisions
//     remain pure functions of the virtual execution.
//   - The advance gate aggregates inbound edges into per-source
//     unpublished counts: the check is O(sources), not O(edges), and
//     a thousand program-order edges between two slices cost exactly
//     one comparison.
//   - Flushed publications are delivered to each destination's dense
//     mirror, giving await a lock-free fast path for edges already
//     satisfied in the member's past — the common case when slices
//     stream through pre-sorted inbound schedules.
//
// When every member is blocked — the deterministic quiescent state —
// the member with the smallest (target, member) pair is granted one
// advance, which resolves the zero-lookahead cycles program-order
// chains create without giving up determinism; the grant's broadcast
// re-qualifies every member whose gate it opened, so one grant
// typically releases a frontier, not a single edge.
type clusterCoord struct {
	mu sync.Mutex
	// conds[m] parks member m's pacer; wakes are targeted at the
	// members an event can re-qualify (the destinations of a clock
	// advance, a grant's recipient) instead of broadcast to the whole
	// cluster — in a lockstepped slice chain, a broadcast wakes every
	// member per batch and the spurious wake-ups dominate coordination
	// cost on few-core hosts.
	conds []*sync.Cond

	// clock[m] is member m's latest granted advance target; state and
	// target describe blocked members; granted marks one-shot stall
	// grants; parked counts m's threads parked on cross edges.
	//
	// clock, state, unpub, injN, and dead are atomics so the advance
	// fast path can read them without the lock: each clock slot is
	// written only by its owning member, and the rest are written under
	// mu but read lock-free.
	clock   []atomic.Int64
	state   []atomic.Int32
	target  []time.Duration
	granted []bool
	parked  []int

	// inLock counts members inside the locked advance section
	// (including cond.Wait). A fast-path clock store pairs a sequential
	// load of inLock with the waiter's increment-before-recheck, so a
	// member can never park against a clock value it hasn't seen — the
	// classic store/load handshake that makes skipping the broadcast
	// safe.
	inLock atomic.Int32

	// Dense cluster-local edge ids. denseOf is read-only after
	// construction, so members may consult it without the lock.
	denseOf map[int32]int32
	edges   []coordEdge
	pub     []time.Duration // dense id -> satisfaction time, unpubbed if not yet
	waiters []*crossWaiter  // dense id -> parked thread, nil if none

	// Per-member inbound summary: distinct source members (ascending)
	// and, aligned with them, the count of still-unpublished inbound
	// edges per source. dstsOf inverts srcsOf: the members whose advance
	// gate reads m's clock, the wake set of m's clock advances.
	srcsOf [][]int32
	dstsOf [][]int32
	unpub  [][]atomic.Int32

	// deliver queues flushed publications for each member's mirror;
	// inj the pending wakes per member, sorted by (at, edge); injN
	// mirrors len(inj[m]) for lock-free emptiness checks.
	deliver [][]delivery
	inj     [][]injection
	injN    []atomic.Int32

	// dead aborts the cluster (peer failure or cross deadlock);
	// deadlocked distinguishes the latter for error reporting.
	dead       atomic.Bool
	deadlocked bool

	// Wait profiling. edgeID maps each dense edge back to its index in
	// the plan's Cross list; waitNs accumulates, per dense edge, the
	// virtual time its destination action waited (written under mu in
	// await's post-park section — a pure function of the virtual
	// execution, identical across hosts and GOMAXPROCS). flushBatches /
	// flushMax count non-empty epoch flushes. blockedNs records host
	// wall time each member's pacer spent parked, attributed to the
	// inbound source whose clock gated the advance (aligned with
	// srcsOf; slot len(srcsOf[m]) collects unattributed waits) — host
	// timing feeds human reports only, never the profile.
	edgeID       []int32
	waitNs       []int64
	flushBatches int64
	flushMax     int
	blockedNs    [][]int64
}

func newClusterCoord(plan *shard.Plan, cluster []int32) *clusterCoord {
	n := len(cluster)
	c := &clusterCoord{
		clock:     make([]atomic.Int64, n),
		state:     make([]atomic.Int32, n),
		target:    make([]time.Duration, n),
		granted:   make([]bool, n),
		parked:    make([]int, n),
		denseOf:   make(map[int32]int32),
		srcsOf:    make([][]int32, n),
		dstsOf:    make([][]int32, n),
		unpub:     make([][]atomic.Int32, n),
		deliver:   make([][]delivery, n),
		inj:       make([][]injection, n),
		injN:      make([]atomic.Int32, n),
		blockedNs: make([][]int64, n),
	}
	c.conds = make([]*sync.Cond, n)
	for m := range c.conds {
		c.conds[m] = sync.NewCond(&c.mu)
	}
	memberOf := make(map[int32]int32, n)
	for m, comp := range cluster {
		memberOf[comp] = int32(m)
	}
	// First pass: the distinct sources of each member, ascending.
	seen := make([]map[int32]bool, n)
	for _, ce := range plan.Cross {
		dst, ok := memberOf[ce.To]
		if !ok {
			continue
		}
		src := memberOf[ce.From]
		if seen[dst] == nil {
			seen[dst] = make(map[int32]bool)
		}
		if !seen[dst][src] {
			seen[dst][src] = true
			c.srcsOf[dst] = append(c.srcsOf[dst], src)
		}
	}
	slotOf := make([]map[int32]int32, n)
	for m := 0; m < n; m++ {
		sort.Slice(c.srcsOf[m], func(i, j int) bool { return c.srcsOf[m][i] < c.srcsOf[m][j] })
		c.unpub[m] = make([]atomic.Int32, len(c.srcsOf[m]))
		c.blockedNs[m] = make([]int64, len(c.srcsOf[m])+1)
		slotOf[m] = make(map[int32]int32, len(c.srcsOf[m]))
		for k, src := range c.srcsOf[m] {
			slotOf[m][src] = int32(k)
			c.dstsOf[src] = append(c.dstsOf[src], int32(m))
		}
	}
	// Second pass: dense ids in plan order (ascending edge id).
	for ci, ce := range plan.Cross {
		dst, ok := memberOf[ce.To]
		if !ok {
			continue
		}
		src := memberOf[ce.From]
		slot := slotOf[dst][src]
		c.denseOf[ce.Edge] = int32(len(c.edges))
		c.edges = append(c.edges, coordEdge{src: src, dst: dst, slot: slot})
		c.edgeID = append(c.edgeID, int32(ci))
		c.pub = append(c.pub, unpubbed)
		c.waiters = append(c.waiters, nil)
		c.unpub[dst][slot].Add(1)
	}
	c.waitNs = make([]int64, len(c.edges))
	return c
}

// advance implements the pacer gate for member m (called in m's kernel
// context). next is the kernel's earliest pending instant, or
// sim.PacerIdle when only an injected wake can make progress. pending
// is the member's buffered publications — the epoch's outbound
// exchange — and mirror its lock-free inbound view, refreshed here.
func (c *clusterCoord) advance(k *sim.Kernel, m int, next time.Duration, pending []pubRec, mirror []time.Duration) bool {
	// Lock-free fast path: nothing to publish, nothing queued for this
	// member, and every gating source clock already strictly past the
	// target. This is the overwhelmingly common case — a member's pacer
	// fires on every event batch, while publications and cross-edge
	// stalls happen only at slice boundaries — so the amortized cost of
	// coordination is a few atomic loads per batch instead of a mutex
	// handoff. Order matters, in two pairs (all loads and stores here
	// are seq-cst): source clocks are read before injN, so if the clock
	// read observes a source's advance, the injN read observes every
	// injection that advance's flush queued (flushes precede the clock
	// store); and unpublished counts are read (in allowedFast) before
	// injN, pairing with flushLocked's queue-injection-then-decrement
	// order, so a zeroed count that bypasses the source-clock gate
	// implies any waiter injection from that final publication is
	// already visible.
	if len(pending) == 0 && next != sim.PacerIdle && !c.dead.Load() &&
		c.allowedFast(m, next) && c.injN[m].Load() == 0 {
		if int64(next) > c.clock[m].Load() {
			c.clock[m].Store(int64(next))
			// A member parks only inside the locked section, after
			// bumping inLock and re-reading the clocks; seeing inLock==0
			// here therefore proves no peer can have missed this store.
			if c.inLock.Load() > 0 {
				c.mu.Lock()
				c.wakeDepsLocked(m)
				c.mu.Unlock()
			}
		}
		return false
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.inLock.Add(1)
	defer c.inLock.Add(-1)
	c.flushLocked(pending)
	injected := false
	for {
		if dl := c.deliver[m]; len(dl) > 0 {
			for _, d := range dl {
				mirror[d.dense] = d.v
			}
			c.deliver[m] = dl[:0]
		}
		if c.dead.Load() {
			k.Stop()
			return true
		}
		target := infDur
		if next != sim.PacerIdle {
			target = next
		}
		if lst := c.inj[m]; len(lst) > 0 && lst[0].at < target {
			target = lst[0].at
		}
		if target == infDur {
			if c.parked[m] == 0 {
				// Nothing parked on a barrier and no own events: a
				// genuine local deadlock; let the kernel report it.
				return false
			}
		} else if c.allowed(m, target) {
			for len(c.inj[m]) > 0 && c.inj[m][0].at <= target {
				in := c.inj[m][0]
				c.inj[m] = c.inj[m][1:]
				c.injN[m].Add(-1)
				w := in.w
				k.At(in.at, func() {
					w.fired = true
					k.Unpark(w.th)
				})
				injected = true
			}
			c.granted[m] = false
			if int64(target) > c.clock[m].Load() {
				c.clock[m].Store(int64(target))
				c.wakeDepsLocked(m)
			}
			if next == sim.PacerIdle {
				return true
			}
			return injected || target < next
		}
		c.state[m].Store(memberBlocked)
		c.target[m] = target
		c.checkStall()
		// checkStall may have granted this very member (or declared the
		// cluster dead): its broadcast fired before we could Wait, so
		// re-evaluate instead of sleeping through our own wake-up.
		if !c.granted[m] && !c.dead.Load() {
			// Attribute the stall to the inbound source whose clock gated
			// the advance (the first failing gate, ascending source order);
			// waits with no finite target fall in the overflow slot.
			gate := len(c.srcsOf[m])
			if target != infDur {
				if g := c.gatingSlot(m, target); g >= 0 {
					gate = g
				}
			}
			t0 := time.Now()
			c.conds[m].Wait()
			c.blockedNs[m][gate] += time.Since(t0).Nanoseconds()
		}
		c.state[m].Store(memberRunning)
	}
}

// gatingSlot returns the srcsOf slot of the first source blocking
// member m's advance to target, or -1 when no source gates it. Called
// with the lock held; reporting only.
func (c *clusterCoord) gatingSlot(m int, target time.Duration) int {
	for k, src := range c.srcsOf[m] {
		if c.unpub[m][k].Load() == 0 {
			continue
		}
		if c.state[src].Load() == memberDone {
			continue
		}
		if c.clock[src].Load() <= int64(target) {
			return k
		}
	}
	return -1
}

// wakeDepsLocked signals every blocked member whose advance gate reads
// m's state — the only members an advance, publication, or completion
// of m can re-qualify. Called with the lock held.
func (c *clusterCoord) wakeDepsLocked(m int) {
	for _, d := range c.dstsOf[m] {
		if c.state[d].Load() == memberBlocked {
			c.conds[d].Signal()
		}
	}
}

// wakeAllLocked wakes the whole cluster (abort and deadlock paths).
func (c *clusterCoord) wakeAllLocked() {
	for _, cv := range c.conds {
		cv.Signal()
	}
}

// allowedFast is the advance gate evaluated lock-free: like allowed,
// but reading the shared counters atomically and never consulting the
// one-shot grant flag (a member outside the locked section cannot hold
// a grant — grants go to blocked members and are consumed on wake).
func (c *clusterCoord) allowedFast(m int, target time.Duration) bool {
	for k, src := range c.srcsOf[m] {
		if c.unpub[m][k].Load() == 0 {
			continue
		}
		if c.state[src].Load() == memberDone {
			continue
		}
		if c.clock[src].Load() <= int64(target) {
			return false
		}
	}
	return true
}

// flushLocked applies a member's buffered publications: the epoch
// exchange. Called with the lock held.
func (c *clusterCoord) flushLocked(pending []pubRec) {
	if len(pending) == 0 {
		return
	}
	c.flushBatches++
	if len(pending) > c.flushMax {
		c.flushMax = len(pending)
	}
	for _, p := range pending {
		dense := c.denseOf[p.edge]
		if c.pub[dense] != unpubbed {
			continue // an edge publishes exactly once
		}
		c.pub[dense] = p.v
		e := c.edges[dense]
		c.deliver[e.dst] = append(c.deliver[e.dst], delivery{dense: dense, v: p.v})
		if w := c.waiters[dense]; w != nil {
			c.waiters[dense] = nil
			at := p.v
			if w.tPark > at {
				at = w.tPark
			}
			c.addInj(int(w.m), at, p.edge, w)
		}
		// The unpublished count drops only after the waiter's injection
		// is queued (injN bumped): allowedFast skips the source-clock
		// gate on a zeroed count, so a fast-path advance that observes
		// the decrement must — both atomics are seq-cst, and the fast
		// path loads unpub before injN — also observe the injection and
		// fall into the locked slow path, instead of advancing its clock
		// past a wake in its virtual past.
		c.unpub[e.dst][e.slot].Add(-1)
		// The publication can re-qualify only its destination: the
		// unpublished count dropped (gate) and an injection may now
		// bound its target.
		if c.state[e.dst].Load() == memberBlocked {
			c.conds[e.dst].Signal()
		}
	}
}

// allowed reports whether member m may advance its clock to target:
// every source m still has unpublished inbound edges from must have a
// clock strictly past target. O(distinct sources), independent of the
// cross-edge count.
func (c *clusterCoord) allowed(m int, target time.Duration) bool {
	if c.granted[m] {
		return true
	}
	for k, src := range c.srcsOf[m] {
		if c.unpub[m][k].Load() == 0 {
			continue
		}
		if c.state[src].Load() == memberDone {
			// A finished source will never publish; the parked waiter is
			// a deadlock, which idle detection reports.
			continue
		}
		if c.clock[src].Load() <= int64(target) {
			return false
		}
	}
	return true
}

// checkStall runs whenever a member blocks or finishes, with the lock
// held. If the whole cluster is quiescent it grants the smallest
// (target, member) advance, or — when no member has a finite target —
// declares a cross-shard deadlock. Quiescent states are functions of
// the virtual execution alone, so the grant sequence is deterministic.
func (c *clusterCoord) checkStall() {
	best := -1
	var bestT time.Duration
	for m := range c.state {
		switch c.state[m].Load() {
		case memberRunning:
			return
		case memberBlocked:
			// The recorded target may be stale: a publish can queue an
			// injection for a member that has not re-evaluated yet. Fold
			// pending injections in, so the effective target is the same
			// whether or not the member has woken — quiescent decisions
			// must depend only on the virtual execution.
			t := c.target[m]
			if lst := c.inj[m]; len(lst) > 0 && lst[0].at < t {
				t = lst[0].at
			}
			if t < infDur && (best < 0 || t < bestT) {
				best, bestT = m, t
			}
		}
	}
	allDone := true
	for m := range c.state {
		if c.state[m].Load() != memberDone {
			allDone = false
			break
		}
	}
	if allDone {
		return
	}
	if best < 0 {
		c.dead.Store(true)
		c.deadlocked = true
		c.wakeAllLocked()
		return
	}
	if !c.granted[best] {
		c.granted[best] = true
		c.conds[best].Signal()
	}
}

// addInj inserts a pending wake, keeping inj[m] sorted by (at, edge).
func (c *clusterCoord) addInj(m int, at time.Duration, edge int32, w *crossWaiter) {
	lst := c.inj[m]
	i := len(lst)
	for i > 0 && (lst[i-1].at > at || (lst[i-1].at == at && lst[i-1].edge > edge)) {
		i--
	}
	lst = append(lst, injection{})
	copy(lst[i+1:], lst[i:])
	lst[i] = injection{at: at, edge: edge, w: w}
	c.inj[m] = lst
	c.injN[m].Add(1)
}

// await blocks the calling thread until edge is published, returning
// the published satisfaction time and the virtual time the thread
// waited. Called in member m's kernel context. mirror is the member's
// lock-free publication view: an edge already delivered there with a
// time at or before now needs no lock at all — the conservative bound
// guarantees the publication was flushed before m's clock could pass
// it, so the mirror entry is final.
//
// The waited time is max(0, v-now): the thread resumes at max(v, tPark)
// whether it took the injection path or parked for a flush, so the
// measurement is path-independent — a pure function of the virtual
// execution, which is what lets profiles built from it stay
// deterministic across hosts and GOMAXPROCS.
func (c *clusterCoord) await(t *sim.Thread, k *sim.Kernel, m int, edge int32, mirror []time.Duration, reason func() string) (time.Duration, time.Duration) {
	dense := c.denseOf[edge]
	now := k.Now()
	if v := mirror[dense]; v != unpubbed && v <= now {
		return v, 0
	}
	c.mu.Lock()
	if v := c.pub[dense]; v != unpubbed && v <= now {
		// Satisfied in this member's past but not yet drained into the
		// mirror (the delivery is queued for m's next advance).
		c.mu.Unlock()
		return v, 0
	}
	w := &crossWaiter{th: t, m: m, tPark: now}
	if v := c.pub[dense]; v != unpubbed {
		c.addInj(m, v, edge, w) // v > now: wake exactly at the edge time
	} else {
		c.waiters[dense] = w
	}
	c.parked[m]++
	c.mu.Unlock()
	for !w.fired {
		t.ParkFn(reason)
	}
	c.mu.Lock()
	c.parked[m]--
	v := c.pub[dense]
	var waited time.Duration
	if v > now {
		waited = v - now
		c.waitNs[dense] += int64(waited)
	}
	c.mu.Unlock()
	return v, waited
}

// memberDone flushes member m's final publication buffer, marks it
// finished (its clock no longer constrains anyone), and re-checks the
// cluster for quiescence.
func (c *clusterCoord) memberDone(m int, pending []pubRec) {
	c.mu.Lock()
	c.flushLocked(pending)
	c.state[m].Store(memberDone)
	c.clock[m].Store(int64(infDur))
	c.checkStall()
	c.wakeDepsLocked(m)
	c.mu.Unlock()
}

// abort kills the cluster after a member failure; peer pacers stop
// their kernels at the next advance.
func (c *clusterCoord) abort() {
	c.mu.Lock()
	if !c.dead.Load() {
		c.dead.Store(true)
		c.wakeAllLocked()
	}
	c.mu.Unlock()
}

// shardPacer adapts a cluster coordinator to one kernel's Pacer hook.
// Each advance is one epoch boundary: the member's buffered outbound
// publications are swapped out and handed to the coordinator for a
// single batched exchange.
type shardPacer struct {
	c   *clusterCoord
	k   *sim.Kernel
	m   int
	sub *subState
}

func (p *shardPacer) Advance(next time.Duration) bool {
	pending := p.sub.pendingPub
	p.sub.pendingPub = pending[:0]
	return p.c.advance(p.k, p.m, next, pending, p.sub.pubLocal)
}

// compiledShard is one component's replay unit: a sub-benchmark whose
// records, actions, and hot tables are dense contiguous copies of the
// component's slice of the trace, plus the local dependency graph and
// the cross-edge wiring.
type compiledShard struct {
	comp    int32
	members []int32
	b       *Benchmark
	g       *core.Graph
	sub     *subState
	// rec is the per-component span/sample recorder (nil without obs);
	// rs is filled once the member's kernel has run.
	rec *obs.Recorder
	rs  *replayState
}

// buildShards materializes every component's replay unit.
func buildShards(b *Benchmark, g *core.Graph, plan *shard.Plan, obsOn bool) []*compiledShard {
	n := plan.N
	nc := len(plan.Components)
	// localOf renumbers each action within its component.
	localOf := make([]int32, n)
	counters := make([]int32, nc)
	for i := 0; i < n; i++ {
		comp := plan.CompOf[i]
		localOf[i] = counters[comp]
		counters[comp]++
	}
	// One pass over the full edge list builds every component's local
	// edge list (cross edges excluded: barriers enforce them).
	edgesOf := make([][]core.Edge, nc)
	edgeGlobalOf := make([][]int32, nc)
	for ei := range g.Edges {
		e := &g.Edges[ei]
		cf := plan.CompOf[e.From]
		if cf != plan.CompOf[e.To] {
			continue
		}
		edgesOf[cf] = append(edgesOf[cf], core.Edge{
			From: int(localOf[e.From]), To: int(localOf[e.To]), Kind: e.Kind, Res: e.Res,
		})
		edgeGlobalOf[cf] = append(edgeGlobalOf[cf], int32(ei))
	}
	hot := b.hot()
	slotScratch := make([]int32, hot.nSlots)
	for i := range slotScratch {
		slotScratch[i] = -1
	}
	shards := make([]*compiledShard, nc)
	for ci := range plan.Components {
		shards[ci] = buildOneShard(b, g, plan, int32(ci), edgesOf[ci], edgeGlobalOf[ci], obsOn)
		shards[ci].b.hotTab = hot.forShard(shards[ci].members, slotScratch)
	}
	// Cross-edge wiring, one pass over the registered cross list.
	// Synthetic thread-adjacency edges route to the destination's
	// threadPrevIn slot (awaited before the span's wait-start sample,
	// not with the graph cross edges); each action has at most one.
	for _, ce := range plan.Cross {
		from, to := plan.EdgeEnds(g, ce.Edge)
		dst := shards[ce.To].sub
		li := localOf[to]
		if int(ce.Edge) >= len(g.Edges) {
			dst.threadPrevIn[li] = ce.Edge
		} else {
			dst.crossIn[li] = append(dst.crossIn[li], ce.Edge)
		}
		src := shards[ce.From].sub
		lo := localOf[from]
		src.crossOut[lo] = append(src.crossOut[lo], ce.Edge)
	}
	return shards
}

func buildOneShard(b *Benchmark, g *core.Graph, plan *shard.Plan, comp int32,
	edges []core.Edge, edgeGlobal []int32, obsOn bool) *compiledShard {
	members := plan.Components[comp]
	m := len(members)
	// Contiguous local copies: the replay hot path walks records and
	// actions densely instead of striding through the whole trace.
	recs := make([]trace.Record, m)
	recPtrs := make([]*trace.Record, m)
	acts := make([]core.Action, m)
	for li, gidx := range members {
		recs[li] = *b.Trace.Records[gidx]
		recs[li].Seq = int64(li)
		recPtrs[li] = &recs[li]
		acts[li] = b.Analysis.Actions[gidx]
		acts[li].Rec = recPtrs[li]
	}
	subTrace := &trace.Trace{Platform: b.Trace.Platform, Records: recPtrs}
	subB := &Benchmark{
		Platform: b.Platform,
		Modes:    b.Modes,
		Trace:    subTrace,
		Snapshot: b.Snapshot,
		Analysis: &core.Analysis{Trace: subTrace, Actions: acts},
	}
	sub := &subState{
		comp:          comp,
		orig:          comp,
		global:        members,
		edgeGlobal:    edgeGlobal,
		full:          g,
		plan:          plan,
		crossIn:       make([][]int32, m),
		crossOut:      make([][]int32, m),
		crossWaitEdge: make([]int32, m),
	}
	if plan.Orig != nil {
		sub.orig = plan.Orig[comp]
		sub.threadPrevIn = make([]int32, m)
		for i := range sub.threadPrevIn {
			sub.threadPrevIn[i] = -1
		}
	}
	for i := range sub.crossWaitEdge {
		sub.crossWaitEdge[i] = -1
	}
	if obsOn {
		sub.crossRelAt = make([]time.Duration, m)
		sub.crossRelEdge = make([]int32, m)
		for i := range sub.crossRelEdge {
			sub.crossRelEdge[i] = -1
		}
	}
	return &compiledShard{
		comp:    comp,
		members: members,
		b:       subB,
		g:       core.NewGraph(m, edges),
		sub:     sub,
	}
}

// finishSub tears down one component's replay machinery without
// assembling a full report; the merge reads the raw state instead.
func (rs *replayState) finishSub() error {
	if rs.watchdog != nil {
		rs.watchdog.Stop()
		rs.watchdog = nil
	}
	if rs.obsDetach != nil {
		rs.obsDetach()
		rs.obsDetach = nil
	}
	if rs.stall != nil {
		return rs.stall
	}
	return nil
}

// runMember builds one component's replica system, replays the
// component on it, and leaves the raw state on cs for the merge. It runs
// on a goroutine of runCluster's or the worker pool's, where a panic
// would take the process and every other tenant's job with it, so a
// panic becomes the member's error: a simulated thread's arrives from
// Run as a *sim.ThreadPanic with the thread's own stack, anything else
// (an Init hook, the set-up here) panicked on this goroutine and the
// stack is still at hand. Either way the cluster is aborted like for any
// other member failure.
func runMember(cs *compiledShard, opts Options, so ShardOptions, coord *clusterCoord, mi int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			tp, ok := r.(*sim.ThreadPanic)
			if !ok {
				tp = &sim.ThreadPanic{Thread: "host goroutine", Value: r, Stack: debug.Stack()}
			}
			err = fmt.Errorf("artc: shard %d: %w", cs.comp, tp)
		}
		if err != nil && coord != nil {
			coord.abort()
		}
	}()
	sys, inj, err := newReplica(so.Target, so.Fault, so.Init)
	if err != nil {
		return fmt.Errorf("artc: shard %d: %w", cs.comp, err)
	}
	k := sys.K
	opts2 := opts
	opts2.Fault = inj
	opts2.Obs = nil
	if opts.Obs != nil {
		cs.rec = obs.NewRecorder(len(cs.members), opts.Obs.SampleCap())
		opts2.Obs = cs.rec
	}
	rs := newReplayState(sys, cs.b, opts2, cs.g)
	rs.sub = cs.sub
	rs.sub.member = mi
	rs.sub.coord = coord
	if coord != nil {
		cs.sub.pubLocal = make([]time.Duration, len(coord.edges))
		for i := range cs.sub.pubLocal {
			cs.sub.pubLocal[i] = unpubbed
		}
		k.SetPacer(&shardPacer{c: coord, k: k, m: mi, sub: cs.sub})
		if cs.rec != nil && cs.sub.plan.Sliced() {
			// Cross-wait counter track, sliced replays only: unsliced
			// sharded exports must stay byte-identical to serial, which
			// has no such track. The probe reads a member-goroutine-local
			// cumulative virtual wait, so the samples are deterministic.
			sub := cs.sub
			det := cs.rec.InstallProbes(k, opts.ObsInterval, obs.Probe{
				Kind: obs.CounterCrossWait,
				Fn:   func() float64 { return float64(sub.crossWaitNs) },
			})
			prev := rs.obsDetach
			rs.obsDetach = func() {
				det()
				if prev != nil {
					prev()
				}
			}
		}
	}
	rs.spawnThreads()
	runErr := k.Run()
	if coord != nil {
		coord.memberDone(mi, cs.sub.pendingPub)
		cs.sub.pendingPub = nil
	}
	cs.rs = rs
	if ferr := rs.finishSub(); ferr != nil {
		return ferr
	}
	if runErr != nil {
		return fmt.Errorf("artc: shard %d replay stalled: %w", cs.comp, runErr)
	}
	return nil
}

// runCluster replays one cluster: a single component directly, or a
// cross-connected group under a clock-exchange coordinator.
func runCluster(shards []*compiledShard, cluster []int32, opts Options, so ShardOptions) error {
	if len(cluster) == 1 {
		return runMember(shards[cluster[0]], opts, so, nil, 0)
	}
	coord := newClusterCoord(shards[cluster[0]].sub.plan, cluster)
	errs := make([]error, len(cluster))
	var wg sync.WaitGroup
	for mi, comp := range cluster {
		wg.Add(1)
		go func(mi int, comp int32) {
			defer wg.Done()
			errs[mi] = runMember(shards[comp], opts, so, coord, mi)
		}(mi, comp)
	}
	wg.Wait()
	// A panic is the cause; what its peers report is the abort.
	var first error
	var tp *sim.ThreadPanic
	for _, err := range errs {
		if errors.As(err, &tp) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	if first != nil {
		return first
	}
	if coord.deadlocked {
		return crossStall(shards, cluster)
	}
	return nil
}

// crossStall assembles a shard-aware StallReport for a cluster whose
// members all blocked on unsatisfiable cross-shard barriers.
func crossStall(shards []*compiledShard, cluster []int32) error {
	s := &StallReport{Trigger: "cross-barrier"}
	for _, comp := range cluster {
		cs := shards[comp]
		if cs.rs == nil {
			continue
		}
		rs := cs.rs
		s.Total += len(rs.b.Trace.Records)
		s.Completed += rs.completed
		s.Errors += rs.rep.Errors
		if at := rs.sys.K.Now() - rs.start; at > s.At {
			s.At = at
		}
		part := rs.buildStall("cross-barrier")
		for _, ba := range part.Blocked {
			if len(s.Blocked) >= maxStallBlocked {
				s.Truncated++
				continue
			}
			s.Blocked = append(s.Blocked, ba)
		}
		s.Truncated += part.Truncated
	}
	return s
}

// mergedSample keys one component's error sample for the merge.
type mergedSample struct {
	at   time.Duration
	comp int32
	text string
}

// ReplaySharded partitions the benchmark's dependency graph into
// replica-isolated components (internal/shard) and replays every
// component on its own kernel/scheduler/storage stack, each advancing
// its own virtual clock; components connected by program-order edges
// synchronize through deterministic clock-exchange barriers. Per-shard
// reports, spans, and counters are merged into one Report. For a trace
// the partitioner keeps whole (one component), the merged output is
// byte-identical to Replay on an identically configured system; the
// output never depends on Shards or GOMAXPROCS.
func ReplaySharded(b *Benchmark, opts Options, so ShardOptions) (*Report, *ShardStats, error) {
	if opts.Fault != nil {
		return nil, nil, fmt.Errorf("artc: sharded replay takes a fault plan in ShardOptions.Fault, not an injector in Options.Fault")
	}
	if opts.MaxErrorSamples == 0 {
		opts.MaxErrorSamples = 10
	}
	g, err := methodGraph(b, &opts)
	if err != nil {
		return nil, nil, err
	}
	plan := shard.Partition(b.Analysis, g)
	if so.SliceActions > 0 {
		plan = shard.Slice(b.Analysis, g, plan, shard.SliceOptions{
			MaxActions: so.SliceActions, MaxSlices: so.SliceMax,
			AllowDeviceSync: so.SliceDeviceSync,
			Profile:         so.SliceProfile,
		})
	}
	clusters := plan.Clusters()
	workers := so.Shards
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pst := plan.Stats()
	stats := &ShardStats{
		Components:      pst.Components,
		Clusters:        len(clusters),
		CrossEdges:      pst.CrossEdges,
		Largest:         pst.Largest,
		Shards:          workers,
		Sliced:          pst.Sliced,
		Synthetic:       pst.Synthetic,
		Profiled:        so.SliceProfile != nil && plan.Sliced(),
		PlanFingerprint: plan.Fingerprint(),
	}
	shards := buildShards(b, g, plan, opts.Obs != nil)
	if err := par.ForEachN(len(clusters), workers, func(ci int) error {
		return runCluster(shards, clusters[ci], opts, so)
	}); err != nil {
		return nil, stats, err
	}
	rep, err := mergeReports(b, g, shards, opts)
	if err != nil {
		return nil, stats, err
	}
	rep.Coord = collectCoordStats(plan, shards)
	if plan.Sliced() && rep.Coord != nil {
		stats.Profile = shard.BuildProfile(b.Analysis, g, plan,
			rep.Coord.EdgeWaitNs, rep.Coord.EdgePublished, rep.IssueAt, rep.DoneAt)
	}
	return rep, stats, nil
}

// collectCoordStats folds every cluster coordinator's wait accounting
// into plan-cross-edge-indexed totals. Runs after all members have
// finished, so the coordinators are quiescent and lock-free to read.
// Returns nil when the plan has no cross edges.
func collectCoordStats(plan *shard.Plan, shards []*compiledShard) *CoordStats {
	if len(plan.Cross) == 0 {
		return nil
	}
	cst := &CoordStats{
		EdgeWaitNs:    make([]int64, len(plan.Cross)),
		EdgePublished: make([]int64, len(plan.Cross)),
	}
	seen := make(map[*clusterCoord]bool)
	for _, cs := range shards {
		c := cs.sub.coord
		if c == nil || seen[c] {
			continue
		}
		seen[c] = true
		for dense := range c.edges {
			ci := c.edgeID[dense]
			cst.EdgeWaitNs[ci] += c.waitNs[dense]
			cst.CrossWaitNs += c.waitNs[dense]
			if c.pub[dense] != unpubbed {
				cst.EdgePublished[ci]++
				cst.Published++
			}
		}
		cst.FlushBatches += c.flushBatches
		if c.flushMax > cst.FlushMaxBatch {
			cst.FlushMaxBatch = c.flushMax
		}
		for _, per := range c.blockedNs {
			for _, ns := range per {
				cst.BlockedNs += ns
			}
		}
	}
	return cst
}

// mergeReports folds the per-component raw states into one Report and,
// when observability is on, replays the merged span and sample streams
// into the caller's recorder. Per-component streams are interleaved by
// virtual time with component index as the tiebreak, preserving each
// component's internal order — for a single component this reproduces
// the serial streams exactly.
func mergeReports(b *Benchmark, g *core.Graph, shards []*compiledShard, opts Options) (*Report, error) {
	n := len(b.Trace.Records)
	rep := &Report{
		Method:  opts.Method,
		Actions: n,
		IssueAt: make([]time.Duration, n),
		DoneAt:  make([]time.Duration, n),
		graph:   g,
	}
	hot := b.hot()
	tot := newTotals(hot) // shards share the benchmark's call and thread slots
	var samples []mergedSample
	var fstats *fault.Stats
	for _, cs := range shards {
		rs := cs.rs
		if rs == nil {
			return nil, fmt.Errorf("artc: shard %d never ran", cs.comp)
		}
		for li, gidx := range cs.members {
			rep.IssueAt[gidx] = rs.issueAt[li]
			rep.DoneAt[gidx] = rs.doneAt[li]
		}
		rep.Errors += rs.rep.Errors
		rep.Emulated += rs.rep.Emulated
		rep.ThreadTime += rs.rep.ThreadTime
		tot.add(&rs.tot)
		for si, text := range rs.rep.ErrorSamples {
			samples = append(samples, mergedSample{at: rs.sampleAt[si], comp: cs.comp, text: text})
		}
		if rs.inj != nil {
			st := rs.inj.Stats()
			if fstats == nil {
				fstats = &fault.Stats{}
			}
			fstats.SyscallInjected += st.SyscallInjected
			fstats.Retries += st.Retries
			fstats.Recovered += st.Recovered
			fstats.Skipped += st.Skipped
			fstats.StorageErrors += st.StorageErrors
			fstats.StorageSlow += st.StorageSlow
		}
	}
	var last time.Duration
	for _, d := range rep.DoneAt {
		if d > last {
			last = d
		}
	}
	rep.Elapsed = last
	tot.render(hot, rep)
	// Error samples keep the serial retention rule generalized: the
	// first MaxErrorSamples in merged completion order.
	sort.SliceStable(samples, func(i, j int) bool {
		if samples[i].at != samples[j].at {
			return samples[i].at < samples[j].at
		}
		return samples[i].comp < samples[j].comp
	})
	if max := opts.MaxErrorSamples; max >= 0 && len(samples) > max {
		samples = samples[:max]
	}
	for _, s := range samples {
		rep.ErrorSamples = append(rep.ErrorSamples, s.text)
	}
	rep.Graph = g.Stats(b.Analysis)
	rep.FaultStats = fstats

	if opts.Obs != nil {
		var spans []obs.Span
		for _, cs := range shards {
			spans = append(spans, cs.rec.Spans()...)
		}
		sliced := len(shards) > 0 && shards[0].sub.plan.Sliced()
		if sliced {
			// Slices of one original component share a Shard value, so
			// the unsliced (Done, Shard) interleave cannot order their
			// same-instant spans; (Done, Action) is the canonical order
			// WriteChrome also applies to the serial stream.
			slices.SortFunc(spans, func(a, b obs.Span) int { return obs.CompareSpans(&a, &b) })
		} else {
			sort.SliceStable(spans, func(i, j int) bool {
				if spans[i].Done != spans[j].Done {
					return spans[i].Done < spans[j].Done
				}
				return spans[i].Shard < spans[j].Shard
			})
		}
		for _, sp := range spans {
			opts.Obs.Record(sp)
		}
		type keyedSample struct {
			s    obs.Sample
			comp int32
		}
		var smps []keyedSample
		for _, cs := range shards {
			for _, s := range cs.rec.Samples() {
				smps = append(smps, keyedSample{s: s, comp: cs.comp})
			}
		}
		sort.SliceStable(smps, func(i, j int) bool {
			if smps[i].s.At != smps[j].s.At {
				return smps[i].s.At < smps[j].s.At
			}
			return smps[i].comp < smps[j].comp
		})
		for _, ks := range smps {
			opts.Obs.Sample(ks.s.At, ks.s.Kind, ks.s.Value)
		}
	}

	if opts.SelfCheck {
		// The global validation doubles as the barrier-correctness
		// assertion: merged issue/done times must satisfy every edge of
		// the full graph, cross-component ones included.
		if err := g.ValidateOrder(rep.IssueAt, rep.DoneAt); err != nil {
			return nil, fmt.Errorf("artc: sharded self-check failed: %w", err)
		}
		if len(shards) > 0 {
			for i, te := range shards[0].sub.plan.ThreadCross {
				if rep.IssueAt[te.To] < rep.DoneAt[te.From] {
					return nil, fmt.Errorf("artc: sharded self-check failed: synthetic edge %d: action %d issued at %v before predecessor %d done at %v",
						i, te.To, rep.IssueAt[te.To], te.From, rep.DoneAt[te.From])
				}
			}
		}
	}
	return rep, nil
}
