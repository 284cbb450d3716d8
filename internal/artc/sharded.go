package artc

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"time"

	"rootreplay/internal/coord"
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
	// PlanFingerprint identifies the executed partition (component
	// membership + cross edges).
	PlanFingerprint uint64
}

// CoordStats aggregates the clock-exchange coordinator's accounting
// across a sharded replay's clusters. The virtual quantities (cross
// wait, publishes) are deterministic; BlockedNs is host wall time and
// is reported for humans only.
type CoordStats struct {
	// CrossWaitNs is the virtual time destination actions waited on
	// cross edges; Published counts the cross edges that published.
	CrossWaitNs int64
	Published   int64
	// FlushBatches counts non-empty epoch publication flushes;
	// FlushMaxBatch is the largest single flush.
	FlushBatches  int64
	FlushMaxBatch int
	// Advances counts pacer calls (deterministic, a function of the
	// plan); Parks those that waited on their condition variable and
	// Grants the quiescent grants (both may vary with host timing).
	Advances, Parks, Grants int64
	// BlockedNs is host wall time member pacers spent parked waiting for
	// peer clocks, attributed per gating source internally.
	BlockedNs int64
}

// subState is a replayState's view of its place in a sharded replay:
// index translations back to the whole trace plus the cross-edge
// barrier wiring.
type subState struct {
	comp int32
	// orig is the pre-slicing component index — what spans report as
	// their shard, so a sliced single-component trace still attributes
	// everything to component 0, like the serial replayer.
	orig int32
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
	// h is this member's handle on its cluster's coordinator (nil for a
	// component with no cross edges) and its kernel's pacer.
	h *coord.Member
	// crossWaitNs accumulates the member's virtual cross-edge wait time
	// (written on the member's kernel goroutine, where the obs
	// CounterCrossWait probe samples it; collectCoordStats reads it once
	// every member has returned).
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
func (s *subState) waitCross(t *sim.Thread, idx int) {
	ins := s.crossIn[idx]
	if len(ins) == 0 {
		return
	}
	for _, ge := range ins {
		s.crossWaitEdge[idx] = ge
		v, waited := s.h.Await(t, ge, func() string { return s.crossReason(idx) })
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
func (s *subState) waitThreadPrev(t *sim.Thread, idx int) {
	if s.threadPrevIn == nil {
		return
	}
	ge := s.threadPrevIn[idx]
	if ge < 0 {
		return
	}
	s.crossWaitEdge[idx] = ge
	_, waited := s.h.Await(t, ge, func() string { return s.crossReason(idx) })
	s.crossWaitNs += int64(waited)
	s.crossWaitEdge[idx] = -1
}

// publishCross publishes action idx's outbound cross edges of the given
// kind, satisfied at virtual time at.
func (s *subState) publishCross(idx int, kind core.EdgeKind, at time.Duration) {
	for _, ge := range s.crossOut[idx] {
		if s.edgeKindOf(ge) == kind {
			s.h.Publish(ge, at)
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
	sp.ReleaseRes = rs.resName(e.Res)
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
	acts := make([]core.Action, m)
	for li, gidx := range members {
		recs[li] = b.Trace.Records[gidx]
		recs[li].Seq = int64(li)
		acts[li] = b.Analysis.Actions[gidx]
	}
	// The records keep indexing the parent's string table.
	subTrace := &trace.Trace{Platform: b.Trace.Platform, Records: recs, Strs: b.Trace.Strs}
	subB := &Benchmark{
		Platform: b.Platform,
		Modes:    b.Modes,
		Trace:    subTrace,
		Snapshot: b.Snapshot,
		// The actions index the parent's paths, touches and resources.
		Analysis: &core.Analysis{Trace: subTrace, Actions: acts, Paths: b.Analysis.Paths,
			TouchSlab: b.Analysis.TouchSlab, Resources: b.Analysis.Resources},
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

// runMember builds one component's replica system, replays the
// component on it, and leaves the raw state on cs for the merge. It runs
// on a goroutine of runCluster's or the worker pool's, where a panic
// would take the process and every other tenant's job with it, so a
// panic becomes the member's error: a simulated thread's arrives from
// Run as a *sim.ThreadPanic with the thread's own stack, anything else
// (an Init hook, the set-up here) panicked on this goroutine and the
// stack is still at hand. Either way the cluster is aborted like for any
// other member failure.
func runMember(cs *compiledShard, opts Options, so ShardOptions, cl *coord.Cluster, mi int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			tp, ok := r.(*sim.ThreadPanic)
			if !ok {
				tp = &sim.ThreadPanic{Thread: "host goroutine", Value: r, Stack: debug.Stack()}
			}
			err = fmt.Errorf("artc: shard %d: %w", cs.comp, tp)
		}
		if err != nil && cl != nil {
			cl.Abort()
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
	if cl != nil {
		cs.sub.h = cl.Member(mi, k)
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
	if cl != nil {
		cs.sub.h.Done()
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
// cross-connected group under a clock-exchange coordinator
// (internal/coord), whose members are the cluster's components in order
// and whose edges are the plan's cross edges among them. It leaves the
// coordinator's accounting in out.
func runCluster(shards []*compiledShard, cluster []int32, opts Options, so ShardOptions, out *coord.Stats) error {
	if len(cluster) == 1 {
		return runMember(shards[cluster[0]], opts, so, nil, 0)
	}
	memberOf := make(map[int32]int, len(cluster))
	for mi, comp := range cluster {
		memberOf[comp] = mi
	}
	var edges []coord.Edge
	for _, ce := range shards[cluster[0]].sub.plan.Cross {
		if dst, ok := memberOf[ce.To]; ok {
			edges = append(edges, coord.Edge{ID: ce.Edge, Src: memberOf[ce.From], Dst: dst})
		}
	}
	cl := coord.New(len(cluster), edges)
	errs := make([]error, len(cluster))
	var wg sync.WaitGroup
	for mi, comp := range cluster {
		wg.Add(1)
		go func(mi int, comp int32) {
			defer wg.Done()
			errs[mi] = runMember(shards[comp], opts, so, cl, mi)
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
	if cl.Deadlocked() {
		return crossStall(shards, cluster)
	}
	*out = cl.Stats()
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
	g, err := methodGraph(b, &opts)
	if err != nil {
		return nil, nil, err
	}
	plan := shard.Partition(b.Analysis, g)
	if so.SliceActions > 0 {
		plan = shard.Slice(b.Analysis, g, plan, shard.SliceOptions{
			MaxActions: so.SliceActions, MaxSlices: so.SliceMax,
			AllowDeviceSync: so.SliceDeviceSync,
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
		PlanFingerprint: plan.Fingerprint(),
	}
	shards := buildShards(b, g, plan, opts.Obs != nil)
	perCluster := make([]coord.Stats, len(clusters))
	if err := par.ForEachN(len(clusters), workers, func(ci int) error {
		return runCluster(shards, clusters[ci], opts, so, &perCluster[ci])
	}); err != nil {
		return nil, stats, err
	}
	rep, err := mergeReports(b, g, shards, opts)
	if err != nil {
		return nil, stats, err
	}
	rep.Coord = collectCoordStats(plan, shards, perCluster)
	return rep, stats, nil
}

// collectCoordStats sums the members' virtual cross-edge waits and the
// clusters' coordinator accounting. Returns nil when the plan has no
// cross edges.
func collectCoordStats(plan *shard.Plan, shards []*compiledShard, perCluster []coord.Stats) *CoordStats {
	if len(plan.Cross) == 0 {
		return nil
	}
	cst := &CoordStats{}
	for _, cs := range shards {
		cst.CrossWaitNs += cs.sub.crossWaitNs
	}
	for _, st := range perCluster {
		for _, pub := range st.EdgePublished {
			if pub {
				cst.Published++
			}
		}
		cst.FlushBatches += st.FlushBatches
		cst.FlushMaxBatch = max(cst.FlushMaxBatch, st.FlushMaxBatch)
		cst.Advances += st.Advances
		cst.Parks += st.Parks
		cst.Grants += st.Grants
		cst.BlockedNs += st.BlockedNs
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
			if fstats == nil {
				fstats = &fault.Stats{}
			}
			fstats.Add(rs.inj.Stats())
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
	// first maxErrorSamples in merged completion order.
	sort.SliceStable(samples, func(i, j int) bool {
		if samples[i].at != samples[j].at {
			return samples[i].at < samples[j].at
		}
		return samples[i].comp < samples[j].comp
	})
	if len(samples) > maxErrorSamples {
		samples = samples[:maxErrorSamples]
	}
	for _, s := range samples {
		rep.ErrorSamples = append(rep.ErrorSamples, s.text)
	}
	rep.Graph = g.Stats(b.Analysis)
	rep.FaultStats = fstats

	if opts.Obs != nil {
		// Each member's spans name calls and resources in the member's
		// table; they are re-interned into the caller's.
		var spans []obs.Span
		for _, cs := range shards {
			names := cs.rec.Names()
			remap := make([]obs.Name, len(names))
			for i, s := range names {
				remap[i] = opts.Obs.Intern(s)
			}
			for _, sp := range cs.rec.Spans() {
				sp.Call, sp.ReleaseRes = remap[sp.Call], remap[sp.ReleaseRes]
				spans = append(spans, sp)
			}
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
