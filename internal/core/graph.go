package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"
)

// EdgeKind distinguishes the two replay-dependency semantics.
type EdgeKind int

// Edge kinds.
const (
	// WaitComplete: the dependent action may not be issued until the
	// dependency has completed (returned). ARTC's resource edges.
	WaitComplete EdgeKind = iota
	// WaitIssue: the dependent action may not be issued until the
	// dependency has been issued. Temporal ordering uses these to
	// preserve trace issue order while permitting traced overlap.
	WaitIssue
)

// Edge is a replay-order dependency between two actions, identified by
// their Seq indices.
type Edge struct {
	From, To int
	Kind     EdgeKind
	// Res is the resource that induced the edge (zero for temporal and
	// program edges); retained for reporting and Figure 8.
	Res ResourceID
}

// Graph is the partial order a replayer enforces. Each action's incoming
// and outgoing edges are kept in compressed-sparse-row form, as int32
// indices into Edges (a [][]int pair spends 48 bytes of slice headers
// per action before the first edge, on every graph a compile or a
// decode builds).
type Graph struct {
	N     int
	Edges []Edge
	// ReducedEdges counts edges removed by Reduce; the raw edge count is
	// len(Edges) + ReducedEdges.
	ReducedEdges int

	// depIdx[depOff[i]:depOff[i+1]] are the edges whose To == i, and
	// succIdx[succOff[i]:succOff[i+1]] those whose From == i, both in
	// Edges order.
	depOff, succOff []int32
	depIdx, succIdx []int32
}

// Deps lists the indices into Edges of the edges whose To == i.
func (g *Graph) Deps(i int) []int32 { return g.depIdx[g.depOff[i]:g.depOff[i+1]] }

// Succs lists the indices into Edges of the edges whose From == i; the
// replayer's indegree scheduler walks it when action i issues or
// completes.
func (g *Graph) Succs(i int) []int32 { return g.succIdx[g.succOff[i]:g.succOff[i+1]] }

// Indegree is len(Deps(i)): the number of edges action i must wait out
// before it can be issued.
func (g *Graph) Indegree(i int) int { return int(g.depOff[i+1] - g.depOff[i]) }

// newGraph builds the indexes from an edge list. Rows are counted two
// slots to the right and summed, which leaves off[i+1] at row i's
// start; placing row i's edges advances it to the row's end, which is
// row i+1's start, so off[i] ends up where row i begins with no second
// cursor array.
func newGraph(n int, edges []Edge) *Graph {
	off := make([]int32, 2*(n+2))
	idx := make([]int32, 2*len(edges))
	depOff, succOff := off[:n+2], off[n+2:]
	depIdx, succIdx := idx[:len(edges)], idx[len(edges):]
	for _, e := range edges {
		depOff[e.To+2]++
		succOff[e.From+2]++
	}
	for i := 2; i < n+2; i++ {
		depOff[i] += depOff[i-1]
		succOff[i] += succOff[i-1]
	}
	for ei, e := range edges {
		depIdx[depOff[e.To+1]] = int32(ei)
		depOff[e.To+1]++
		succIdx[succOff[e.From+1]] = int32(ei)
		succOff[e.From+1]++
	}
	return &Graph{N: n, Edges: edges, depOff: depOff[:n+1], succOff: succOff[:n+1], depIdx: depIdx, succIdx: succIdx}
}

// NewGraph assembles a graph from an explicit edge list, building the
// dependency indexes. Callers own edge order and deduplication; the
// sharded replayer uses it to materialize per-component subgraphs whose
// edge slices are filtered copies of an already-built graph's.
func NewGraph(n int, edges []Edge) *Graph { return newGraph(n, edges) }

// BuildGraph derives the replay dependency graph from an analysis under
// the given mode set. Edges within a single thread are omitted: thread
// sequential ordering is enforced structurally by replaying each traced
// thread on its own replay thread, which subsumes them.
func BuildGraph(an *Analysis, modes ModeSet) *Graph {
	n := len(an.Actions)
	recs := an.Trace.Records
	tid := func(i int) int { return recs[i].TID }
	// Edges are appended freely (the ordering rules emit the same pair
	// through different resources) and deduplicated afterward by a
	// sort+compact pass — far cheaper than a map probe per candidate.
	// Cross-thread candidates run to a few percent of the actions on the
	// volume corpora (5 % over ingest_strace's): n/8 is rarely outgrown,
	// and room for n would mostly be memory cleared for nothing.
	edges := make([]Edge, 0, n/8)
	add := func(from, to int, kind EdgeKind, res ResourceID) {
		if from == to || from > to {
			return
		}
		if tid(from) == tid(to) {
			return
		}
		edges = append(edges, Edge{From: from, To: to, Kind: kind, Res: res})
	}

	if modes.ProgramSeq {
		for i := 1; i < n; i++ {
			add(i-1, i, WaitComplete, ResourceID{Kind: KProgram, Name: "program", Gen: 1})
		}
		// program_seq subsumes every other rule; no further edges needed.
		return newGraph(n, dedupEdges(edges, len(edges)))
	}

	roleOf := func(actIdx int32, k int) Role {
		for _, t := range an.Touches(int(actIdx)) {
			if int(t.Idx) == k {
				return t.Role
			}
		}
		return RoleUse
	}

	for k := range an.Resources {
		r := &an.Resources[k]
		series := an.Series(k)
		if len(series) < 2 {
			continue
		}
		seq := false
		stage := false
		switch r.Kind {
		case KFile:
			seq = modes.FileSeq
		case KPath:
			stage = modes.PathStageName
		case KFD:
			seq = modes.FDSeq
			stage = modes.FDStage
		case KAIO:
			stage = modes.AIOStage
		}
		if seq {
			for i := 1; i < len(series); i++ {
				add(int(series[i-1]), int(series[i]), WaitComplete, *r)
			}
			// Sequential subsumes stage for the same resource.
			continue
		}
		if stage {
			first, last := series[0], series[len(series)-1]
			if roleOf(first, k) == RoleCreate {
				for _, i := range series[1:] {
					add(int(first), int(i), WaitComplete, *r)
				}
			}
			if roleOf(last, k) == RoleDelete {
				for _, i := range series[:len(series)-1] {
					add(int(i), int(last), WaitComplete, *r)
				}
			}
		}
	}
	resourceRule := len(edges)

	// Name ordering: for each path name with multiple generations, the
	// last action of one generation precedes the first action of the
	// next.
	if modes.PathStageName {
		regen := make(map[ResourceID]int)
		for k, r := range an.Resources {
			if r.Kind == KPath && len(an.PathGens[r.Name]) > 1 {
				regen[r] = k
			}
		}
		seriesOf := func(name string, gen int) []int32 {
			if k, ok := regen[ResourceID{Kind: KPath, Name: name, Gen: gen}]; ok {
				return an.Series(k)
			}
			return nil
		}
		for name, gens := range an.PathGens {
			for gi := 1; gi < len(gens); gi++ {
				prev, next := seriesOf(name, gens[gi-1]), seriesOf(name, gens[gi])
				if len(prev) == 0 || len(next) == 0 {
					continue
				}
				add(int(prev[len(prev)-1]), int(next[0]), WaitComplete,
					ResourceID{Kind: KPath, Name: name, Gen: gens[gi]})
			}
		}
	}
	return newGraph(n, dedupEdges(edges, resourceRule))
}

// dedupEdges sorts edges by (From, To) and keeps one edge of each pair: a
// resource-rule edge (the first resourceRule) over a name-rule one, then
// the smallest resource by (Kind, Name, Gen), then the first emitted — so
// neither the resource walk nor PathGens' map order picks the survivor.
// It sorts a permutation of int32 indices rather than the edges: swaps
// move 4 bytes instead of a whole Edge, and the emission-index tiebreak
// makes the sort stable without sort.SliceStable's merge passes.
func dedupEdges(edges []Edge, resourceRule int) []Edge {
	if len(edges) < 2 {
		return edges
	}
	ord := make([]int32, len(edges))
	for i := range ord {
		ord[i] = int32(i)
	}
	rr := int32(resourceRule)
	slices.SortFunc(ord, func(i, j int32) int {
		a, b := &edges[i], &edges[j]
		if a.From != b.From {
			return a.From - b.From
		}
		if a.To != b.To {
			return a.To - b.To
		}
		if (i < rr) != (j < rr) {
			return int(i - j) // every resource-rule edge was emitted first
		}
		return cmp.Or(cmp.Compare(a.Res.Kind, b.Res.Kind), strings.Compare(a.Res.Name, b.Res.Name),
			cmp.Compare(a.Res.Gen, b.Res.Gen), int(i-j))
	})
	uniq := 1
	for k := 1; k < len(ord); k++ {
		if prev := &edges[ord[k-1]]; prev.From != edges[ord[k]].From || prev.To != edges[ord[k]].To {
			uniq++
		}
	}
	out := make([]Edge, 0, uniq)
	for k, oi := range ord {
		if k > 0 {
			if prev := &edges[ord[k-1]]; prev.From == edges[oi].From && prev.To == edges[oi].To {
				continue
			}
		}
		out = append(out, edges[oi])
	}
	return out
}

// closurePool recycles Reduce's positions-closure scratch table across
// calls (compiles run concurrently in the experiment pool, hence a
// sync.Pool rather than a plain global).
var closurePool = sync.Pool{New: func() any { return []int32(nil) }}

// Reduce returns a graph enforcing the same partial order with
// transitively-redundant edges removed. An edge u -> v is redundant when
// another path from u to v already implies it: either a chain of other
// edges, or same-thread replay order (each traced thread replays its
// actions sequentially, so an edge into an early action of a thread
// subsumes edges into that thread's later actions — this collapses the
// stage rule's create -> every-later-action fan-out to one edge per
// thread).
//
// The implication is only sound when every hop is complete-strength:
// WaitComplete edges and same-thread order both guarantee the
// predecessor has *completed* before the successor issues, so any chain
// starting at u implies issue(v) >= complete(u). Graphs containing
// WaitIssue edges (the temporal baseline) are returned unchanged.
//
// Reduce does not mutate g; ReducedEdges on the result counts the
// removed edges so reports can show both raw and reduced sizes.
func (g *Graph) Reduce(an *Analysis) *Graph {
	n := g.N
	if n == 0 || len(g.Edges) == 0 {
		return g
	}
	for _, e := range g.Edges {
		if e.Kind != WaitComplete {
			return g
		}
	}

	// Thread structure: compact thread index, position within thread,
	// and each action's same-thread successor.
	tidIdx := make([]int, n)
	pos := make([]int, n)
	next := make([]int, n)
	threadOf := make(map[int]int)
	lastOf := make(map[int]int)
	for i := 0; i < n; i++ {
		next[i] = -1
		tid := an.Trace.Records[i].TID
		ti, ok := threadOf[tid]
		if !ok {
			ti = len(threadOf)
			threadOf[tid] = ti
		}
		tidIdx[i] = ti
		if prev, ok := lastOf[tid]; ok {
			pos[i] = pos[prev] + 1
			next[prev] = i
		}
		lastOf[tid] = i
	}
	nt := len(threadOf)
	// The closure table below is n*nt int32s. Past ~32M entries the
	// memory cost outweighs the replay savings; keep the raw graph.
	if nt == 0 || n > (32<<20)/nt {
		return g
	}

	// closure[u*nt+t] is the minimum thread-t position over {u} union
	// every node reachable from u (through edges and same-thread order).
	// Every edge goes forward in trace order, so processing u from n-1
	// down to 0 sees each successor's closure before it is needed.
	const inf = int32(1) << 30
	// The table is transient scratch filled with inf below, so pooling
	// it across Reduce calls saves both the allocation and the
	// runtime's zeroing of up to n*nt*4 bytes per compile.
	closure := closurePool.Get().([]int32)
	if cap(closure) < n*nt {
		closure = make([]int32, n*nt)
	}
	closure = closure[:n*nt]
	defer closurePool.Put(closure)
	for i := range closure {
		closure[i] = inf
	}
	relax := func(u, w int) {
		cu, cw := closure[u*nt:(u+1)*nt], closure[w*nt:(w+1)*nt]
		for t := 0; t < nt; t++ {
			if cw[t] < cu[t] {
				cu[t] = cw[t]
			}
		}
	}
	// min1/min2 hold, per target thread, the two smallest closure
	// positions over u's direct successors, with min1's witness node, so
	// the redundancy check can exclude the candidate edge's own target.
	min1 := make([]int32, nt)
	min2 := make([]int32, nt)
	wit := make([]int, nt)
	redundant := make([]bool, len(g.Edges))
	removed := 0

	for u := n - 1; u >= 0; u-- {
		cu := closure[u*nt : (u+1)*nt]
		cu[tidIdx[u]] = int32(pos[u])
		for t := 0; t < nt; t++ {
			min1[t], min2[t], wit[t] = inf, inf, -1
		}
		account := func(w int) {
			cw := closure[w*nt : (w+1)*nt]
			for t := 0; t < nt; t++ {
				switch {
				case cw[t] < min1[t]:
					min2[t] = min1[t]
					min1[t], wit[t] = cw[t], w
				case cw[t] < min2[t]:
					min2[t] = cw[t]
				}
			}
		}
		if next[u] >= 0 {
			relax(u, next[u])
			account(next[u])
		}
		for _, ei := range g.Succs(u) {
			w := g.Edges[ei].To
			relax(u, w)
			account(w)
		}
		for _, ei := range g.Succs(u) {
			v := g.Edges[ei].To
			t := tidIdx[v]
			m := min1[t]
			if wit[t] == v {
				m = min2[t]
			}
			if int32(pos[v]) >= m {
				redundant[ei] = true
				removed++
			}
		}
	}
	if removed == 0 {
		return g
	}
	kept := make([]Edge, 0, len(g.Edges)-removed)
	for ei, e := range g.Edges {
		if !redundant[ei] {
			kept = append(kept, e)
		}
	}
	out := newGraph(n, kept)
	out.ReducedEdges = g.ReducedEdges + removed
	return out
}

// TemporalGraph builds the baseline temporally-ordered replay graph:
// every action waits for the previous action in trace order to have been
// issued (not completed), so traced overlap is preserved but no
// reordering can occur (§5's "temporally-ordered replay").
func TemporalGraph(an *Analysis) *Graph {
	n := len(an.Actions)
	var edges []Edge
	for i := 1; i < n; i++ {
		if an.Trace.Records[i-1].TID == an.Trace.Records[i].TID {
			continue // implied by per-thread replay order
		}
		edges = append(edges, Edge{From: i - 1, To: i, Kind: WaitIssue})
	}
	return newGraph(n, edges)
}

// UnconstrainedGraph builds the no-synchronization baseline: no edges at
// all beyond implicit thread ordering.
func UnconstrainedGraph(an *Analysis) *Graph {
	return newGraph(len(an.Actions), nil)
}

// CheckAcyclic verifies the graph plus implicit same-thread ordering has
// no cycles; by construction all edges go forward in trace order, so a
// violation indicates an analyzer bug.
func (g *Graph) CheckAcyclic() error {
	for _, e := range g.Edges {
		if e.From >= e.To {
			return fmt.Errorf("core: edge %d -> %d does not follow trace order", e.From, e.To)
		}
	}
	return nil
}

// Stats summarizes a graph for reporting (Figure 8): cross-thread edge
// count and the mean "length" of an edge measured as trace time between
// the two actions' issue points.
type GraphStats struct {
	Edges int
	// ReducedEdges counts edges Reduce removed as transitively
	// redundant; Edges + ReducedEdges is the raw count BuildGraph
	// emitted.
	ReducedEdges int
	MeanLength   time.Duration
	MaxLength    time.Duration
}

// Stats computes edge statistics against the analysis the graph was
// built from.
func (g *Graph) Stats(an *Analysis) GraphStats {
	var st GraphStats
	st.Edges = len(g.Edges)
	st.ReducedEdges = g.ReducedEdges
	if st.Edges == 0 {
		return st
	}
	var total time.Duration
	for _, e := range g.Edges {
		l := an.Trace.Records[e.To].Start - an.Trace.Records[e.From].Start
		if l < 0 {
			l = 0
		}
		total += l
		if l > st.MaxLength {
			st.MaxLength = l
		}
	}
	st.MeanLength = total / time.Duration(st.Edges)
	return st
}

// ValidateOrder checks that a completed replay order (a permutation of
// action indices in the order they were issued, with issue and
// completion times) satisfies every edge; used by tests and the
// replayer's self-check mode. issue and complete map action index to
// virtual times.
func (g *Graph) ValidateOrder(issue, complete []time.Duration) error {
	if len(issue) != g.N || len(complete) != g.N {
		return fmt.Errorf("core: order length mismatch")
	}
	for _, e := range g.Edges {
		switch e.Kind {
		case WaitComplete:
			if issue[e.To] < complete[e.From] {
				return fmt.Errorf("core: action %d issued at %v before dependency %d completed at %v (%s)",
					e.To, issue[e.To], e.From, complete[e.From], e.Res)
			}
		case WaitIssue:
			if issue[e.To] < issue[e.From] {
				return fmt.Errorf("core: action %d issued at %v before dependency %d issued at %v",
					e.To, issue[e.To], e.From, issue[e.From])
			}
		}
	}
	return nil
}
