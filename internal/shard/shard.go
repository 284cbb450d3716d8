// Package shard partitions a compiled trace's dependency graph into
// replica-isolated components for parallel replay.
//
// The unit of isolation is the resource-closure component: the
// union-find closure of actions over (a) traced-thread membership, (b)
// every dependency edge backed by a real resource (files, paths,
// descriptors, AIO control blocks), (c) every resource's full action
// series, and (d) the canonical path names an action resolves, whether
// or not the call succeeded. Two actions in different components
// therefore share no file-system state at all: no file, no directory
// entry, no descriptor, no metadata block. Each component can replay on
// its own full-snapshot replica of the target system and observe
// exactly the state it would have observed on a shared system.
//
// The only edges allowed to cross components are the synthetic ordering
// chains — program_seq and temporal adjacency, both carrying a KProgram
// (or zero) resource. They order actions without sharing state, so they
// are the one place a resource cut is sound: cutting any stateful
// resource would put its state on two replicas and break replay
// semantics, which is why oversized components connected through real
// resources are not split further. Cross edges are registered explicitly
// and enforced at replay time by clock-exchange barriers (internal/artc).
package shard

import (
	"encoding/binary"
	"hash/fnv"
	gopath "path"

	"rootreplay/internal/core"
)

// CrossEdge is one dependency edge whose endpoints replay on different
// components.
type CrossEdge struct {
	// Edge indexes the graph's Edges slice.
	Edge int32
	// From and To are the component indices of the edge's endpoints.
	From, To int32
}

// ThreadEdge is one synthetic program-order edge created by slicing:
// From and To are consecutive actions of one traced thread placed on
// different slices, so the thread's sequential order — enforced
// structurally when the thread replays whole — must be enforced by a
// clock-exchange barrier instead. The edge behaves like a WaitComplete
// edge: To may not start before From completes.
type ThreadEdge struct {
	From, To int32
}

// Plan is a partition of a graph's actions into replica-isolated
// components plus the explicit cross-component edges.
type Plan struct {
	// N is the number of actions partitioned.
	N int
	// Components holds each component's action indices in trace order.
	// Components are ordered by their smallest action index.
	Components [][]int32
	// CompOf maps each action to its component index.
	CompOf []int32
	// Cross lists every cross-component edge, ordered by edge index.
	// Entries with Edge >= EdgeBase are synthetic thread-adjacency edges
	// (see ThreadCross); the rest index the graph's Edges slice.
	Cross []CrossEdge
	// Orig maps each component to the resource-closure component it was
	// cut from; nil when no component was sliced. Replay reporting uses
	// it so a sliced single-component trace still attributes every span
	// to component 0, exactly like the serial replayer.
	Orig []int32
	// EdgeBase is the graph's edge count when slicing ran; synthetic
	// edge i is identified as EdgeBase+i across the plan.
	EdgeBase int32
	// ThreadCross lists the synthetic program-order edges slicing
	// created, in ascending To order.
	ThreadCross []ThreadEdge
}

// Sliced reports whether resource-cut slicing split any component.
func (p *Plan) Sliced() bool { return p.Orig != nil }

// Fingerprint hashes the partition — component membership and every
// cross edge — into a stable 64-bit identity. Two plans assign the same
// fingerprint iff they place every action in the same component and
// register the same cross edges, so CI can assert that a profiled
// re-cut actually moved the cut without diffing whole plans.
func (p *Plan) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w32 := func(v int32) {
		binary.LittleEndian.PutUint32(buf[:4], uint32(v))
		h.Write(buf[:4])
	}
	w32(int32(p.N))
	for _, c := range p.CompOf {
		w32(c)
	}
	w32(p.EdgeBase)
	for _, ce := range p.Cross {
		w32(ce.Edge)
		w32(ce.From)
		w32(ce.To)
	}
	for _, te := range p.ThreadCross {
		w32(te.From)
		w32(te.To)
	}
	return h.Sum64()
}

// EdgeEnds returns the action endpoints of a cross edge, synthetic or
// not.
func (p *Plan) EdgeEnds(g *core.Graph, edge int32) (from, to int32) {
	if int(edge) < len(g.Edges) {
		e := &g.Edges[edge]
		return int32(e.From), int32(e.To)
	}
	te := p.ThreadCross[edge-p.EdgeBase]
	return te.From, te.To
}

// Stats summarizes a plan for reporting.
type Stats struct {
	Components int
	CrossEdges int
	// Largest is the action count of the biggest component.
	Largest int
	// Sliced counts resource-closure components that were split;
	// Synthetic the thread-adjacency edges the splits created.
	Sliced    int
	Synthetic int
}

// Stats computes summary counts.
func (p *Plan) Stats() Stats {
	st := Stats{Components: len(p.Components), CrossEdges: len(p.Cross), Synthetic: len(p.ThreadCross)}
	for _, c := range p.Components {
		if len(c) > st.Largest {
			st.Largest = len(c)
		}
	}
	if p.Orig != nil {
		slices := make(map[int32]int)
		for _, o := range p.Orig {
			slices[o]++
		}
		for _, n := range slices {
			if n > 1 {
				st.Sliced++
			}
		}
	}
	return st
}

// crossEligible reports whether an edge orders without sharing state:
// program_seq chains carry the synthetic KProgram resource and temporal
// adjacency edges carry the zero ResourceID (whose Kind is KProgram).
// Every other edge is backed by a stateful resource and must stay
// inside one component.
func crossEligible(e *core.Edge) bool { return e.Res.Kind == core.KProgram }

// uf is a union-find over action indices (path halving, union by size).
type uf struct {
	parent []int32
	size   []int32
}

func newUF(n int) *uf {
	u := &uf{parent: make([]int32, n), size: make([]int32, n)}
	for i := range u.parent {
		u.parent[i] = int32(i)
		u.size[i] = 1
	}
	return u
}

func (u *uf) find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = u.parent[x]
	}
	return x
}

func (u *uf) union(a, b int32) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
}

// Partition computes the resource-closure partition of the analysis
// under the given dependency graph. The graph must be one built over
// the same analysis (the ARTC graph for any mode set, the temporal
// graph, or the unconstrained graph).
func Partition(an *core.Analysis, g *core.Graph) *Plan {
	n := len(an.Actions)
	u := newUF(n)

	// (a) Thread membership: a traced thread replays as one simulated
	// thread, so all its actions share a component.
	lastOfTID := make(map[int]int32)
	for i, rec := range an.Trace.Records {
		tid := rec.TID
		if prev, ok := lastOfTID[tid]; ok {
			u.union(prev, int32(i))
		}
		lastOfTID[tid] = int32(i)
	}

	resourceClosure(u, an, g)

	// Number components by smallest member (== first root encountered in
	// trace order) and gather members in trace order.
	compOf := make([]int32, n)
	rootComp := make(map[int32]int32)
	var sizes []int32
	for i := 0; i < n; i++ {
		r := u.find(int32(i))
		c, ok := rootComp[r]
		if !ok {
			c = int32(len(sizes))
			rootComp[r] = c
			sizes = append(sizes, 0)
		}
		compOf[i] = c
		sizes[c]++
	}
	components := make([][]int32, len(sizes))
	for c, sz := range sizes {
		components[c] = make([]int32, 0, sz)
	}
	for i := 0; i < n; i++ {
		c := compOf[i]
		components[c] = append(components[c], int32(i))
	}

	var cross []CrossEdge
	for ei := range g.Edges {
		e := &g.Edges[ei]
		cf, ct := compOf[e.From], compOf[e.To]
		if cf == ct {
			continue
		}
		if !crossEligible(e) {
			// Rules (b)-(d) united the endpoints of every stateful edge;
			// a stateful edge crossing components is a partition bug.
			panic("shard: stateful edge crosses components")
		}
		cross = append(cross, CrossEdge{Edge: int32(ei), From: cf, To: ct})
	}

	return &Plan{N: n, Components: components, CompOf: compOf, Cross: cross}
}

// resourceClosure applies the stateful union rules (b)-(d) — everything
// except thread membership — to u. It is shared by Partition and the
// slicer's atom computation: an atom is the resource closure of an
// action without the thread rule, so two atoms share no file-system
// state and can replay on separate replicas even when one traced thread
// spans both.
func resourceClosure(u *uf, an *core.Analysis, g *core.Graph) {
	// (b) Stateful dependency edges.
	for ei := range g.Edges {
		e := &g.Edges[ei]
		if !crossEligible(e) {
			u.union(int32(e.From), int32(e.To))
		}
	}

	// (c) Resource series: any two actions touching the same resource —
	// same file, path generation, descriptor, or AIOCB — share state and
	// therefore a component, even in modes whose graph drops the edge.
	for k, r := range an.Resources {
		series := an.Series(k)
		if r.Kind == core.KProgram || len(series) < 2 {
			continue
		}
		for _, a := range series[1:] {
			u.union(series[0], a)
		}
	}

	// (d) Canonical path names, successful or not. A failed call carries
	// no touches, but its outcome (ENOENT vs EEXIST vs success) depends
	// on whether the name — or its parent directory — exists when it
	// runs, so it must replay next to every action that can affect that
	// name. Uniting on the name (and its parent) over-approximates
	// safely; for successful calls the path resources of rule (c) make
	// most of these unions redundant.
	byName := make(map[string]int32)
	uniteName := func(name string, act int32) {
		if name == "" || name == "/" {
			return
		}
		if prev, ok := byName[name]; ok {
			u.union(prev, act)
		} else {
			byName[name] = act
		}
	}
	for i := range an.Actions {
		act := &an.Actions[i]
		ai := int32(i)
		if p := act.CanonPath; p >= 0 && an.Trace.Records[i].Call != "symlink" {
			uniteName(an.Paths[p], ai)
			uniteName(gopath.Dir(an.Paths[p]), ai)
		}
		if p := act.CanonPath2; p >= 0 {
			uniteName(an.Paths[p], ai)
			uniteName(gopath.Dir(an.Paths[p]), ai)
		}
		// A failed call on a then-valid descriptor is remapped through
		// its hint resource; keep it with that descriptor's series.
		if act.FDHint >= 0 {
			if s := an.Series(int(act.FDHint)); len(s) > 0 {
				u.union(s[0], ai)
			}
		}
	}
}

// Clusters groups components that are connected through cross edges.
// Components in one cluster must replay concurrently (their clocks
// exchange at barriers); distinct clusters are fully independent work
// units. Each cluster lists component indices in ascending order, and
// clusters are ordered by their smallest component.
func (p *Plan) Clusters() [][]int32 {
	u := newUF(len(p.Components))
	for _, ce := range p.Cross {
		u.union(ce.From, ce.To)
	}
	var clusters [][]int32
	rootCluster := make(map[int32]int)
	for c := range p.Components {
		r := u.find(int32(c))
		k, ok := rootCluster[r]
		if !ok {
			k = len(clusters)
			rootCluster[r] = k
			clusters = append(clusters, nil)
		}
		clusters[k] = append(clusters[k], int32(c))
	}
	return clusters
}
