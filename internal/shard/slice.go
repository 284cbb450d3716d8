// Resource-cut slicing: a second partitioning phase that splits
// oversized resource-closure components along minimum resource-series
// cuts.
//
// Partition keeps every traced thread whole (rule (a)), which collapses
// traces with shared files into one giant component even though most of
// their ordering is per-resource. Slicing drops rule (a) and recomputes
// the closure: the result is the component's atoms — maximal sets of
// actions connected through stateful resources alone. Two atoms share
// no file-system state, so each side of any atom cut can still replay
// on its own full-snapshot replica; what a cut breaks is only the
// structural program order of threads that span it, and that is exactly
// expressible as synthetic WaitComplete cross edges (ThreadEdge)
// enforced by the existing clock-exchange machinery.
//
// The cut itself is a greedy multilevel/KL-style refinement over the
// atom affinity graph: nodes are atoms, edge weights count the ordering
// constraints a cut would turn into cross edges (thread adjacencies
// plus program-order graph edges), and the balance constraint bounds
// per-slice action counts. Largest-atom-first placement seeds the
// slices; refinement passes then move atoms toward their neighbors
// whenever that reduces the cut without violating balance. Everything
// iterates in deterministic index order, so the plan is a pure function
// of the trace and the options.
package shard

import (
	"sort"

	"rootreplay/internal/core"
)

// SliceOptions control resource-cut slicing of oversized components.
type SliceOptions struct {
	// MaxActions is the target per-slice action count: components larger
	// than this are split into ceil(size/MaxActions) slices when their
	// atoms allow it. Zero disables slicing.
	MaxActions int
	// MaxSlices caps the number of slices per component (0 = no cap).
	MaxSlices int
	// AllowDeviceSync lifts the refusal to cut components containing
	// device-synchronous calls (fsync family). Off, such components stay
	// whole, preserving the byte-identity contract: an fsync's duration
	// is set by device-queue state, which a per-slice private device
	// reproduces differently than the serial replayer's shared one. On,
	// they slice anyway — the merged report is still deterministic, but
	// its virtual times are those of the per-slice devices. Perf corpora
	// opt in; differential corpora must not.
	AllowDeviceSync bool
}

// balanceSlack is the allowed overshoot of a slice's action count over
// the perfect total/K split during refinement.
const balanceSlack = 0.25

// refinePasses bounds the KL refinement sweeps per component.
const refinePasses = 8

// Slice refines a resource-closure partition by splitting components
// larger than opt.MaxActions along resource cuts. The returned plan
// satisfies the same invariants as Partition — every action in exactly
// one component, every stateful edge intra-component — plus the
// synthetic thread-adjacency edges that restore program order across
// cuts. When nothing is split (slicing disabled, no oversized
// component, or oversized components with a single atom), p is returned
// unchanged.
func Slice(an *core.Analysis, g *core.Graph, p *Plan, opt SliceOptions) *Plan {
	if opt.MaxActions <= 0 {
		return p
	}
	oversized := false
	for _, c := range p.Components {
		if len(c) > opt.MaxActions {
			oversized = true
			break
		}
	}
	if !oversized {
		return p
	}

	n := p.N
	// Atoms: the resource closure without thread membership. Computed
	// once over the whole trace; every atom nests inside one component
	// because its rules are a subset of Partition's.
	au := newUF(n)
	resourceClosure(au, an, g)

	// threadPrev[i] is action i's same-thread predecessor (-1 for the
	// first action of a thread). Thread adjacencies are both the cut
	// cost and, after the cut, the synthetic edges.
	threadPrev := make([]int32, n)
	lastOfTID := make(map[int32]int32)
	for i := range an.Trace.Records {
		tid := an.Trace.Records[i].TID
		if prev, ok := lastOfTID[tid]; ok {
			threadPrev[i] = prev
		} else {
			threadPrev[i] = -1
		}
		lastOfTID[tid] = int32(i)
	}

	// sliceOf[i] is action i's slice within its component (0 for
	// components kept whole).
	sliceOf := make([]int32, n)
	split := false
	for _, members := range p.Components {
		if len(members) <= opt.MaxActions {
			continue
		}
		if !opt.AllowDeviceSync && hasDeviceSync(an, members) {
			continue
		}
		if sliceComponent(members, au, g, threadPrev, p.CompOf, opt, sliceOf) {
			split = true
		}
	}
	if !split {
		return p
	}

	// Renumber components by smallest action index, the same invariant
	// Partition establishes, treating (old component, slice) as the key.
	type key struct {
		comp  int32
		slice int32
	}
	compOf := make([]int32, n)
	newOf := make(map[key]int32)
	var orig []int32
	for i := 0; i < n; i++ {
		k := key{p.CompOf[i], sliceOf[i]}
		c, ok := newOf[k]
		if !ok {
			c = int32(len(orig))
			newOf[k] = c
			orig = append(orig, k.comp)
		}
		compOf[i] = c
	}
	components := make([][]int32, len(orig))
	for i := 0; i < n; i++ {
		c := compOf[i]
		components[c] = append(components[c], int32(i))
	}

	out := &Plan{
		N:          n,
		Components: components,
		CompOf:     compOf,
		Orig:       orig,
		EdgeBase:   int32(len(g.Edges)),
	}
	for ei := range g.Edges {
		e := &g.Edges[ei]
		cf, ct := compOf[e.From], compOf[e.To]
		if cf == ct {
			continue
		}
		if !crossEligible(e) {
			// Atoms close over every stateful rule; a stateful edge
			// crossing slices is a slicer bug.
			panic("shard: stateful edge crosses slices")
		}
		out.Cross = append(out.Cross, CrossEdge{Edge: int32(ei), From: cf, To: ct})
	}
	for i := 0; i < n; i++ {
		prev := threadPrev[i]
		if prev < 0 || compOf[prev] == compOf[i] {
			continue
		}
		id := out.EdgeBase + int32(len(out.ThreadCross))
		out.ThreadCross = append(out.ThreadCross, ThreadEdge{From: prev, To: int32(i)})
		out.Cross = append(out.Cross, CrossEdge{Edge: id, From: compOf[prev], To: compOf[i]})
	}
	return out
}

// hasDeviceSync reports whether any of the component's actions drives
// the device synchronously (fsync-family writeback). Slicing's
// byte-identity contract holds only for device-independent replays —
// each slice replica owns a private device, so a call whose duration is
// set by device-queue state would time differently than under the
// serial replayer's single shared device. Such components stay whole.
func hasDeviceSync(an *core.Analysis, members []int32) bool {
	for _, i := range members {
		switch an.Trace.Str(an.Trace.Records[i].Call) {
		case "fsync", "fdatasync", "sync", "msync":
			return true
		}
	}
	return false
}

// sliceComponent partitions one oversized component's atoms into
// balanced slices minimizing the ordering cut, writing each member's
// slice into sliceOf. Reports whether the component was actually split.
func sliceComponent(members []int32, au *uf, g *core.Graph, threadPrev []int32,
	compOf []int32, opt SliceOptions, sliceOf []int32) bool {
	// Dense atom ids in first-occurrence (== smallest action) order.
	atomID := make(map[int32]int32)
	atomOf := make(map[int32]int32, len(members)) // action -> dense atom
	var atomSize []int64
	for _, a := range members {
		r := au.find(a)
		id, ok := atomID[r]
		if !ok {
			id = int32(len(atomSize))
			atomID[r] = id
			atomSize = append(atomSize, 0)
		}
		atomOf[a] = id
		atomSize[id]++
	}
	na := len(atomSize)
	if na < 2 {
		return false // one atom: nothing to cut without breaking state
	}
	k := (len(members) + opt.MaxActions - 1) / opt.MaxActions
	if opt.MaxSlices > 0 && k > opt.MaxSlices {
		k = opt.MaxSlices
	}
	if k > na {
		k = na
	}
	if k < 2 {
		return false
	}

	// Affinity: the ordering constraints a cut between two atoms turns
	// into cross edges — thread adjacencies and program-order graph
	// edges between them.
	type wkey struct{ a, b int32 }
	weight := make(map[wkey]int64)
	addW := func(a, b int32) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		weight[wkey{a, b}]++
	}
	comp := compOf[members[0]]
	for _, i := range members {
		if prev := threadPrev[i]; prev >= 0 && compOf[prev] == comp {
			addW(atomOf[prev], atomOf[i])
		}
	}
	for ei := range g.Edges {
		e := &g.Edges[ei]
		if !crossEligible(e) {
			continue // stateful edges are intra-atom by construction
		}
		if compOf[e.From] != comp || compOf[e.To] != comp {
			continue
		}
		addW(atomOf[int32(e.From)], atomOf[int32(e.To)])
	}
	// Adjacency lists in deterministic neighbor order.
	type nbr struct {
		atom int32
		w    int64
	}
	pairs := make([]wkey, 0, len(weight))
	for k := range weight {
		pairs = append(pairs, k)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].a != pairs[j].a {
			return pairs[i].a < pairs[j].a
		}
		return pairs[i].b < pairs[j].b
	})
	adj := make([][]nbr, na)
	for _, p := range pairs {
		w := weight[p]
		adj[p.a] = append(adj[p.a], nbr{atom: p.b, w: w})
		adj[p.b] = append(adj[p.b], nbr{atom: p.a, w: w})
	}

	// Seed: largest atoms first onto the lightest slice (ties to the
	// lowest index on both sides).
	order := make([]int32, na)
	for i := range order {
		order[i] = int32(i)
	}
	for i := 1; i < na; i++ { // insertion sort: stable, deterministic
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if atomSize[a] > atomSize[b] || (atomSize[a] == atomSize[b] && a < b) {
				break
			}
			order[j-1], order[j] = b, a
		}
	}
	assign := make([]int32, na)
	load := make([]int64, k)
	for _, a := range order {
		best := 0
		for s := 1; s < k; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		assign[a] = int32(best)
		load[best] += atomSize[a]
	}

	// KL-style refinement: move atoms toward their neighbors while the
	// cut shrinks and the balance bound holds.
	limit := int64(float64(len(members))/float64(k)*(1+balanceSlack)) + 1
	gainTo := make([]int64, k)
	for pass := 0; pass < refinePasses; pass++ {
		moved := false
		for a := int32(0); a < int32(na); a++ {
			if len(adj[a]) == 0 {
				continue
			}
			for s := range gainTo {
				gainTo[s] = 0
			}
			for _, nb := range adj[a] {
				gainTo[assign[nb.atom]] += nb.w
			}
			cur := assign[a]
			// Tie-breaking is explicitly deterministic: a move needs
			// strictly positive gain over staying put, and among equal
			// gains the lowest slice index wins because slices scan in
			// ascending order and later candidates must strictly beat
			// bestGain to displace an earlier one.
			best, bestGain := cur, int64(0)
			for s := int32(0); s < int32(k); s++ {
				if s == cur || load[s]+atomSize[a] > limit {
					continue
				}
				if gain := gainTo[s] - gainTo[cur]; gain > bestGain {
					best, bestGain = s, gain
				}
			}
			if best != cur {
				load[cur] -= atomSize[a]
				load[best] += atomSize[a]
				assign[a] = best
				moved = true
			}
		}
		if !moved {
			break
		}
	}

	// Drop empty slices, renumbering survivors in index order; a
	// collapse to one slice means the cut was not worth taking.
	remap := make([]int32, k)
	next := int32(0)
	for s := 0; s < k; s++ {
		if load[s] > 0 {
			remap[s] = next
			next++
		} else {
			remap[s] = -1
		}
	}
	if next < 2 {
		return false
	}
	for _, i := range members {
		sliceOf[i] = remap[assign[atomOf[i]]]
	}
	return true
}
