package core

import (
	"math/rand"
	"testing"
	"time"

	"rootreplay/internal/trace"
)

// fakeAnalysis builds the minimal Analysis Reduce needs: actions with
// thread IDs, in trace order.
func fakeAnalysis(tids []int) *Analysis {
	an := &Analysis{Trace: &trace.Trace{}}
	for i, tid := range tids {
		an.Trace.Records = append(an.Trace.Records, trace.Record{
			Seq: int64(i), TID: int32(tid),
			Start: time.Duration(i) * time.Millisecond,
		})
		an.Actions = append(an.Actions, Action{CanonPath: -1, CanonPath2: -1, FDHint: -1})
	}
	return an
}

// randomCompleteGraph generates a random forward WaitComplete edge set
// over n actions spread across nt threads.
func randomCompleteGraph(rng *rand.Rand, n, nt, edges int) (*Analysis, *Graph) {
	tids := make([]int, n)
	for i := range tids {
		tids[i] = rng.Intn(nt)
	}
	an := fakeAnalysis(tids)
	var es []Edge
	for len(es) < edges {
		from := rng.Intn(n)
		to := rng.Intn(n)
		if from >= to || tids[from] == tids[to] {
			continue
		}
		es = append(es, Edge{From: from, To: to, Kind: WaitComplete})
	}
	return an, newGraph(n, dedupEdges(es, len(es)))
}

// randomSchedule executes the graph with an indegree scheduler making
// random choices: each step issues a random eligible action (thread
// order and every WaitComplete edge respected) and completes it after a
// random in-flight delay, so issued actions overlap across threads. The
// result is a valid order for g by construction.
func randomSchedule(rng *rand.Rand, an *Analysis, g *Graph) (issue, complete []time.Duration) {
	n := g.N
	issue = make([]time.Duration, n)
	complete = make([]time.Duration, n)
	done := make([]bool, n)
	issued := make([]bool, n)
	prevSame := make([]int, n) // same-thread predecessor, -1 if first
	lastOf := map[int32]int{}
	for i := 0; i < n; i++ {
		prevSame[i] = -1
		tid := an.Trace.Records[i].TID
		if p, ok := lastOf[tid]; ok {
			prevSame[i] = p
		}
		lastOf[tid] = i
	}
	now := time.Duration(1)
	remaining := n
	for remaining > 0 {
		var ready []int
		for i := 0; i < n; i++ {
			if issued[i] {
				continue
			}
			ok := prevSame[i] < 0 || (done[prevSame[i]] && complete[prevSame[i]] <= now)
			for _, ei := range g.Deps(i) {
				f := g.Edges[ei].From
				if !done[f] || complete[f] > now {
					ok = false
				}
			}
			if ok {
				ready = append(ready, i)
			}
		}
		if len(ready) == 0 {
			// Advance time to the next completion.
			var next time.Duration
			for i := 0; i < n; i++ {
				if done[i] && complete[i] > now && (next == 0 || complete[i] < next) {
					next = complete[i]
				}
			}
			now = next
			continue
		}
		i := ready[rng.Intn(len(ready))]
		issue[i] = now
		complete[i] = now + time.Duration(1+rng.Intn(5))
		issued[i], done[i] = true, true
		now++
		remaining--
	}
	return issue, complete
}

// TestReduceOrderEquivalence is the reduction invariant: the reduced
// graph admits exactly the same valid orders as the full graph. The
// easy direction (reduced edges are a subset, so full-valid implies
// reduced-valid) is checked structurally; the load-bearing direction is
// checked by scheduling each REDUCED graph randomly many times — with
// real cross-thread overlap — and validating every resulting order
// against the FULL graph. A dropped-but-needed edge would let some
// schedule reorder its endpoints and fail full validation.
func TestReduceOrderEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(40)
		nt := 2 + rng.Intn(4)
		an, g := randomCompleteGraph(rng, n, nt, 1+rng.Intn(3*n))
		gr := g.Reduce(an)

		// Structural subset: every kept edge exists in the full graph.
		full := map[[2]int]bool{}
		for _, e := range g.Edges {
			full[[2]int{e.From, e.To}] = true
		}
		for _, e := range gr.Edges {
			if !full[[2]int{e.From, e.To}] {
				t.Fatalf("trial %d: reduced edge %d->%d not in full graph", trial, e.From, e.To)
			}
		}
		if len(gr.Edges)+gr.ReducedEdges != len(g.Edges) {
			t.Fatalf("trial %d: edge accounting: %d kept + %d reduced != %d raw",
				trial, len(gr.Edges), gr.ReducedEdges, len(g.Edges))
		}

		for run := 0; run < 10; run++ {
			issue, complete := randomSchedule(rng, an, gr)
			if err := gr.ValidateOrder(issue, complete); err != nil {
				t.Fatalf("trial %d: schedule invalid against its own graph: %v", trial, err)
			}
			if err := g.ValidateOrder(issue, complete); err != nil {
				t.Fatalf("trial %d: reduced-valid order rejected by full graph: %v", trial, err)
			}
		}
	}
}

// TestReduceStageFanOut is the edge-count regression bound: the stage
// rule's create -> every-later-action fan-out must collapse to at most
// one edge per consuming thread.
func TestReduceStageFanOut(t *testing.T) {
	const threads, perThread = 4, 25
	tids := []int{0}
	var edges []Edge
	for th := 1; th <= threads; th++ {
		for k := 0; k < perThread; k++ {
			edges = append(edges, Edge{From: 0, To: len(tids), Kind: WaitComplete})
			tids = append(tids, th)
		}
	}
	an := fakeAnalysis(tids)
	g := newGraph(len(tids), edges)
	gr := g.Reduce(an)
	if len(gr.Edges) != threads {
		t.Fatalf("reduced fan-out kept %d edges, want %d (one per thread)", len(gr.Edges), threads)
	}
	if gr.ReducedEdges != threads*perThread-threads {
		t.Fatalf("ReducedEdges = %d, want %d", gr.ReducedEdges, threads*perThread-threads)
	}
}

// TestReduceChain: a -> b -> c chains imply a -> c, so the direct edge
// is dropped; the chain itself stays.
func TestReduceChain(t *testing.T) {
	an := fakeAnalysis([]int{0, 1, 2})
	g := newGraph(3, []Edge{
		{From: 0, To: 1, Kind: WaitComplete},
		{From: 1, To: 2, Kind: WaitComplete},
		{From: 0, To: 2, Kind: WaitComplete},
	})
	gr := g.Reduce(an)
	if len(gr.Edges) != 2 || gr.ReducedEdges != 1 {
		t.Fatalf("kept %d edges (reduced %d), want 2 (reduced 1)", len(gr.Edges), gr.ReducedEdges)
	}
	for _, e := range gr.Edges {
		if e.From == 0 && e.To == 2 {
			t.Fatal("transitive edge 0->2 survived reduction")
		}
	}
}

// TestReduceLeavesWaitIssueGraphsAlone: temporal graphs carry
// issue-strength edges, where chain implication is unsound; Reduce must
// return them unchanged.
func TestReduceLeavesWaitIssueGraphsAlone(t *testing.T) {
	an := fakeAnalysis([]int{0, 1, 2})
	g := newGraph(3, []Edge{
		{From: 0, To: 1, Kind: WaitIssue},
		{From: 1, To: 2, Kind: WaitIssue},
		{From: 0, To: 2, Kind: WaitIssue},
	})
	if gr := g.Reduce(an); gr != g {
		t.Fatal("Reduce modified a WaitIssue graph")
	}
}

// TestReduceFigure2EndToEnd reduces a real BuildGraph output and checks
// acyclicity plus the raw-count bookkeeping Fig. 8 reports.
func TestReduceFigure2EndToEnd(t *testing.T) {
	an := analyze(t, figure2Trace(), figure2Snapshot())
	g := BuildGraph(an, DefaultModes())
	gr := g.Reduce(an)
	if err := gr.CheckAcyclic(); err != nil {
		t.Fatal(err)
	}
	if len(gr.Edges) > len(g.Edges) {
		t.Fatalf("reduction grew the graph: %d -> %d", len(g.Edges), len(gr.Edges))
	}
	st := gr.Stats(an)
	if st.Edges+st.ReducedEdges != len(g.Edges) {
		t.Fatalf("stats raw count %d != BuildGraph count %d", st.Edges+st.ReducedEdges, len(g.Edges))
	}
}
