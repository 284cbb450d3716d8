package obs

import (
	"fmt"
	"strings"
	"time"

	"rootreplay/internal/core"
	"rootreplay/internal/metrics"
	"rootreplay/internal/trace"
)

// Hop is one link of a replay's critical path: an action together with
// the binding constraint that gated its issue.
type Hop struct {
	// Action is the trace index; TID and Call identify it.
	Action int
	TID    int
	Call   string
	// Issue and Done are the action's replay times.
	Issue, Done time.Duration
	// From is the binding predecessor action, or -1 for the first hop.
	From int
	// Via describes the binding constraint: ViaStart (nothing gated the
	// action), ViaThread (same-thread replay order), or ViaEdge (a
	// dependency edge; Res and Kind are then meaningful).
	Via  ViaKind
	Res  core.ResourceID
	Kind core.EdgeKind
	// Slack is how long after the binding constraint released the action
	// it actually issued: predelay sleep plus scheduling/queueing delay.
	Slack time.Duration
}

// ViaKind classifies a hop's binding constraint.
type ViaKind uint8

// Binding-constraint kinds.
const (
	ViaStart ViaKind = iota
	ViaThread
	ViaEdge
)

// String names the constraint for reports.
func (v ViaKind) String() string {
	switch v {
	case ViaThread:
		return "thread-order"
	case ViaEdge:
		return "edge"
	default:
		return "start"
	}
}

// CriticalPath is the longest dependency chain of a completed replay:
// the answer to "why did this replay take this long".
type CriticalPath struct {
	// Elapsed is the completion time of the path's final action, i.e.
	// the replay's elapsed time.
	Elapsed time.Duration
	// Hops in chronological order; the last hop is the latest-finishing
	// action.
	Hops []Hop
	// InCall and Slack partition Elapsed: total in-call time along the
	// path plus total slack between hops.
	InCall, Slack time.Duration
}

// Critical walks a completed replay backward from its latest-finishing
// action, at each step re-deriving the constraint that actually gated
// the action's issue: the completion of its same-thread predecessor, or
// the satisfaction of a WaitComplete/WaitIssue dependency edge,
// whichever released last. Ties prefer the earlier-ordered candidate
// (thread order first, then edges in graph order), which keeps the walk
// deterministic. issue and done are the replay's per-action times; recs
// supplies thread and call identity.
func Critical(g *core.Graph, recs []*trace.Record, issue, done []time.Duration) *CriticalPath {
	n := g.N
	if n == 0 || len(recs) != n || len(issue) != n || len(done) != n {
		return &CriticalPath{}
	}
	// Same-thread predecessor of each action.
	prev := make([]int32, n)
	lastOf := make(map[int]int)
	for i := 0; i < n; i++ {
		prev[i] = -1
		if p, ok := lastOf[recs[i].TID]; ok {
			prev[i] = int32(p)
		}
		lastOf[recs[i].TID] = i
	}
	// The path ends at the latest completion (lowest index on ties).
	end := 0
	for i := 1; i < n; i++ {
		if done[i] > done[end] {
			end = i
		}
	}
	cp := &CriticalPath{Elapsed: done[end]}
	var hops []Hop
	for cur := end; cur >= 0; {
		h := Hop{
			Action: cur,
			TID:    recs[cur].TID,
			Call:   recs[cur].Call,
			Issue:  issue[cur],
			Done:   done[cur],
			From:   -1,
			Via:    ViaStart,
		}
		release := time.Duration(0) // ViaStart: gated only by replay start
		if p := prev[cur]; p >= 0 && done[p] > release {
			release = done[p]
			h.From, h.Via = int(p), ViaThread
		}
		for _, ei := range g.Deps(cur) {
			e := &g.Edges[ei]
			var rel time.Duration
			if e.Kind == core.WaitComplete {
				rel = done[e.From]
			} else {
				rel = issue[e.From]
			}
			if rel > release {
				release = rel
				h.From, h.Via = e.From, ViaEdge
				h.Res, h.Kind = e.Res, e.Kind
			}
		}
		h.Slack = issue[cur] - release
		if h.Slack < 0 {
			h.Slack = 0
		}
		hops = append(hops, h)
		cp.InCall += h.Done - h.Issue
		cp.Slack += h.Slack
		cur = h.From
		if len(hops) > n {
			// A well-formed replay's binding constraints always point
			// backward, but stall reports walk partially-executed (and
			// possibly hand-built cyclic) graphs; cap the walk so a
			// malformed chain cannot loop.
			break
		}
	}
	// Reverse into chronological order.
	for i, j := 0, len(hops)-1; i < j; i, j = i+1, j-1 {
		hops[i], hops[j] = hops[j], hops[i]
	}
	cp.Hops = hops
	return cp
}

// Format renders the critical path as a fixed-width table: one row per
// hop with issue/done times, in-call time, slack, and the binding
// constraint (resource for edge hops). maxHops > 0 elides the middle of
// longer paths, keeping the first and last maxHops/2 rows.
func (cp *CriticalPath) Format(maxHops int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "critical path: %d hop(s), elapsed %v (in-call %v, slack %v)\n",
		len(cp.Hops), cp.Elapsed, cp.InCall, cp.Slack)
	if len(cp.Hops) == 0 {
		return b.String()
	}
	rows := make([]int, 0, len(cp.Hops))
	elide := -1
	if maxHops > 0 && len(cp.Hops) > maxHops {
		head := (maxHops + 1) / 2
		tail := maxHops - head
		for i := 0; i < head; i++ {
			rows = append(rows, i)
		}
		elide = len(rows)
		for i := len(cp.Hops) - tail; i < len(cp.Hops); i++ {
			rows = append(rows, i)
		}
	} else {
		for i := range cp.Hops {
			rows = append(rows, i)
		}
	}
	t := metrics.NewTable("#", "action", "thr", "call", "issue", "in-call", "slack", "via")
	for ri, i := range rows {
		if ri == elide && elide >= 0 {
			t.Row("...", "", "", "", "", "", "", fmt.Sprintf("(%d hops elided)", len(cp.Hops)-len(rows)))
		}
		h := cp.Hops[i]
		via := h.Via.String()
		if h.Via == ViaEdge {
			via = h.Res.String()
			if h.Kind == core.WaitIssue {
				via += " (issue)"
			}
		}
		t.Row(i, h.Action, fmt.Sprintf("T%d", h.TID), h.Call,
			metrics.FmtDur(h.Issue), metrics.FmtDur(h.Done-h.Issue), metrics.FmtDur(h.Slack), via)
	}
	b.WriteString(t.String())
	return b.String()
}
