package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public API.
// Spans are named "<layer>.<Call>"; the layer is the module the call
// enters. Nothing inside the program under test is instrumented, so a
// span's self time is the whole cost of the call minus whatever other
// benchmark spans were opened inside it.
//
// Every method is safe on a nil *span and does nothing: an untraced
// iteration passes nil down the same code path a traced one runs.
type span struct {
	tr     *tracer
	ID     int
	Parent int // 0 for a root
	Name   string
	Iter   int // iteration the span belongs to; -1 is the detail pass
	Lane   int // goroutine lane; spans of one lane never overlap unless nested
	Start  time.Duration
	End    time.Duration
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	workload string
	epoch    time.Time
	mu       sync.Mutex
	spans    []*span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

func (t *tracer) open(parent, iter, lane int, name string) *span {
	s := &span{tr: t, Parent: parent, Name: name, Iter: iter, Lane: lane}
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	s.Start = time.Since(t.epoch)
	return s
}

// root opens the span that brackets one whole iteration (or the detail
// pass, iter -1).
func (t *tracer) root(name string, iter int) *span {
	if t == nil {
		return nil
	}
	return t.open(0, iter, 0, name)
}

// child opens a span caused by s, on s's lane.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return s.tr.open(s.ID, s.Iter, s.Lane, name)
}

// fork opens a child that runs on its own goroutine lane, so that
// concurrent children (the service's two clients) do not share a track.
func (s *span) fork(name string, lane int) *span {
	if s == nil {
		return nil
	}
	return s.tr.open(s.ID, s.Iter, lane, name)
}

func (s *span) done() {
	if s != nil {
		s.End = time.Since(s.tr.epoch)
	}
}

func (s *span) dur() time.Duration {
	if s == nil {
		return 0
	}
	return s.End - s.Start
}

// self is the span's duration minus the part of it its children cover
// (the union of their intervals, so parallel children are not counted
// twice).
func (t *tracer) self(s *span) time.Duration {
	var kids []*span
	for _, c := range t.spans {
		if c.Parent == s.ID {
			kids = append(kids, c)
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	covered, edge := time.Duration(0), s.Start
	for _, c := range kids {
		from, to := c.Start, c.End
		if from < edge {
			from = edge
		}
		if to > from {
			covered += to - from
			edge = to
		}
	}
	return s.dur() - covered
}

// total sums the durations of iteration iter's spans named name.
func (t *tracer) total(iter int, name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Iter == iter && s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// layerSelf sums self time per layer over iteration iter, the root
// span's own self time under "unattributed".
func (t *tracer) layerSelf(iter int) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		if s.Iter != iter {
			continue
		}
		layer := "unattributed"
		if s.Parent != 0 {
			layer, _, _ = strings.Cut(s.Name, ".")
		}
		out[layer] += t.self(s)
	}
	return out
}

// writeChrome writes the spans as a Chrome trace_event file (open it in
// Perfetto or chrome://tracing): one complete event per span, one track
// per lane, parent and iteration ids in args.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		events = append(events, event{
			Name: s.Name, Cat: layer, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.dur()) / float64(time.Microsecond),
			Pid: 1, Tid: s.Lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "iter": s.Iter, "workload": t.workload},
		})
	}
	doc, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, doc, 0o644)
}
