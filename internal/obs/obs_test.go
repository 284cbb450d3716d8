package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"rootreplay/internal/core"
	"rootreplay/internal/sim"
	"rootreplay/internal/trace"
)

// mkGraph indexes a hand-written edge list; obs tests hand-build graphs
// because the public compile path is overkill here.
func mkGraph(n int, edges []core.Edge) *core.Graph {
	return core.NewGraph(n, edges)
}

// TestSpanLayout holds a span to what DESIGN.md says of it: 64 bytes,
// names as indices into the recorder's table, and nothing in it for the
// collector to follow. A field that can carry a pointer, or an 8-byte
// field moved in among the 4-byte ones, fails it.
func TestSpanLayout(t *testing.T) {
	typ := reflect.TypeOf(Span{})
	if typ.Size() != 64 {
		t.Errorf("a span is %d bytes, want 64", typ.Size())
	}
	for i := 0; i < typ.NumField(); i++ {
		switch k := typ.Field(i).Type.Kind(); k {
		case reflect.Int32, reflect.Int64:
		default:
			t.Errorf("field %s is a %v: a span must stay pointer-free", typ.Field(i).Name, k)
		}
	}
	r := NewRecorder(1, 1)
	if r.Str(0) != "" || r.Intern("") != 0 || len(r.Names()) != 1 {
		t.Fatalf("name 0 is not the empty string: table %q", r.Names())
	}
	if n := r.Intern("pread"); n == 0 || r.Str(n) != "pread" || r.Intern("pread") != n || r.Names()[n] != "pread" {
		t.Fatalf("interning pread gave %d, table %q", n, r.Names())
	}
	var nilRec *Recorder
	if nilRec.Intern("open") != 0 || nilRec.Str(0) != "" || nilRec.Names() != nil {
		t.Fatal("a nil recorder interns")
	}
}

func TestNilRecorderIsNoop(t *testing.T) {
	var r *Recorder
	r.Record(Span{})
	r.Sample(0, CounterRunq, 1)
	if got := r.Spans(); got != nil {
		t.Fatalf("nil recorder Spans = %v, want nil", got)
	}
	if got := r.Samples(); got != nil {
		t.Fatalf("nil recorder Samples = %v, want nil", got)
	}
	if s, c := r.Dropped(); s != 0 || c != 0 {
		t.Fatalf("nil recorder Dropped = %d,%d", s, c)
	}
	r.Reset()
	remove := r.InstallProbes(nil, 0, Probe{Kind: CounterRunq, Fn: func() float64 { return 0 }})
	remove()
}

// The span ring is stored in fixed-size chunks. Whatever the capacity —
// smaller than a chunk, exactly one, one past, several and a part — the
// recorder keeps the newest spanCap spans oldest first, counts the rest
// as dropped, exports what the reference exporter does (sorting only the
// same-instant runs), and starts over after Reset without growing.
func TestSpanRingWraps(t *testing.T) {
	for _, spanCap := range []int{4, spanChunk, spanChunk + 1, 2*spanChunk + 37} {
		r := NewRecorder(spanCap, 4)
		for _, n := range []int{spanCap - 1, spanCap, spanCap + 6, 3*spanCap + 5} {
			r.Reset()
			for i := 0; i < n; i++ {
				// Pairs complete at one instant, higher action first, so
				// the export has a tie to sort in every pair.
				r.Record(Span{Action: int32(i ^ 1), TID: int32(i % 3), Call: r.Intern("c"), Done: time.Duration(i / 2)})
			}
			kept := min(n, spanCap)
			got := r.Spans()
			if len(got) != kept {
				t.Fatalf("cap %d after %d records: len(Spans) = %d, want %d", spanCap, n, len(got), kept)
			}
			for i, sp := range got {
				if want := int32((n - kept + i) ^ 1); sp.Action != want {
					t.Fatalf("cap %d after %d records: Spans[%d].Action = %d, want %d (oldest first)", spanCap, n, i, sp.Action, want)
				}
			}
			if drops, _ := r.Dropped(); drops != n-kept {
				t.Fatalf("cap %d after %d records: span drops = %d, want %d", spanCap, n, drops, n-kept)
			}
			var fast, ref bytes.Buffer
			if err := r.WriteChrome(&fast); err != nil {
				t.Fatal(err)
			}
			if err := writeChromeReference(r, &ref); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fast.Bytes(), ref.Bytes()) {
				t.Fatalf("cap %d after %d records: export differs from the reference exporter's", spanCap, n)
			}
		}
		if want := (spanCap + spanChunk - 1) / spanChunk; len(r.spanChunks) != want {
			t.Fatalf("cap %d: %d chunks after four fills, want %d", spanCap, len(r.spanChunks), want)
		}
	}
}

func TestSampleCoalescing(t *testing.T) {
	r := NewRecorder(4, 16)
	r.Sample(1, CounterRunq, 2)
	r.Sample(2, CounterRunq, 2) // identical consecutive value: dropped
	r.Sample(3, CounterRunq, 3)
	r.Sample(4, CounterIOQueued, 3) // different track: kept
	r.Sample(5, CounterRunq, 3)     // repeat again: dropped
	got := r.Samples()
	if len(got) != 3 {
		t.Fatalf("len(Samples) = %d, want 3: %+v", len(got), got)
	}
	if got[0].At != 1 || got[1].At != 3 || got[2].At != 4 {
		t.Fatalf("sample times = %v,%v,%v, want 1,3,4", got[0].At, got[1].At, got[2].At)
	}
}

func TestResetClearsCoalescingState(t *testing.T) {
	r := NewRecorder(4, 4)
	r.Sample(1, CounterRunq, 7)
	r.Reset()
	r.Sample(2, CounterRunq, 7)
	if got := r.Samples(); len(got) != 1 {
		t.Fatalf("after Reset, len(Samples) = %d, want 1", len(got))
	}
}

func TestInstallProbesSamplesOnVirtualClock(t *testing.T) {
	k := sim.NewKernel()
	r := NewRecorder(16, 16)
	n := 0
	remove := r.InstallProbes(k, 10*time.Microsecond, Probe{
		Kind: CounterRunq,
		Fn:   func() float64 { n++; return float64(n) },
	})
	k.Spawn("w", func(tt *sim.Thread) {
		for i := 0; i < 5; i++ {
			tt.Sleep(25 * time.Microsecond)
		}
	})
	k.Run()
	remove()
	if n < 2 {
		t.Fatalf("probe fired %d time(s), want >= 2", n)
	}
	samples := r.Samples()
	if len(samples) == 0 {
		t.Fatal("no samples recorded")
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].At < samples[i-1].At {
			t.Fatalf("samples out of order: %v after %v", samples[i].At, samples[i-1].At)
		}
	}
}

// chainTimes builds issue/done arrays for a 3-action two-thread replay:
// T1 runs a0 then a2, T2 runs a1; a2 also depends on a1 completing and
// a1's completion is the binding (later) constraint.
func chainFixture() (*core.Graph, *trace.Trace, []time.Duration, []time.Duration) {
	g := mkGraph(3, []core.Edge{
		{From: 1, To: 2, Kind: core.WaitComplete,
			Res: core.ResourceID{Kind: core.KFD, Name: "3", Gen: 1}},
	})
	tr := &trace.Trace{}
	s := tr.Intern
	tr.Records = []trace.Record{
		{TID: 1, Call: s("open")},
		{TID: 2, Call: s("pwrite")},
		{TID: 1, Call: s("pread")},
	}
	issue := []time.Duration{0, 0, 130}
	done := []time.Duration{50, 120, 200}
	return g, tr, issue, done
}

func TestCriticalPath(t *testing.T) {
	g, recs, issue, done := chainFixture()
	cp := Critical(g, recs, issue, done)
	if cp.Elapsed != 200 {
		t.Fatalf("Elapsed = %v, want 200", cp.Elapsed)
	}
	if len(cp.Hops) != 2 {
		t.Fatalf("hops = %d, want 2 (a1 -> a2): %+v", len(cp.Hops), cp.Hops)
	}
	// Chronological: first a1 (start), then a2 (via the fd edge).
	if cp.Hops[0].Action != 1 || cp.Hops[0].Via != ViaStart {
		t.Fatalf("hop 0 = %+v, want action 1 via start", cp.Hops[0])
	}
	h := cp.Hops[1]
	if h.Action != 2 || h.From != 1 || h.Via != ViaEdge || h.Kind != core.WaitComplete {
		t.Fatalf("hop 1 = %+v, want action 2 from 1 via edge", h)
	}
	if h.Slack != 10 { // issued at 130, released at done[1]=120
		t.Fatalf("hop 1 slack = %v, want 10", h.Slack)
	}
	if cp.InCall != (120-0)+(200-130) {
		t.Fatalf("InCall = %v, want 190", cp.InCall)
	}
	if cp.Slack != 10 {
		t.Fatalf("Slack = %v, want 10", cp.Slack)
	}
	out := cp.Format(0)
	for _, want := range []string{"critical path: 2 hop(s)", "pwrite", "pread", "fd(3)@1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format output missing %q:\n%s", want, out)
		}
	}
}

func TestCriticalPathThreadOrder(t *testing.T) {
	// Single thread, no edges: the path is pure thread order.
	g := mkGraph(2, nil)
	recs := &trace.Trace{}
	recs.Records = []trace.Record{{TID: 1, Call: recs.Intern("open")}, {TID: 1, Call: recs.Intern("close")}}
	issue := []time.Duration{0, 60}
	done := []time.Duration{50, 90}
	cp := Critical(g, recs, issue, done)
	if len(cp.Hops) != 2 || cp.Hops[1].Via != ViaThread {
		t.Fatalf("hops = %+v, want 2 hops ending via thread-order", cp.Hops)
	}
	if cp.Hops[1].Slack != 10 {
		t.Fatalf("slack = %v, want 10", cp.Hops[1].Slack)
	}
}

func TestCriticalPathFormatElision(t *testing.T) {
	n := 10
	recs := &trace.Trace{Records: make([]trace.Record, n)}
	issue := make([]time.Duration, n)
	done := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		recs.Records[i] = trace.Record{TID: 1, Call: recs.Intern("write")}
		issue[i] = time.Duration(i * 10)
		done[i] = time.Duration(i*10 + 10)
	}
	cp := Critical(mkGraph(n, nil), recs, issue, done)
	if len(cp.Hops) != n {
		t.Fatalf("hops = %d, want %d", len(cp.Hops), n)
	}
	out := cp.Format(4)
	if !strings.Contains(out, "hops elided") {
		t.Fatalf("Format(4) should elide middle hops:\n%s", out)
	}
}

func TestCriticalPathEmptyAndMismatched(t *testing.T) {
	cp := Critical(&core.Graph{}, &trace.Trace{}, nil, nil)
	if cp == nil || len(cp.Hops) != 0 {
		t.Fatalf("empty graph: %+v", cp)
	}
	g := mkGraph(2, nil)
	cp = Critical(g, &trace.Trace{Records: []trace.Record{{TID: 1}}}, nil, nil) // lengths disagree
	if cp == nil || len(cp.Hops) != 0 {
		t.Fatalf("mismatched inputs should yield empty path: %+v", cp)
	}
}

func TestWriteChromeValidAndDeterministic(t *testing.T) {
	record := func(r *Recorder) {
		r.Record(Span{Action: 0, TID: 2, Call: r.Intern("open"), WaitStart: 0, Issue: 0,
			Done: 50 * time.Microsecond, ReleasedBy: -1})
		r.Record(Span{Action: 1, TID: 1, Call: r.Intern("pread"), WaitStart: 10 * time.Microsecond,
			Issue: 60 * time.Microsecond, Done: 90 * time.Microsecond,
			Predelay:   5 * time.Microsecond,
			ReleasedBy: 0, ReleasedAt: 50 * time.Microsecond, ReleaseRes: r.Intern("fd(3)@1")})
		r.Sample(0, CounterRunq, 1)
		r.Sample(20*time.Microsecond, CounterRunq, 2)
	}
	var bufs [2]bytes.Buffer
	for i := range bufs {
		r := NewRecorder(16, 16)
		record(r)
		if err := r.WriteChrome(&bufs[i]); err != nil {
			t.Fatalf("WriteChrome: %v", err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Fatal("WriteChrome output differs across identical recorders")
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(bufs[0].Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	counts := map[string]int{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		counts[ph]++
	}
	// 2 thread_name metadata, 2 call slices + 1 wait slice, 1 flow pair,
	// 2 counter samples.
	want := map[string]int{"M": 2, "X": 3, "s": 1, "f": 1, "C": 2}
	for ph, n := range want {
		if counts[ph] != n {
			t.Fatalf("event counts %v, want %v", counts, want)
		}
	}
}

func TestSummary(t *testing.T) {
	r := NewRecorder(16, 16)
	r.Record(Span{Action: 0, TID: 1, Call: r.Intern("open"), Issue: 0, Done: 40 * time.Microsecond, ReleasedBy: -1})
	r.Record(Span{Action: 1, TID: 1, Call: r.Intern("pread"), WaitStart: 40 * time.Microsecond,
		Issue: 60 * time.Microsecond, Done: 160 * time.Microsecond, ReleasedBy: -1})
	r.Sample(0, CounterRunq, 3)
	out := r.Summary()
	for _, want := range []string{"spans: 2 recorded", "pread", "open", "runq"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Summary missing %q:\n%s", want, out)
		}
	}
	// pread has more in-call time (100µs vs 40µs) and must sort first.
	if strings.Index(out, "pread") > strings.Index(out, "open") {
		t.Fatalf("Summary not sorted by in-call time:\n%s", out)
	}
}
