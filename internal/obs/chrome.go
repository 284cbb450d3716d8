package obs

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rootreplay/internal/metrics"
)

// Chrome trace_event export: the recorder's spans and counters rendered
// in the JSON Object Format that Perfetto and chrome://tracing load.
//
// Layout: everything lives under pid 1. Each replayed (traced) thread is
// a track keyed by its TID, named by a thread_name metadata event. Every
// action contributes a complete ("X") slice for its in-call time; if it
// waited before issuing, a second slice in category "wait" covers the
// wait. Dependency releases are flow events ("s"/"f") from the releasing
// action's track to the released action's issue, so Perfetto draws the
// satisfied edge. Counters are "C" events, one named track per
// CounterKind.
//
// All timestamps are virtual-clock microseconds. Because the recorder's
// contents are deterministic and the writer iterates in fixed order
// (metadata by sorted TID, then spans, then samples, in record order),
// the byte stream is identical across runs.
//
// The bytes are exactly those encoding/json produced when the exporter
// built a []struct with boxed args maps and handed it to json.Encoder
// (that exporter is now the test oracle, chrome_oracle_test.go): the
// same field order and omitted-when-zero fields, args keys sorted, the
// same number and string rendering including HTML escaping, the same
// trailing newline. The golden exports and the CLI ≡ HTTP ≡ sliced
// byte-identity lanes depend on that, so every rule below is one of
// encoding/json's, not a choice.

// usec converts a virtual duration to trace_event microseconds.
func usec(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// CompareSpans is the canonical export order, (Done, Action). Completion
// times are monotone within a run, so sorting by it only permutes
// same-instant ties — and those ties are where serial and sliced replays
// legitimately record in different (but equally valid) orders.
func CompareSpans(a, b *Span) int {
	if c := cmp.Compare(a.Done, b.Done); c != 0 {
		return c
	}
	return cmp.Compare(a.Action, b.Action)
}

// chromeChunk is how many encoded bytes accumulate before they are
// handed to the writer: large enough that a file export costs a few
// hundred write calls, small enough to stay in cache.
const chromeChunk = 64 << 10

// chromeBufs recycles the buffer WriteChrome encodes into, which holds a
// small document whole and so would otherwise grow anew for each one.
var chromeBufs = sync.Pool{New: func() any { return new([]byte) }}

// WriteChrome writes the recorder's contents as Chrome trace_event JSON.
// Spans are emitted in CompareSpans order rather than raw record order,
// which makes the export a pure function of the recorded span set, so
// sliced output can be byte-compared to serial.
//
// The document streams to w in chunks (a small one in one piece). A
// counter sample that JSON cannot represent fails the export with
// *json.UnsupportedValueError before anything is written; after that the
// only error is w's. A w with a Grow(int) method, as bytes.Buffer has, is
// first told how much is coming, so that it need not double its way up.
func (r *Recorder) WriteChrome(w io.Writer) error {
	if r == nil {
		r = &Recorder{}
	}
	samples, sampleHead := r.samples, r.sampleHead
	// sampleAt is the i'th sample in record order.
	sampleAt := func(i int) *Sample { return &samples[(sampleHead+i)%len(samples)] }
	for i := range samples {
		if v := sampleAt(i).Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return &json.UnsupportedValueError{Value: reflect.ValueOf(v), Str: strconv.FormatFloat(v, 'g', -1, 64)}
		}
	}

	// order lists the spans, read in place through their ring positions,
	// oldest first and then canonically.
	order := make([]int32, r.spanLen)
	for i := range order {
		order[i] = int32((r.spanHead + i) % r.spanLen)
	}
	r.sortCanonical(order)

	var tids []int32
	seen := make(map[int32]struct{})
	lastTID := int32(-1)
	for i, pos := range order {
		tid := r.spanAt(int(pos)).TID
		if i > 0 && tid == lastTID {
			continue
		}
		lastTID = tid
		if _, ok := seen[tid]; !ok {
			seen[tid] = struct{}{}
			tids = append(tids, tid)
		}
	}
	slices.Sort(tids)
	recorded := r.indexActions(order)
	names := r.quotedNames()

	// A document no larger than what extrapolate would encode to size it
	// is encoded once, whole, and sized exactly before it is written.
	whole := len(order) <= sizeSample && len(samples) <= sizeSample
	bp := chromeBufs.Get().(*[]byte)
	b := slices.Grow((*bp)[:0], chromeChunk+4<<10)
	defer func() { *bp = b[:0]; chromeBufs.Put(bp) }()
	g, growable := w.(interface{ Grow(int) })
	if growable && !whole {
		scratch := b
		size := 64 + 96*len(tids)
		size += extrapolate(len(order), func(i int) int {
			scratch = r.appendSpan(scratch[:0], order[i], &recorded, names)
			return len(scratch) + 1
		})
		size += extrapolate(len(samples), func(i int) int {
			scratch = appendSample(scratch[:0], sampleAt(i))
			return len(scratch) + 1
		})
		g.Grow(size + size/16) // a short guess costs a doubling, a long one its excess
	}

	var err error
	b = append(b, `{"traceEvents":[`...)
	sep := "" // "," once the first event is out
	for _, tid := range tids {
		b = append(b, sep...)
		b = append(b, `{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":`...)
		b = strconv.AppendInt(b, int64(tid), 10)
		b = append(b, `,"args":{"name":"replay-T`...)
		b = strconv.AppendInt(b, int64(tid), 10)
		b = append(b, `"}}`...)
		sep = ","
	}
	for _, pos := range order {
		b = append(b, sep...)
		b = r.appendSpan(b, pos, &recorded, names)
		sep = ","
		if !whole && len(b) >= chromeChunk {
			if b, err = writeChunk(w, b); err != nil {
				return err
			}
		}
	}
	for i := range samples {
		b = append(b, sep...)
		b = appendSample(b, sampleAt(i))
		sep = ","
		if !whole && len(b) >= chromeChunk {
			if b, err = writeChunk(w, b); err != nil {
				return err
			}
		}
	}
	b = append(b, `],"displayTimeUnit":"ms"}`...)
	b = append(b, '\n')
	if growable && whole {
		g.Grow(len(b))
	}
	_, err = writeChunk(w, b)
	return err
}

// sortCanonical puts order, ring positions in record order, into
// CompareSpans order. One replay records completions as they happen, so
// Done never decreases along order and only the runs of spans that
// completed at the same instant (recorded in run order, not Action order)
// need sorting: one pass. Anything else, such as the merged recorders of
// an unsliced sharded replay, gets the full sort.
func (r *Recorder) sortCanonical(order []int32) {
	canonical := func(i, j int32) int { return CompareSpans(r.spanAt(int(i)), r.spanAt(int(j))) }
	run := 0 // start of the current run of equal Done
	for i := 1; i <= len(order); i++ {
		if i < len(order) {
			prev, cur := r.spanAt(int(order[i-1])).Done, r.spanAt(int(order[i])).Done
			if cur < prev {
				slices.SortFunc(order, canonical)
				return
			}
			if cur == prev {
				continue
			}
		}
		if i-run > 1 {
			slices.SortFunc(order[run:i], canonical)
		}
		run = i
	}
}

// quotedNames renders every name of the table as a JSON string, once
// per export, indexed by Name. The slab is sized for names with nothing
// to escape; one that outgrows it leaves the names already written
// where they were.
func (r *Recorder) quotedNames() [][]byte {
	quoted := make([][]byte, len(r.names))
	size := 0
	for _, s := range r.names {
		size += len(s) + 2
	}
	slab := make([]byte, 0, size)
	for i, s := range r.names {
		start := len(slab)
		slab = appendJSONString(slab, s)
		quoted[i] = slab[start:len(slab):len(slab)]
	}
	return quoted
}

// appendSpan appends the events of the span at ring position pos: its
// wait slice if it waited, its call slice, and the flow pair if the span
// that released it is still in the ring. names holds the table's names
// quoted (quotedNames).
func (r *Recorder) appendSpan(b []byte, pos int32, recorded *actionIndex, names [][]byte) []byte {
	sp := r.spanAt(int(pos))
	if wait := sp.Wait(); wait > 0 {
		b = append(b, `{"name":`...)
		b = append(b, names[sp.Call]...)
		b = append(b, `,"cat":"wait","ph":"X","ts":`...)
		b = appendUsec(b, sp.WaitStart)
		b = append(b, `,"dur":`...)
		b = appendUsec(b, wait)
		b = append(b, `,"pid":1,"tid":`...)
		b = strconv.AppendInt(b, int64(sp.TID), 10)
		b = append(b, `,"args":{"action":`...)
		b = strconv.AppendInt(b, int64(sp.Action), 10)
		b = append(b, `,"predelay_us":`...)
		b = appendUsec(b, sp.Predelay)
		b = append(b, `}},`...)
	}

	b = append(b, `{"name":`...)
	b = append(b, names[sp.Call]...)
	b = append(b, `,"cat":"call","ph":"X","ts":`...)
	b = appendUsec(b, sp.Issue)
	if in := sp.InCall(); in != 0 {
		b = append(b, `,"dur":`...)
		b = appendUsec(b, in)
	}
	b = append(b, `,"pid":1,"tid":`...)
	b = strconv.AppendInt(b, int64(sp.TID), 10)
	b = append(b, `,"args":{"action":`...)
	b = strconv.AppendInt(b, int64(sp.Action), 10)
	if sp.ReleaseRes != 0 {
		b = append(b, `,"release_res":`...)
		b = append(b, names[sp.ReleaseRes]...)
	}
	b = append(b, `}}`...)

	// Flow from the releasing action's track to this action's issue.
	// Flow ids must be nonzero and unique per arrow; action index + 1
	// is both (each action is released at most once).
	if sp.ReleasedBy >= 0 {
		if from, ok := recorded.lookup(sp.ReleasedBy); ok {
			b = append(b, `,{"name":"dep","cat":"dep","ph":"s","ts":`...)
			b = appendUsec(b, sp.ReleasedAt)
			b = appendFlowTail(b, r.spanAt(int(from)).TID, sp.Action)
			b = append(b, `},{"name":"dep","cat":"dep","ph":"f","ts":`...)
			b = appendUsec(b, sp.Issue)
			b = appendFlowTail(b, sp.TID, sp.Action)
			b = append(b, `,"bp":"e"}`...)
		}
	}
	return b
}

// appendSample appends the counter event for s.
func appendSample(b []byte, s *Sample) []byte {
	b = append(b, `{"name":`...)
	b = appendJSONString(b, s.Kind.String())
	b = append(b, `,"ph":"C","ts":`...)
	b = appendUsec(b, s.At)
	b = append(b, `,"pid":1,"tid":0,"args":{"value":`...)
	b = appendJSONFloat(b, s.Value)
	return append(b, `}}`...)
}

// sizeSample is how many evenly spaced events extrapolate encodes.
const sizeSample = 1024

// extrapolate estimates the sum of size(i) over 0..n-1 from at most
// sizeSample evenly spaced i: within a percent or two for event sizes,
// which vary by a small factor.
func extrapolate(n int, size func(i int) int) int {
	k := min(n, sizeSample)
	if k == 0 {
		return 0
	}
	sum := 0
	for j := 0; j < k; j++ {
		sum += size((2*j + 1) * n / (2 * k))
	}
	return int(int64(sum) * int64(n) / int64(k))
}

// writeChunk hands b to w and returns it emptied for reuse.
func writeChunk(w io.Writer, b []byte) ([]byte, error) {
	n, err := w.Write(b)
	if err == nil && n < len(b) {
		err = io.ErrShortWrite
	}
	return b[:0], err
}

// appendFlowTail appends the pid/tid/id fields of a flow event. id is
// action+1 in int arithmetic and, like every integer field json marks
// omitempty, vanishes when zero.
func appendFlowTail(b []byte, tid, action int32) []byte {
	b = append(b, `,"pid":1,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	if id := int64(action) + 1; id != 0 {
		b = append(b, `,"id":`...)
		b = strconv.AppendInt(b, id, 10)
	}
	return b
}

// actionIndex finds the span that recorded a given action, so a flow
// arrow can start on the releaser's track. Replays number actions
// 0..n-1, so a slice indexed by action covers them; ids too spread out
// for that (a small ring at the end of a long trace with one straggling
// thread) fall back to a map rather than allocate for the gap.
type actionIndex struct {
	base   int64
	dense  []int32         // ring position + 1 by action-base; 0 = none
	sparse map[int32]int32 // action -> ring position
}

// indexActions indexes the spans at order (ring positions in export
// order). An action recorded twice resolves to its later span in that
// order.
func (r *Recorder) indexActions(order []int32) actionIndex {
	if len(order) == 0 {
		return actionIndex{}
	}
	lo, hi := r.spanAt(int(order[0])).Action, r.spanAt(int(order[0])).Action
	for _, pos := range order {
		a := r.spanAt(int(pos)).Action
		lo, hi = min(lo, a), max(hi, a)
	}
	var ix actionIndex
	if width := int64(hi) - int64(lo) + 1; width <= 4*int64(len(order))+1024 {
		ix.base, ix.dense = int64(lo), make([]int32, width)
		for _, pos := range order {
			ix.dense[int64(r.spanAt(int(pos)).Action)-ix.base] = pos + 1
		}
		return ix
	}
	ix.sparse = make(map[int32]int32, len(order))
	for _, pos := range order {
		ix.sparse[r.spanAt(int(pos)).Action] = pos
	}
	return ix
}

func (ix *actionIndex) lookup(action int32) (pos int32, ok bool) {
	if ix.sparse != nil {
		pos, ok = ix.sparse[action]
		return pos, ok
	}
	i := int64(action) - ix.base
	if i < 0 || i >= int64(len(ix.dense)) || ix.dense[i] == 0 {
		return 0, false
	}
	return ix.dense[i] - 1, true
}

// usecExact bounds the durations appendUsec renders from integer
// nanoseconds. Below it float64(d) is exact and float64(d)/1000 lies
// under 2^43, where adjacent float64s are less than 0.001 apart: the
// decimal d/1000, at most three fractional digits, then rounds to that
// quotient, and no decimal as short or shorter does (the nearest one is
// at least 0.001 away, more than the quotient's whole rounding interval).
// So it is the shortest round-trip decimal, which is what strconv prints.
// TestAppendUsecMatchesFloat holds the two equal up to this bound.
const usecExact = time.Duration(1) << 52

// appendUsec appends usec(d) as encoding/json renders that float64.
func appendUsec(b []byte, d time.Duration) []byte {
	if d <= -usecExact || d >= usecExact {
		return appendJSONFloat(b, usec(d))
	}
	if d < 0 {
		b = append(b, '-')
		d = -d
	}
	b = strconv.AppendInt(b, int64(d/1000), 10)
	if frac := d % 1000; frac != 0 {
		b = append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
		for b[len(b)-1] == '0' {
			b = b[:len(b)-1]
		}
	}
	return b
}

// appendJSONFloat appends a finite f the way encoding/json does (ES6
// number-to-string): plain decimal unless |f| < 1e-6 or |f| >= 1e21,
// then exponent form with a one-digit negative exponent unpadded
// ("3e-09" becomes "3e-9"). An integral f within ±2^53 other than -0, as
// most counter samples are, is exactly its integer's digits.
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	if abs <= 1<<53 && f == math.Trunc(f) && (f != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(b, int64(f), 10)
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONString appends s as a JSON string with encoding/json's
// HTML-safe escaping. Call, resource and counter names are plain
// printable ASCII and are copied between quotes; anything json would
// escape (quote, backslash, <, >, &, control bytes, DEL and non-ASCII,
// which covers U+2028/9 and invalid UTF-8) goes through json.Marshal
// itself.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// Summary renders a fixed-width text digest of the recorded replay:
// per-call wait/in-call totals (sorted by in-call time) and, per counter
// track, the sample count and maximum.
func (r *Recorder) Summary() string {
	spans := r.Spans()
	samples := r.Samples()
	var b strings.Builder

	type agg struct {
		name           string
		n              int
		wait, inCall   time.Duration
		maxWait, maxIn time.Duration
	}
	byCall := make(map[Name]*agg)
	for i := range spans {
		sp := &spans[i]
		a := byCall[sp.Call]
		if a == nil {
			a = &agg{name: r.Str(sp.Call)}
			byCall[sp.Call] = a
		}
		a.n++
		w, in := sp.Wait(), sp.InCall()
		a.wait += w
		a.inCall += in
		if w > a.maxWait {
			a.maxWait = w
		}
		if in > a.maxIn {
			a.maxIn = in
		}
	}
	aggs := make([]*agg, 0, len(byCall))
	for _, a := range byCall {
		aggs = append(aggs, a)
	}
	sort.Slice(aggs, func(i, j int) bool {
		if aggs[i].inCall != aggs[j].inCall {
			return aggs[i].inCall > aggs[j].inCall
		}
		return aggs[i].name < aggs[j].name
	})
	droppedSpans, droppedSamples := r.Dropped()
	fmt.Fprintf(&b, "spans: %d recorded", len(spans))
	if droppedSpans > 0 {
		fmt.Fprintf(&b, " (%d dropped by ring wrap)", droppedSpans)
	}
	b.WriteString("\n")
	if len(aggs) > 0 {
		t := metrics.NewTable("call", "n", "wait", "in-call", "max-wait", "max-in-call")
		for _, a := range aggs {
			t.Row(a.name, a.n, a.wait, a.inCall, a.maxWait, a.maxIn)
		}
		b.WriteString(t.String())
	}

	type cagg struct {
		n   int
		max float64
	}
	var counters [numCounters]cagg
	for _, s := range samples {
		if int(s.Kind) >= int(numCounters) {
			continue
		}
		counters[s.Kind].n++
		if s.Value > counters[s.Kind].max {
			counters[s.Kind].max = s.Value
		}
	}
	any := false
	for k := CounterKind(0); k < numCounters; k++ {
		if counters[k].n > 0 {
			any = true
		}
	}
	if any {
		fmt.Fprintf(&b, "counters: %d sample(s)", len(samples))
		if droppedSamples > 0 {
			fmt.Fprintf(&b, " (%d dropped by ring wrap)", droppedSamples)
		}
		b.WriteString("\n")
		t := metrics.NewTable("counter", "samples", "max")
		for k := CounterKind(0); k < numCounters; k++ {
			if counters[k].n > 0 {
				t.Row(k.String(), counters[k].n, counters[k].max)
			}
		}
		b.WriteString(t.String())
	}
	return b.String()
}
