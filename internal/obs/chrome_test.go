package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"
)

// nastyStrings are call / resource names that leave appendJSONString's
// fast path in every way encoding/json distinguishes: HTML characters,
// quote and backslash, short-form and \u00XX control escapes, DEL, the
// two JS line separators, multi-byte and invalid UTF-8, and the empty
// string.
var nastyStrings = []string{
	"pread", "open", "fd(3)@1", "file(/a/b c.txt)@2", "",
	"a<b>c&d", `say "hi"`, `back\slash`, "tab\there\nnewline\x01ctl", "\b\f\r",
	"del\x7f", "sep\u2028and\u2029", "héllo wörld", "日本語", "bad\xffutf8\xc3", "\xed\xa0\x80",
}

// counterValues are the sample values the float rules split on: zero,
// both sides of the 1e-6 and 1e21 format switches, exponents that do and
// do not need the e-0N clean-up, negatives, and a non-terminating binary
// fraction.
var counterValues = []float64{
	0, 1, 2.5, 1e-7, 3e-9, 1e-6, 9.99e-7, 1.5e-10, 1e-100, 1e21, 1.5e22, 9.99e20, 1e100,
	-1, -1e-7, -3e-9, -1e21, -0.25, 100.0 / 3, math.MaxFloat64, math.SmallestNonzeroFloat64,
	math.Copysign(0, -1), 1 << 53, 123456789.125,
}

// compareExports runs the streaming encoder and the reference over r and
// reports how they disagree, if they do: they must produce the same
// bytes on success, and on failure the same *json.UnsupportedValueError
// with nothing written.
func compareExports(r *Recorder) ([]byte, error) {
	var got, want bytes.Buffer
	gotErr := r.WriteChrome(&got)
	wantErr := writeChromeReference(r, &want)
	if wantErr != nil {
		var ge, we *json.UnsupportedValueError
		if !errors.As(gotErr, &ge) || !errors.As(wantErr, &we) ||
			ge.Str != we.Str || ge.Error() != we.Error() || ge.Value.Kind() != we.Value.Kind() {
			return nil, fmt.Errorf("error mismatch: WriteChrome %v, reference %v", gotErr, wantErr)
		}
		if got.Len() != 0 {
			return nil, fmt.Errorf("failed export wrote %d bytes, want none", got.Len())
		}
		return nil, nil
	}
	if gotErr != nil {
		return nil, fmt.Errorf("WriteChrome: %v (reference succeeded)", gotErr)
	}
	if g, w := got.Bytes(), want.Bytes(); !bytes.Equal(g, w) {
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(0, i-80)
		return nil, fmt.Errorf("export differs from reference at byte %d (%d vs %d bytes)\n got: …%s\nwant: …%s",
			i, len(g), len(w), g[lo:min(len(g), i+80)], w[lo:min(len(w), i+80)])
	}
	return got.Bytes(), nil
}

func exportBoth(t testing.TB, r *Recorder) {
	t.Helper()
	if _, err := compareExports(r); err != nil {
		t.Fatal(err)
	}
}

// spanKeys rejects a second span with the same (Done, Action): the
// canonical order is total only over distinct keys, and an unstable sort
// may leave exact ties in either order.
type spanKeys map[[2]int64]bool

func (k spanKeys) record(r *Recorder, sp Span) {
	key := [2]int64{int64(sp.Done), int64(sp.Action)}
	if !k[key] {
		k[key] = true
		r.Record(sp)
	}
}

// randomRecorder builds a recorder whose contents exercise every branch
// of the encoder, biased toward the cases real replays produce (ties on
// Done, releasers, ring wrap) with the pathological ones mixed in.
func randomRecorder(rng *rand.Rand) *Recorder {
	pick := func(n int) int { return rng.Intn(n) }
	spanCap := []int{1, 2, 7, 64, 300}[pick(5)]
	sampleCap := []int{1, 5, 64}[pick(3)]
	r := NewRecorder(spanCap, sampleCap)

	n := pick(2*spanCap + 2) // past the cap: the ring wraps and releasers fall out
	base := []int32{0, 0, 1_000_000, -50, math.MaxInt32 - 700}[pick(5)]
	stride := []int32{1, 1, 1, 3, 100_003}[pick(5)] // the last one spreads ids past the dense table
	tids := []int32{1, 2, 3, 7, 0, -4, math.MaxInt32, math.MinInt32}[:1+pick(8)]
	inOrder := pick(3) > 0
	steps := []time.Duration{0, 0, 0, 1, 999, 1000, 1500, 12_345_678}
	keys := spanKeys{}
	var now time.Duration
	for i := 0; i < n; i++ {
		now += steps[pick(len(steps))]
		sp := Span{
			Action:     base + int32(i)*stride,
			TID:        tids[pick(len(tids))],
			Call:       nastyStrings[pick(len(nastyStrings))],
			ReleasedBy: -1,
		}
		if !inOrder && i > 0 {
			sp.Action = base + int32(pick(i+1))*stride // repeats and reorders
		}
		in := steps[pick(len(steps))] // zero: "dur" is omitted
		sp.Done = now
		sp.Issue = sp.Done - in
		sp.WaitStart = sp.Issue - steps[pick(len(steps))] // zero: no wait slice
		sp.Predelay = steps[pick(len(steps))]
		switch pick(12) {
		case 0: // negative wait and in-call time
			sp.WaitStart, sp.Done = sp.Done, sp.WaitStart
		case 1: // beyond 2^53 ns, where float64(d) rounds
			sp.Done += 1<<53 + time.Duration(rng.Int63n(1<<60))
		case 2:
			sp.Issue = -sp.Issue - (1<<53 + 12345)
		case 3:
			sp.WaitStart, sp.Predelay = math.MinInt64, math.MaxInt64
		}
		if !inOrder {
			now -= steps[pick(len(steps))]
		}
		if i > 0 && pick(2) == 0 {
			sp.ReleasedBy = base + int32(pick(i))*stride
			if pick(8) == 0 {
				sp.ReleasedBy = math.MaxInt32 - int32(pick(3)) // never recorded
			}
			sp.ReleasedAt = sp.WaitStart + steps[pick(len(steps))]
			sp.ReleaseRes = nastyStrings[pick(len(nastyStrings))]
		}
		keys.record(r, sp)
	}

	for i, m := 0, pick(2*sampleCap+2); i < m; i++ {
		at := time.Duration(rng.Int63n(1 << 40))
		if pick(10) == 0 {
			at = -at
		}
		kind := CounterKind(pick(int(numCounters) + 2)) // the last two are unknown kinds
		if pick(20) == 0 {
			kind = 255
		}
		r.Sample(at, kind, counterValues[pick(len(counterValues))])
	}
	return r
}

// TestWriteChromeMatchesReference is the byte-identity property: over
// seeded random recorders the streaming encoder and the encoding/json
// reference agree exactly.
func TestWriteChromeMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		out, err := compareExports(randomRecorder(rand.New(rand.NewSource(seed))))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !json.Valid(out) {
			t.Fatalf("seed %d: export is not valid JSON", seed)
		}
	}
}

// TestWriteChromeEdgeCases pins the cases the property test reaches only
// by chance, one recorder each.
func TestWriteChromeEdgeCases(t *testing.T) {
	us := time.Microsecond
	cases := map[string]func() *Recorder{
		"nil recorder": func() *Recorder { return nil },
		"empty recorder": func() *Recorder {
			return NewRecorder(4, 4)
		},
		"samples only": func() *Recorder {
			r := NewRecorder(4, 64)
			for i, v := range counterValues {
				r.Sample(time.Duration(i)*us, CounterKind(i%int(numCounters)), v)
			}
			r.Sample(0, CounterKind(200), 100.0/3) // unknown kind: "counter_200"
			return r
		},
		"zero-length wait and call": func() *Recorder {
			r := NewRecorder(4, 4)
			r.Record(Span{Action: 0, TID: 1, Call: "close", WaitStart: 5 * us, Issue: 5 * us, Done: 5 * us, ReleasedBy: -1})
			return r
		},
		"negative and huge durations": func() *Recorder {
			r := NewRecorder(8, 4)
			r.Record(Span{Action: 0, TID: 1, Call: "a", WaitStart: 10, Issue: 5, Done: 1, ReleasedBy: -1})
			r.Record(Span{Action: 1, TID: 1, Call: "b", WaitStart: -1<<53 - 1, Issue: 1<<53 + 1, Done: math.MaxInt64, ReleasedBy: 0, ReleasedAt: -1})
			r.Record(Span{Action: 2, TID: 1, Call: "c", WaitStart: math.MinInt64, Issue: 0, Done: 1<<52 - 1, Predelay: 1 << 52, ReleasedBy: -1})
			r.Record(Span{Action: 3, TID: 1, Call: "d", WaitStart: -usecExact + 1, Issue: -usecExact, Done: usecExact, ReleasedBy: -1})
			return r
		},
		"ring wrap drops the releaser": func() *Recorder {
			r := NewRecorder(3, 4)
			for i := int32(0); i < 8; i++ {
				r.Record(Span{Action: i, TID: 1 + i%2, Call: "pread", Issue: time.Duration(i) * us,
					Done: time.Duration(i+1) * us, ReleasedBy: i - 4, ReleasedAt: time.Duration(i) * us, ReleaseRes: "fd(3)@1"})
			}
			return r
		},
		"flow id omitted at action -1": func() *Recorder {
			r := NewRecorder(4, 4)
			r.Record(Span{Action: -2, TID: 1, Call: "x", Done: 1, ReleasedBy: -1})
			r.Record(Span{Action: -1, TID: 2, Call: "y", Done: 2, ReleasedBy: -1})
			// ReleasedBy < 0 means "none", so the only way to an id of zero
			// is a releaser recorded under a non-negative action.
			r.Record(Span{Action: 0, TID: 3, Call: "z", Done: 3, ReleasedBy: -1})
			r.Record(Span{Action: -1, TID: 4, Call: "w", Done: 4, ReleasedBy: 0, ReleaseRes: "r"})
			return r
		},
		"sparse action ids": func() *Recorder {
			r := NewRecorder(4, 4)
			r.Record(Span{Action: math.MinInt32, TID: 1, Call: "lo", Done: 1, ReleasedBy: -1})
			r.Record(Span{Action: math.MaxInt32, TID: 2, Call: "hi", Done: 2, ReleasedBy: 7})
			r.Record(Span{Action: 7, TID: 3, Call: "mid", Done: 3, ReleasedBy: math.MaxInt32})
			return r
		},
		"action recorded twice": func() *Recorder {
			r := NewRecorder(8, 4)
			r.Record(Span{Action: 5, TID: 1, Call: "first", Done: 10, ReleasedBy: -1})
			r.Record(Span{Action: 5, TID: 2, Call: "second", Done: 20, ReleasedBy: -1})
			r.Record(Span{Action: 6, TID: 3, Call: "user", Done: 15, ReleasedBy: 5}) // arrow from T2: last in export order
			return r
		},
		"every nasty string": func() *Recorder {
			r := NewRecorder(64, 4)
			for i, s := range nastyStrings {
				r.Record(Span{Action: int32(i), TID: 1, Call: s, WaitStart: 0, Issue: 1, Done: time.Duration(i + 2),
					ReleasedBy: int32(i) - 1, ReleaseRes: nastyStrings[len(nastyStrings)-1-i]})
			}
			return r
		},
		"out of order with ties on Done": func() *Recorder {
			r := NewRecorder(16, 4)
			for _, a := range []int32{4, 2, 9, 0, 7, 1} {
				r.Record(Span{Action: a, TID: a % 3, Call: "w", Done: time.Duration(a/4) * us, ReleasedBy: -1})
			}
			return r
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) { exportBoth(t, build()) })
	}
}

// TestWriteChromeUnsupportedValue: a NaN or Inf sample fails the whole
// export, as encoding/json did, before a single byte reaches the writer
// — even when megabytes of valid spans precede it in the document.
func TestWriteChromeUnsupportedValue(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := NewRecorder(1<<12, 16)
		for i := int32(0); i < 1<<12; i++ {
			r.Record(Span{Action: i, TID: 1, Call: "pread", Done: time.Duration(i), ReleasedBy: -1})
		}
		r.Sample(1, CounterRunq, 1)
		r.Sample(2, CounterDevUtil, v)
		r.Sample(3, CounterRunq, math.NaN()) // the first bad sample is the one reported
		exportBoth(t, r)
		var buf bytes.Buffer
		var uve *json.UnsupportedValueError
		if err := r.WriteChrome(&buf); !errors.As(err, &uve) {
			t.Fatalf("value %v: err = %v, want *json.UnsupportedValueError", v, err)
		} else if want := strconv.FormatFloat(v, 'g', -1, 64); uve.Str != want {
			t.Fatalf("value %v: error names %q, want %q", v, uve.Str, want)
		}
		if buf.Len() != 0 {
			t.Fatalf("value %v: %d bytes written before the error", v, buf.Len())
		}
	}
}

// TestAppendUsecMatchesFloat proves the integer-nanosecond rendering
// equal to encoding/json's rendering of float64(d)/1000 wherever
// appendUsec uses it, and checks the fallback beyond.
func TestAppendUsecMatchesFloat(t *testing.T) {
	check := func(d time.Duration) {
		t.Helper()
		want, err := json.Marshal(usec(d))
		if err != nil {
			t.Fatal(err)
		}
		if got := appendUsec(nil, d); !bytes.Equal(got, want) {
			t.Fatalf("appendUsec(%d) = %s, want %s", int64(d), got, want)
		}
	}
	for d := time.Duration(-2500); d <= 2500; d++ {
		check(d)
	}
	for _, edge := range []time.Duration{usecExact, 1 << 53, 1000 << 43, math.MaxInt64} {
		for off := time.Duration(-1500); off <= 1500; off++ {
			if d := edge + off; d > 0 { // not wrapped past MaxInt64
				check(d)
				check(-d)
			}
		}
	}
	check(math.MinInt64)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2_000_000; i++ {
		d := time.Duration(rng.Int63()) >> uint(rng.Intn(63))
		check(d)
		check(-d)
	}
}

// TestAppendJSONFloatMatchesJSON checks the float rules against
// encoding/json directly, on the fixed values and on random bit patterns.
func TestAppendJSONFloatMatchesJSON(t *testing.T) {
	check := func(f float64) {
		t.Helper()
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, f); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONFloat(%g) = %s, want %s", f, got, want)
		}
	}
	for _, f := range counterValues {
		check(f)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200_000; i++ {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			check(f)
		}
	}
}

// TestAppendJSONFloatIntegral holds the integer path of appendJSONFloat to
// the float path it skips, at the edges of its range and on random
// integral values of every magnitude on both sides of 2^53.
func TestAppendJSONFloatIntegral(t *testing.T) {
	check := func(f float64) {
		t.Helper()
		float := strconv.AppendFloat(nil, f, 'f', -1, 64) // the path integral values skip
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, f); !bytes.Equal(got, float) || !bytes.Equal(got, want) {
			t.Fatalf("appendJSONFloat(%g) = %s, float path %s, encoding/json %s", f, got, float, want)
		}
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1, 1<<53 - 1, -(1<<53 - 1), 1 << 53, -(1 << 53), 1<<53 + 2, 1e15} {
		check(f)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200_000; i++ {
		f := float64(rng.Int63() >> uint(rng.Intn(63)))
		if rng.Intn(2) == 0 {
			f = -f
		}
		check(f)
	}
}

func TestAppendJSONStringMatchesJSON(t *testing.T) {
	check := func(s string) {
		t.Helper()
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString([]byte("x"), s); !bytes.Equal(got[1:], want) {
			t.Fatalf("appendJSONString(%q) = %s, want %s", s, got[1:], want)
		}
	}
	for _, s := range nastyStrings {
		check(s)
	}
	for c := 0; c < 256; c++ { // every single byte, alone and embedded
		check(string([]byte{byte(c)}))
		check("ab" + string([]byte{byte(c)}) + "cd")
	}
}

func TestCompareSpans(t *testing.T) {
	a := &Span{Done: 5, Action: 9}
	for _, tc := range []struct {
		b    Span
		want int
	}{
		{Span{Done: 5, Action: 9, TID: 3, Issue: 1}, 0}, // only Done and Action count
		{Span{Done: 6, Action: 0}, -1},
		{Span{Done: 4, Action: 99}, 1},
		{Span{Done: 5, Action: 10}, -1},
		{Span{Done: 5, Action: -1}, 1},
	} {
		if got := CompareSpans(a, &tc.b); got != tc.want {
			t.Errorf("CompareSpans(%+v, %+v) = %d, want %d", *a, tc.b, got, tc.want)
		}
		if got := CompareSpans(&tc.b, a); got != -tc.want {
			t.Errorf("CompareSpans(%+v, %+v) = %d, want %d", tc.b, *a, got, -tc.want)
		}
	}
}

// benchRecorder fills a recorder the way a serial pipeline replay does:
// n spans over 8 threads in completion order, about half released by an
// earlier action and so carrying a wait slice, a flow pair and a
// release_res, plus a few thousand counter samples.
func benchRecorder(n int) *Recorder {
	calls := []string{"pread", "pwrite", "open", "close", "fsync", "fstat"}
	r := NewRecorder(n, 4096)
	var now time.Duration
	for i := 0; i < n; i++ {
		now += 1700 + time.Duration(i%7)*100
		sp := Span{
			Action: int32(i), TID: int32(i%8 + 1), Call: calls[i%len(calls)],
			WaitStart: now - 1500, Issue: now - 1500, Done: now, ReleasedBy: -1,
		}
		if i%2 == 1 {
			sp.WaitStart -= 250 * time.Duration(1+i%3)
			sp.Predelay = 125
			sp.ReleasedBy = int32(i - 1)
			sp.ReleasedAt = sp.Issue - 50
			sp.ReleaseRes = "file(/stage" + strconv.Itoa(i%8) + "/f" + strconv.Itoa(i%64) + ")@1"
		}
		r.Record(sp)
		if i%64 == 0 {
			r.Sample(now, CounterKind(i/64%int(numCounters)), float64(i%97)/4)
		}
	}
	return r
}

// TestWriteChromeAllocs gates the encoder's allocation count: a handful
// of tables and one buffer per export, whatever the number of spans. The
// reference made about fifteen per span.
func TestWriteChromeAllocs(t *testing.T) {
	for _, n := range []int{10_000, 100_000} {
		r := benchRecorder(n)
		var buf bytes.Buffer
		if err := r.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		size := buf.Len() // buf is now grown to hold the export
		allocs := testing.AllocsPerRun(3, func() {
			buf.Reset()
			if err := r.WriteChrome(&buf); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d spans, %d bytes: %.0f allocs per export", n, size, allocs)
		if allocs > 64 {
			t.Errorf("%d spans: %.0f allocs per export, want at most 64 (allocation must not scale with spans)", n, allocs)
		}
	}
}

// TestWriteChromeSizesBuffer: an empty bytes.Buffer left to double its
// way up ends with up to twice the export in capacity, which a service
// holding results then keeps; the size hint must land it within the
// hint's margin instead, on regular and on irregular recorders alike.
func TestWriteChromeSizesBuffer(t *testing.T) {
	recorders := map[string]*Recorder{
		"pipeline": benchRecorder(40_000),
		"samples":  NewRecorder(4, 1<<16),
	}
	for i := 0; i < 50_000; i++ {
		recorders["samples"].Sample(time.Duration(i)*977, CounterKind(i%7), counterValues[i%len(counterValues)])
	}
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewRecorder(30_000, 16)
		for i := 0; i < 45_000; i++ { // wraps; strings from empty to escaped, sizes all over
			sp := Span{Action: int32(i), TID: int32(rng.Intn(5)), Call: nastyStrings[rng.Intn(len(nastyStrings))],
				Issue: time.Duration(i) * 1000, Done: time.Duration(i)*1000 + time.Duration(rng.Intn(2000)), ReleasedBy: -1}
			if rng.Intn(3) == 0 {
				sp.WaitStart = sp.Issue - time.Duration(rng.Intn(1<<20))
				sp.ReleasedBy, sp.ReleaseRes = int32(rng.Intn(i+1)), nastyStrings[rng.Intn(len(nastyStrings))]
			} else {
				sp.WaitStart = sp.Issue
			}
			r.Record(sp)
		}
		recorders[fmt.Sprintf("random-%d", seed)] = r
	}
	for name, r := range recorders {
		var buf bytes.Buffer
		if err := r.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.Len() < 16*chromeChunk {
			t.Fatalf("%s: fixture exports %d bytes; need many chunks", name, buf.Len())
		}
		if limit := buf.Len() + buf.Len()/8; buf.Cap() > limit {
			t.Errorf("%s: %d-byte export left a %d-byte buffer, want at most %d", name, buf.Len(), buf.Cap(), limit)
		}
	}
}

// countingBuffer is a bytes.Buffer that counts the writes it is handed.
type countingBuffer struct {
	bytes.Buffer
	writes int
}

func (c *countingBuffer) Write(p []byte) (int, error) {
	c.writes++
	return c.Buffer.Write(p)
}

// TestWriteChromeSmallDocuments: a document of at most sizeSample spans
// and sizeSample samples is encoded once and handed over in one write;
// one a single event past that streams in chunks. Both match the
// reference byte for byte, and both leave a growable writer within the
// size hint's margin, since the service retains small exports as much as
// large ones.
func TestWriteChromeSmallDocuments(t *testing.T) {
	for _, n := range []int{0, 1, sizeSample - 1, sizeSample, sizeSample + 1} {
		for _, mix := range []struct{ spans, samples int }{{n, 0}, {0, n}, {n, n}, {n, n / 3}} {
			r := benchRecorder(mix.spans)
			r.ClearSamples()
			for i := 0; i < mix.samples; i++ {
				r.Sample(time.Duration(i)*1000, CounterKind(i%int(numCounters)), counterValues[i%len(counterValues)])
			}
			name := fmt.Sprintf("%d spans, %d samples", mix.spans, mix.samples)
			if len(r.Spans()) != mix.spans || len(r.Samples()) != mix.samples {
				t.Fatalf("%s: fixture holds %d spans and %d samples", name, len(r.Spans()), len(r.Samples()))
			}
			exportBoth(t, r)
			var buf countingBuffer
			if err := r.WriteChrome(&buf); err != nil {
				t.Fatal(err)
			}
			if whole := mix.spans <= sizeSample && mix.samples <= sizeSample; whole && buf.writes != 1 {
				t.Errorf("%s: %d writes, want the document in one", name, buf.writes)
			}
			if limit := buf.Len() + buf.Len()/8; n >= sizeSample-1 && buf.Cap() > limit {
				t.Errorf("%s: %d-byte export left a %d-byte buffer, want at most %d", name, buf.Len(), buf.Cap(), limit)
			}
		}
	}
}

// TestWriteChromeConcurrent: exports running at once, small and large,
// each get a buffer of their own from the pool and the bytes a lone
// export writes.
func TestWriteChromeConcurrent(t *testing.T) {
	recorders := []*Recorder{benchRecorder(10), benchRecorder(sizeSample), benchRecorder(3 * sizeSample)}
	want := make([][]byte, len(recorders))
	for i, r := range recorders {
		var buf bytes.Buffer
		if err := r.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		want[i] = buf.Bytes()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 20; n++ {
				i := (g + n) % len(recorders)
				var buf bytes.Buffer
				if err := recorders[i].WriteChrome(&buf); err != nil || !bytes.Equal(buf.Bytes(), want[i]) {
					t.Errorf("goroutine %d, export %d of recorder %d: err %v, %d bytes, want %d", g, n, i, err, buf.Len(), len(want[i]))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// failAfter accepts limit bytes, then fails every write: with an error,
// or — when short is set — by the short count alone, as a writer that
// breaks the io.Writer contract would.
type failAfter struct {
	limit, written, callsAfterFail int
	short, failed                  bool
}

var errDiskFull = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.failed {
		f.callsAfterFail++
	}
	if f.written+len(p) <= f.limit {
		f.written += len(p)
		return len(p), nil
	}
	n := f.limit - f.written
	f.written, f.failed = f.limit, true
	if f.short {
		return n, nil
	}
	return n, errDiskFull
}

// TestWriteChromeReturnsWriteError: the export streams, so a write can
// fail part-way; WriteChrome must return that first error and stop
// writing.
func TestWriteChromeReturnsWriteError(t *testing.T) {
	r := benchRecorder(5000)
	var full bytes.Buffer
	if err := r.WriteChrome(&full); err != nil {
		t.Fatal(err)
	}
	if full.Len() < 4*chromeChunk {
		t.Fatalf("fixture exports %d bytes; need several chunks", full.Len())
	}
	for _, limit := range []int{0, 1, chromeChunk + 1, full.Len() / 2, full.Len() - 1} {
		for _, short := range []bool{false, true} {
			w := &failAfter{limit: limit, short: short}
			err := r.WriteChrome(w)
			want := errDiskFull
			if short {
				want = io.ErrShortWrite
			}
			if !errors.Is(err, want) {
				t.Errorf("limit %d short=%v: err = %v, want %v", limit, short, err, want)
			}
			if w.callsAfterFail != 0 {
				t.Errorf("limit %d short=%v: %d writes after the failed one", limit, short, w.callsAfterFail)
			}
		}
	}
	if err := r.WriteChrome(&failAfter{limit: full.Len()}); err != nil {
		t.Errorf("writer with exactly enough room: %v", err)
	}
}

// fuzzRecorder decodes fuzz bytes into a recorder. Numbers come in two
// widths chosen by a tag bit, so the fuzzer can reach both the dense
// small values where ties and releasers happen and the full 64-bit range.
func fuzzRecorder(data []byte, text string) *Recorder {
	u8 := func() byte {
		if len(data) == 0 {
			return 0
		}
		c := data[0]
		data = data[1:]
		return c
	}
	num := func() int64 {
		tag := u8()
		if tag&1 == 0 {
			return int64(int8(tag >> 1))
		}
		var raw [8]byte
		copy(raw[:], data)
		data = data[min(len(data), 8):]
		return int64(binary.LittleEndian.Uint64(raw[:]))
	}
	str := func() string {
		i, j := int(u8()), int(u8())
		if i < len(nastyStrings) {
			return nastyStrings[i]
		}
		i, j = min(i-len(nastyStrings), len(text)), min(j, len(text))
		if i > j {
			i, j = j, i
		}
		return text[i:j]
	}
	r := NewRecorder(1+int(u8()%32), 1+int(u8()%8))
	keys := spanKeys{}
	for len(data) > 0 {
		if u8()%4 == 0 {
			r.Sample(time.Duration(num()), CounterKind(u8()), math.Float64frombits(uint64(num())))
			continue
		}
		keys.record(r, Span{
			Action: int32(num()), TID: int32(num()), Call: str(),
			WaitStart: time.Duration(num()), Issue: time.Duration(num()), Done: time.Duration(num()),
			Predelay: time.Duration(num()), ReleasedBy: int32(num()), ReleasedAt: time.Duration(num()),
			ReleaseRes: str(),
		})
	}
	return r
}

// FuzzWriteChrome holds the streaming encoder to the reference on
// fuzzed span fields, strings and counter values (NaN and Inf included:
// then both must fail alike).
func FuzzWriteChrome(f *testing.F) {
	f.Add([]byte{}, "")
	f.Add([]byte{3, 1, 1, 2, 4, 0, 0, 2, 6, 10, 0, 0xfe, 0, 0, 0}, "open")
	f.Add([]byte{1, 0, 2, 0, 2, 40, 0, 4, 6, 10, 2, 0, 6, 41, 1,
		1, 2, 4, 2, 40, 0, 8, 12, 20, 4, 2, 10, 40, 3}, `<script>" `+"\xff")
	f.Add([]byte{0, 0, 4, 1, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 2}, "nan")
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 64+rng.Intn(256))
		rng.Read(seed)
		f.Add(seed, fmt.Sprintf("call-%d \t<&>\"\\ é\xf0", i))
	}
	f.Fuzz(func(t *testing.T, data []byte, text string) {
		exportBoth(t, fuzzRecorder(data, text))
	})
}

// BenchmarkWriteChrome exports a replay_hits-sized recorder: 194k spans,
// half of them with a wait slice and a flow pair.
func BenchmarkWriteChrome(b *testing.B) {
	r := benchRecorder(194_000)
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := r.WriteChrome(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
