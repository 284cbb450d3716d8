package artc

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"rootreplay/internal/core"
	"rootreplay/internal/sim"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
)

// compileSample builds a compiled benchmark exercising files, fds,
// renames, failures, and xattr-free snapshot entries.
func compileSample(t *testing.T, modes core.ModeSet) *Benchmark {
	t.Helper()
	tr, snap := traceWorkload(t, defaultConf(),
		func(sys *stack.System) error { return sys.SetupCreate("/data/in", 1<<20) },
		func(sys *stack.System, th *sim.Thread) {
			fd, _ := sys.Open(th, "/data/in", trace.ORdonly, 0)
			sys.Read(th, fd, 4096)
			sys.Close(th, fd)
			out, _ := sys.Open(th, "/data/out", trace.OWronly|trace.OCreat, 0o644)
			sys.Write(th, out, 8192)
			sys.Fsync(th, out)
			sys.Close(th, out)
			sys.Stat(th, "/data/missing")
			sys.Rename(th, "/data/out", "/data/out2")
			sys.Unlink(th, "/data/out2")
		})
	b, err := Compile(tr, snap, modes)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBinaryRoundTrip(t *testing.T) {
	b := compileSample(t, core.DefaultModes())
	var buf bytes.Buffer
	if err := b.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinaryBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Platform != b.Platform || got.Modes != b.Modes {
		t.Fatalf("platform/modes drift: %v %v vs %v %v", got.Platform, got.Modes, b.Platform, b.Modes)
	}
	if len(got.Trace.Records) != len(b.Trace.Records) {
		t.Fatalf("record count %d vs %d", len(got.Trace.Records), len(b.Trace.Records))
	}
	for i := range b.Trace.Records {
		if g, w := Resolve(got.Trace, i), Resolve(b.Trace, i); g != w {
			t.Fatalf("record %d drift:\n got %+v\nwant %+v", i, g, w)
		}
	}
	if !reflect.DeepEqual(got.Snapshot, b.Snapshot) {
		t.Fatal("snapshot drift")
	}
	if !reflect.DeepEqual(got.Analysis.Resources, b.Analysis.Resources) ||
		!reflect.DeepEqual(got.Analysis.SeriesOff, b.Analysis.SeriesOff) ||
		!reflect.DeepEqual(got.Analysis.SeriesIdx, b.Analysis.SeriesIdx) ||
		!reflect.DeepEqual(got.Analysis.Paths, b.Analysis.Paths) ||
		!reflect.DeepEqual(got.Analysis.TouchSlab, b.Analysis.TouchSlab) ||
		!reflect.DeepEqual(got.Analysis.PathGens, b.Analysis.PathGens) ||
		!reflect.DeepEqual(got.Analysis.Warnings, b.Analysis.Warnings) {
		t.Fatal("analysis drift")
	}
	for i := range b.Analysis.Actions {
		if got.Analysis.Actions[i] != b.Analysis.Actions[i] {
			t.Fatalf("action %d drift: %+v, want %+v", i, got.Analysis.Actions[i], b.Analysis.Actions[i])
		}
	}
	if got.Graph.N != b.Graph.N || got.Graph.ReducedEdges != b.Graph.ReducedEdges ||
		!reflect.DeepEqual(got.Graph.Edges, b.Graph.Edges) {
		t.Fatal("graph drift")
	}
	if !reflect.DeepEqual(got.touches, b.touches) && !(b.touches == nil && reflect.DeepEqual(got.touches, planTouches(b.Analysis))) {
		t.Fatal("touch plan drift")
	}

	// Re-encode must be byte-identical.
	var buf2 bytes.Buffer
	if err := got.EncodeBinary(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("Encode(Decode(x)) != x")
	}
}

// TestBinaryLoadedBenchmarkReplays: a benchmark loaded from the binary
// artifact replays with the same outcome as the freshly compiled one.
func TestBinaryLoadedBenchmarkReplays(t *testing.T) {
	b := compileSample(t, core.DefaultModes())
	var buf bytes.Buffer
	if err := b.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := DecodeBinaryBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	run := func(b *Benchmark) *Report {
		k := sim.NewKernel()
		sys := stack.New(k, defaultConf())
		if err := Init(sys, b, ""); err != nil {
			t.Fatal(err)
		}
		rep, err := Replay(sys, b, Options{Method: MethodARTC, SelfCheck: true})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	cold, warm := run(b), run(loaded)
	if warm.Errors != cold.Errors || warm.Actions != cold.Actions {
		t.Fatalf("replay drift: cold %d/%d warm %d/%d errors/actions",
			cold.Errors, cold.Actions, warm.Errors, warm.Actions)
	}
	if warm.Errors != 0 {
		t.Fatalf("loaded benchmark replayed with %d errors: %v", warm.Errors, warm.ErrorSamples)
	}
}

func TestBinaryDecodeRejectsDamage(t *testing.T) {
	b := compileSample(t, core.DefaultModes())
	var buf bytes.Buffer
	if err := b.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	art := buf.Bytes()

	if _, err := DecodeBinaryBytes(art[:len(art)/2]); err == nil {
		t.Fatal("truncated artifact decoded without error")
	}
	if _, err := DecodeBinaryBytes(nil); err == nil {
		t.Fatal("empty artifact decoded without error")
	}
	// A .bench an older `artc compile` wrote is text: the error has to say
	// so and what to do, whatever the file's length.
	for _, text := range []string{"#artc-benchmark v2\n", "#artc-benchmark v2 platform=linux modes=none\n%%snapshot\n%%trace\n%%end crc32c=00000000\n"} {
		_, err := DecodeBinaryBytes([]byte(text))
		if err == nil || !strings.Contains(err.Error(), "text benchmark files are no longer read; recompile from the trace") {
			t.Fatalf("text artifact: err = %v, want the cause and the remedy", err)
		}
	}
	// Flip one bit in the middle: checksum must catch it.
	mut := append([]byte(nil), art...)
	mut[len(mut)/2] ^= 0x10
	if _, err := DecodeBinaryBytes(mut); err == nil {
		t.Fatal("bit-flipped artifact decoded without error")
	}
	// Wrong version.
	mut = append([]byte(nil), art...)
	mut[8] = 99
	if _, err := DecodeBinaryBytes(mut); err == nil {
		t.Fatal("future-version artifact decoded without error")
	}
	// A hint naming no descriptor. The artifact carries a failed call's
	// hint by identity, and the decoder numbers it only through a
	// descriptor of the resource table; only a hand-crafted artifact has
	// one, made here by pointing the hint of a failed directory read at
	// the directory's file resource.
	tr := &trace.Trace{Platform: "linux"}
	s := tr.Intern
	tr.Records = []trace.Record{
		{TID: 1, Call: s("open"), Path: s("/dir"), Flags: trace.ORdonly | trace.ODir, Ret: 3},
		{TID: 2, Call: s("read"), FD: 3, Size: 64, Ret: -1, Err: s("EISDIR")},
		{TID: 1, Call: s("close"), FD: 3},
	}
	hinted, err := Compile(tr, nil, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	an := hinted.Analysis
	file := slices.IndexFunc(an.Resources, func(r core.ResourceID) bool { return r.Kind == core.KFile })
	if an.Actions[1].FDHint < 0 || file < 0 {
		t.Fatal("fixture: no fd hint on the failed read, or no file resource")
	}
	an.Actions[1].FDHint = int32(file)
	buf.Reset()
	if err := hinted.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBinaryBytes(buf.Bytes()); err == nil || !strings.Contains(err.Error(), "names no descriptor") {
		t.Fatalf("artifact with a hint naming no descriptor: err = %v", err)
	}
	// A touch plan indexing past its action's touches. The int16 range
	// check passes it; replay would index out of range building its
	// tables.
	b.touches[0].fdUse = 1000
	buf.Reset()
	if err := b.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBinaryBytes(buf.Bytes()); err == nil || !strings.Contains(err.Error(), "touch plan 0 field 0 is 1000") {
		t.Fatalf("artifact with a touch plan past its action's touches: err = %v", err)
	}
}

// ResolvedRecord is a record with its strings read out of its trace's
// table (its Str fields are zero), so records of different traces
// compare by what they say. Exported for the package's external tests.
type ResolvedRecord struct {
	trace.Record
	Call, Path, Path2, Name, Err string
}

// OK reports whether the call succeeded.
func (r *ResolvedRecord) OK() bool { return r.Err == "" }

// Resolve reads tr's record i with its strings.
func Resolve(tr *trace.Trace, i int) ResolvedRecord {
	r := tr.Records[i]
	out := ResolvedRecord{Call: tr.Str(r.Call), Path: tr.Str(r.Path), Path2: tr.Str(r.Path2), Name: tr.Str(r.Name), Err: tr.Str(r.Err)}
	r.Call, r.Path, r.Path2, r.Name, r.Err = 0, 0, 0, 0, 0
	out.Record = r
	return out
}
