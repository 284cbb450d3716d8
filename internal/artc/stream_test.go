package artc

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"rootreplay/internal/core"
	"rootreplay/internal/sim"
	"rootreplay/internal/snapshot"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
)

// streamFixture renders a two-thread trace whose call windows overlap,
// so EncodeStrace emits `<unfinished ...>` / `<... resumed>` pairs and
// the streaming parse exercises its pending-call machinery, plus a
// snapshot holding the files the calls touch.
func streamFixture(t *testing.T) (string, *snapshot.Snapshot) {
	t.Helper()
	_, snap := traceWorkload(t, defaultConf(), func(sys *stack.System) error {
		if err := sys.SetupCreate("/a", 8192); err != nil {
			return err
		}
		return sys.SetupCreate("/b", 8192)
	}, func(sys *stack.System, th *sim.Thread) {})

	ms := func(n int64) time.Duration { return time.Duration(n) * time.Millisecond }
	tr := &trace.Trace{Platform: "linux", Records: []*trace.Record{
		// TID 1's open spans TID 2's open start; TID 2's pwrite spans
		// TID 1's read start — both directions split.
		{TID: 1, Call: "open", Path: "/a", Flags: trace.ORdonly, FD: 3, Ret: 3, Start: ms(0), End: ms(5)},
		{TID: 2, Call: "open", Path: "/b", Flags: trace.ORdwr, FD: 4, Ret: 4, Start: ms(1), End: ms(2)},
		{TID: 2, Call: "pwrite64", FD: 4, Size: 4096, Ret: 4096, Start: ms(3), End: ms(8)},
		{TID: 1, Call: "read", FD: 3, Size: 4096, Ret: 4096, Start: ms(6), End: ms(7)},
		{TID: 2, Call: "close", FD: 4, Ret: 0, Start: ms(9), End: ms(10)},
		{TID: 1, Call: "close", FD: 3, Ret: 0, Start: ms(11), End: ms(12)},
	}}
	tr.Renumber()
	var buf bytes.Buffer
	if err := trace.EncodeStrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<unfinished ...>") {
		t.Fatal("fixture did not produce split calls")
	}
	return buf.String(), snap
}

func encodeBench(t *testing.T, b *Benchmark) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := b.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCompileStraceStreamEquivalence holds the streaming parse→compile
// path to the batch path: same strace text, same snapshot, same modes
// must yield byte-identical artifacts — trace, snapshot, analysis, graph
// and touch plan — and the streamed benchmark must replay cleanly.
func TestCompileStraceStreamEquivalence(t *testing.T) {
	text, snap := streamFixture(t)
	modes := core.DefaultModes()

	streamed, err := CompileStraceStream(strings.NewReader(text), snap, modes)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ParseStrace(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Compile(tr, snap, modes)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := encodeBench(t, streamed), encodeBench(t, batch); !bytes.Equal(got, want) {
		t.Fatalf("streamed artifact (%d bytes) differs from batch (%d bytes)", len(got), len(want))
	}
	if !reflect.DeepEqual(streamed.Graph.Edges, batch.Graph.Edges) {
		t.Fatalf("streamed graph edges differ: %v vs %v", streamed.Graph.Edges, batch.Graph.Edges)
	}

	k := sim.NewKernel()
	sys := stack.New(k, defaultConf())
	if err := Init(sys, streamed, ""); err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(sys, streamed, Options{SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("streamed replay errors: %v", rep.ErrorSamples)
	}
}

// TestCompileStraceStreamNilSnapshot covers the documented fallback:
// with no snapshot there is nothing to overlap (the analyzer's initial
// state comes from a whole-trace prescan), so the call must still
// produce exactly the batch compile's result.
func TestCompileStraceStreamNilSnapshot(t *testing.T) {
	text, _ := streamFixture(t)
	modes := core.DefaultModes()

	streamed, err := CompileStraceStream(strings.NewReader(text), nil, modes)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ParseStrace(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Compile(tr, nil, modes)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := encodeBench(t, streamed), encodeBench(t, batch); !bytes.Equal(got, want) {
		t.Fatalf("nil-snapshot streamed artifact (%d bytes) differs from batch (%d bytes)", len(got), len(want))
	}
	if !reflect.DeepEqual(streamed.Graph.Edges, batch.Graph.Edges) {
		t.Fatal("nil-snapshot streamed graph edges differ from batch")
	}
}

// TestCompileStraceLineBoundIsCapacityOnly: the line count
// CompileStrace hands the parser and the analyzer sizes two tables and
// must change nothing else. Every input shape that makes lines and
// records differ — split calls, CRLF, no final newline, blank and signal
// lines — compiles to the same bytes with the bound unknown, exact and
// ten times over.
func TestCompileStraceLineBoundIsCapacityOnly(t *testing.T) {
	text, snap := streamFixture(t)
	for name, in := range map[string]string{
		"split calls":      text,
		"crlf":             strings.ReplaceAll(text, "\n", "\r\n"),
		"no final newline": strings.TrimRight(text, "\n"),
		"blank and signal": "\n+++ exited with 0 +++\n--- SIGCHLD {si_signo=SIGCHLD} ---\n  \n" + text + "\n\n",
	} {
		exact := strings.Count(in, "\n") + 1
		var want []byte
		for _, lines := range []int{0, exact, 10 * exact} {
			b, err := compileStraceStream(strings.NewReader(in), lines, snap, core.DefaultModes())
			if err != nil {
				t.Fatalf("%s, %d lines: %v", name, lines, err)
			}
			if n, c := len(b.Trace.Records), cap(b.Analysis.Actions); n != 6 || c > 8 {
				t.Fatalf("%s, %d lines: %d records, action table of capacity %d kept", name, lines, n, c)
			}
			got := encodeBench(t, b)
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Fatalf("%s: artifact with a bound of %d lines differs from the unbounded compile", name, lines)
			}
		}
		b, err := CompileStrace([]byte(in), snap, core.DefaultModes())
		if err != nil || !bytes.Equal(encodeBench(t, b), want) {
			t.Fatalf("%s: CompileStrace differs from the unbounded compile (%v)", name, err)
		}
	}
}
