package workload_test

import (
	"bytes"
	"os"
	"testing"

	"rootreplay/internal/artc"
	"rootreplay/internal/core"
	"rootreplay/internal/shard"
	"rootreplay/internal/workload"
)

// The pipeline family must collapse into one weakly-connected component
// (the shape PR 6's partitioner cannot split) that resource-cut slicing
// then cuts into the requested slice count, with every cross-slice edge
// synthetic (a severed thread adjacency, never a resource edge).
func TestPipelineFamilyShape(t *testing.T) {
	params := workload.Pipeline{Stages: 4, Ops: 200, Handoff: 16, Seed: 3}
	tr, snap, err := workload.SynthPipeline(params)
	if err != nil {
		t.Fatal(err)
	}
	b, err := artc.Compile(tr, snap, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	p := shard.Partition(b.Analysis, b.Graph)
	if len(p.Components) != 1 {
		t.Fatalf("pipeline split into %d components, want 1", len(p.Components))
	}
	n := len(p.Components[0])
	sliced := shard.Slice(b.Analysis, b.Graph, p, shard.SliceOptions{MaxActions: n/4 + 1})
	if len(sliced.Components) < 2 {
		t.Fatalf("slicing left the pipeline whole: %d slices", len(sliced.Components))
	}
	for _, ce := range sliced.Cross {
		if int(ce.Edge) < len(b.Graph.Edges) {
			t.Fatalf("cut severed resource edge %d; only thread adjacencies may cross slices", ce.Edge)
		}
	}
}

// Generation is a pure function of the parameters: two runs must
// produce byte-identical traces (CI regenerates the checked-in spec
// and diffs against it).
func TestPipelineFamilyDeterministic(t *testing.T) {
	params := workload.Pipeline{Stages: 4, Ops: 200, Handoff: 16, Seed: 11}
	enc := func() []byte {
		tr, _, err := workload.SynthPipeline(params)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(enc(), enc()) {
		t.Fatal("two generations of the same parameters differ")
	}
}

// The checked-in spec pins the generator's output: regeneration with
// the recorded parameters must reproduce it byte for byte (CI runs the
// same check through cmd/tracegen).
func TestPipelineFamilyGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/pipeline_small.trace")
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := workload.SynthPipeline(workload.Pipeline{Stages: 4, Ops: 200, Handoff: 16, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("regenerated spec differs from testdata/pipeline_small.trace (%d vs %d bytes)",
			buf.Len(), len(want))
	}
}
