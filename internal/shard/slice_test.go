package shard_test

import (
	"os"
	"reflect"
	"testing"

	"rootreplay/internal/artc"
	"rootreplay/internal/core"
	"rootreplay/internal/shard"
	"rootreplay/internal/snapshot"
	"rootreplay/internal/trace"
	"rootreplay/internal/workload"
)

// The static resource cut is pinned on two corpora: the checked-in
// pipeline spec at the granularity the CI shard lane slices it, and a
// larger generated pipeline cut four ways. A change to sliceComponent
// that moves either cut moves every sliced golden with it, so it has to
// show up here first. The plan is a pure function of (trace, options).
func TestSliceStaticPlanPinned(t *testing.T) {
	fromFile := func(t *testing.T) (*trace.Trace, *snapshot.Snapshot) {
		f, err := os.Open("../workload/testdata/pipeline_small.trace")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		tr, err := trace.Decode(f)
		if err != nil {
			t.Fatal(err)
		}
		return tr, nil // Compile infers the snapshot
	}
	generated := func(t *testing.T) (*trace.Trace, *snapshot.Snapshot) {
		tr, snap, err := workload.SynthPipeline(workload.Pipeline{Stages: 8, Ops: 320, Handoff: 64, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return tr, snap
	}
	cases := []struct {
		name        string
		load        func(*testing.T) (*trace.Trace, *snapshot.Snapshot)
		maxActions  int
		fingerprint uint64
		sizes       []int
		cross       int
	}{
		{
			name:        "pipeline_small/700",
			load:        fromFile,
			maxActions:  700,
			fingerprint: 16235070702262970457, sizes: []int{636, 711, 561, 561}, cross: 61,
		},
		{
			name:        "pipeline8x320/4slices",
			load:        generated,
			maxActions:  7749/4 + 1, // a quarter of its 7749 records, the way bench's sliced_hits asks for 4 slices
			fingerprint: 15119932139417527848, sizes: []int{1971, 1998, 1890, 1890}, cross: 47,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, snap := tc.load(t)
			b, err := artc.Compile(tr, snap, core.DefaultModes())
			if err != nil {
				t.Fatal(err)
			}
			cut := func() *shard.Plan {
				return shard.Slice(b.Analysis, b.Graph, shard.Partition(b.Analysis, b.Graph), shard.SliceOptions{MaxActions: tc.maxActions})
			}
			p := cut()
			checkPlan(t, b.Graph, p)
			// The cut iterates maps; a hundred repeats would expose an
			// order it forgot to fix.
			for run := 0; run < 100; run++ {
				if again := cut(); !reflect.DeepEqual(again, p) {
					t.Fatalf("run %d: the same inputs cut differently", run)
				}
			}
			sizes := make([]int, len(p.Components))
			for i, c := range p.Components {
				sizes[i] = len(c)
			}
			if p.Fingerprint() != tc.fingerprint || !reflect.DeepEqual(sizes, tc.sizes) || len(p.Cross) != tc.cross {
				t.Fatalf("static cut moved:\n got fingerprint %d sizes %v cross %d\nwant fingerprint %d sizes %v cross %d",
					p.Fingerprint(), sizes, len(p.Cross), tc.fingerprint, tc.sizes, tc.cross)
			}
		})
	}
}
