package artc

import (
	"slices"
	"testing"

	"rootreplay/internal/core"
	"rootreplay/internal/sim"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
	"rootreplay/internal/vfs"
)

// A hand-built benchmark — an analysis that never went through Finish (its
// own resource numbering, no series) and no compile-time touch plan —
// gets its tables built when replay starts and replays exactly like the
// compiled one: remapped descriptors (dup2 and a failed call's FDHint
// among them) and AIOCBs, same report.
func TestHandBuiltAnalysisGetsTables(t *testing.T) {
	conf := defaultConf()
	tr, snap := traceWorkload(t, conf,
		func(sys *stack.System) error {
			if err := sys.SetupMkdirAll("/dir"); err != nil {
				return err
			}
			return sys.SetupCreate("/f", 1<<20)
		},
		func(sys *stack.System, th *sim.Thread) {
			// Shift numbering so nothing works unless remapped.
			pad, _ := sys.Open(th, "/f", trace.ORdonly, 0)
			fd, _ := sys.Open(th, "/f", trace.ORdwr, 0)
			dir, _ := sys.Open(th, "/dir", trace.ORdonly|trace.ODir, 0)
			sys.Close(th, pad)
			if _, err := sys.Read(th, dir, 64); err != vfs.EISDIR {
				t.Errorf("traced dir read = %v, want EISDIR", err)
			}
			d, _ := sys.Dup(th, fd)
			sys.Dup2(th, dir, d)
			id, _ := sys.AioRead(th, fd, 8192, 0)
			sys.AioSuspend(th, id)
			sys.AioReturn(th, id)
			sys.Close(th, d)
			sys.Close(th, dir)
			sys.Close(th, fd)
		})
	compiled, err := Compile(tr, snap, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	// The hand-built analysis numbers the resources in the reverse of the
	// analyzer's first-touch order, so nothing may lean on that order.
	nRes := int32(len(compiled.Analysis.Resources))
	resources := make([]core.ResourceID, nRes)
	for k, r := range compiled.Analysis.Resources {
		resources[nRes-1-int32(k)] = r
	}
	touches := slices.Clone(compiled.Analysis.TouchSlab)
	for ti := range touches {
		touches[ti].Idx = nRes - 1 - touches[ti].Idx
	}
	acts := slices.Clone(compiled.Analysis.Actions)
	for i := range acts {
		if acts[i].FDHint >= 0 {
			acts[i].FDHint = nRes - 1 - acts[i].FDHint
		}
	}
	hand := &Benchmark{
		Platform: compiled.Platform, Modes: compiled.Modes, Trace: tr, Snapshot: snap,
		Analysis: &core.Analysis{Trace: tr, Actions: acts, Paths: compiled.Analysis.Paths, TouchSlab: touches, Resources: resources},
		Graph:    compiled.Graph,
	}
	replay := func(b *Benchmark) string {
		sys := stack.New(sim.NewKernel(), conf)
		if err := Init(sys, b, ""); err != nil {
			t.Fatal(err)
		}
		rep, err := Replay(sys, b, Options{SelfCheck: true})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Errors != 0 {
			t.Fatalf("semantic errors: %v", rep.ErrorSamples)
		}
		return reportJSON(t, rep)
	}
	if got, want := replay(hand), replay(compiled); got != want {
		t.Fatalf("hand-built benchmark replays differently:\n got %s\nwant %s", got, want)
	}
	if h := hand.hot(); h.nSlots != len(resources) {
		t.Fatalf("%d resource slots for %d resources", h.nSlots, len(resources))
	}
}
