package magritte

// Satellite test for the canonical-name dedup: InferSnapshot's prescan,
// the analyzer, and the replayer all canonicalize traced call names
// through stack.Canonical. A hand-copied subset of the alias table used
// to live in internal/artc and had drifted; this test pins the single
// source of truth against the whole Magritte corpus.

import (
	"strings"
	"testing"

	"rootreplay/internal/artc"
	"rootreplay/internal/core"
	"rootreplay/internal/stack"
)

// TestCorpusCallNamesCanonicalize walks every call name the Magritte
// generator emits across the full corpus and asserts the properties the
// prescan and the analyzer rely on to agree with each other:
// canonicalization is a fixed point (aliases never chain, so two
// independent canonicalization passes land on the same name) and every
// canonical name is one the storage model can execute.
func TestCorpusCallNamesCanonicalize(t *testing.T) {
	names := map[string]bool{}
	for _, sp := range Specs {
		gen, err := Generate(sp, GenOptions{Scale: 0.002, Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", sp.FullName(), err)
		}
		for _, r := range gen.Trace.Records {
			names[gen.Trace.Str(r.Call)] = true
		}
	}
	if len(names) < 10 {
		t.Fatalf("corpus produced only %d distinct call names", len(names))
	}
	for name := range names {
		c := stack.Canonical(name)
		if again := stack.Canonical(c); again != c {
			t.Errorf("Canonical not a fixed point: %q -> %q -> %q", name, c, again)
		}
		if stack.OpOf(name) == stack.OpNone {
			t.Errorf("corpus call %q (canonical %q) not supported by the model", name, c)
		}
	}
}

// TestCorpusPrescanAnalyzerAgree compiles a corpus trace against the
// snapshot inferred by the prescan and asserts the analyzer raises no
// unknown-call or missing-state warnings: if the two canonicalization
// paths diverged, the inferred snapshot would miss state for the calls
// the analyzer actually sees.
func TestCorpusPrescanAnalyzerAgree(t *testing.T) {
	for _, full := range []string{"pages_docphoto15", "itunes_importsmall1"} {
		sp, ok := SpecByName(full)
		if !ok {
			t.Fatalf("spec %s missing", full)
		}
		gen, err := Generate(sp, GenOptions{Scale: 0.005, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		// nil snapshot routes Compile through InferSnapshot's prescan.
		b, err := artc.Compile(gen.Trace, nil, core.DefaultModes())
		if err != nil {
			t.Fatalf("%s: %v", full, err)
		}
		for _, w := range b.Analysis.Warnings {
			lw := strings.ToLower(w)
			if strings.Contains(lw, "unknown") || strings.Contains(lw, "unsupported") {
				t.Errorf("%s: analyzer disagrees with prescan: %s", full, w)
			}
		}
	}
}
