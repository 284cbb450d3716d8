package chaostest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"rootreplay/internal/artc"
	"rootreplay/internal/core"
	"rootreplay/internal/magritte"
	"rootreplay/internal/stack"
)

// The default plan's outcome is pinned across commits, not only across
// two runs of one build: the SHA-256 of each seed's WriteExport document
// (with its span recorder) for what `artc chaos -magritte
// pages_docphoto15 -gen-scale 0.01 -seed N -o` writes, serially and on
// the sharded replayer. A change to these hashes is a change in what
// chaos replays inject, retry, time or record.
func TestChaosDefaultPlanPinned(t *testing.T) {
	spec, ok := magritte.SpecByName("pages_docphoto15")
	if !ok {
		t.Fatal("unknown spec")
	}
	gen, err := magritte.Generate(spec, magritte.GenOptions{Scale: 0.01, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := artc.Compile(gen.Trace, gen.Snapshot, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	target, err := stack.ParseTarget("linux-ext4-ssd-noop", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The sharded replayer's export equals the serial one's.
	want := []string{
		"91b7970154326c53bddb86159df83bd2f403be12f6e8cbbefa1af877530bbd16",
		"4af4bb76ccbb550901481debd8dde5560635dfec2346f38cdae3bea8dd9a5b83",
		"689550c1252dcad2ddef1f68b350e9904cb298f88fb0089997707c2965f58415",
		"f1961c2aae8f2f7632f1c0e9a2b22c829dfc4eac8e82d81ce3ffb31d398211a8",
	}
	for _, shards := range []int{0, 4} {
		plan := DefaultPlan()
		opts := Options{Bench: b, Spec: artc.RunSpec{Target: target, Fault: &plan, Shards: shards}, Obs: true}
		for i, seed := range Seeds(1, 4) {
			res, rec := RunSeed(opts, seed)
			var buf bytes.Buffer
			if err := WriteExport(&buf, &res, rec); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != want[i] {
				t.Errorf("shards=%d seed %d: export sha256 %s, want %s (%s)", shards, seed, got, want[i], &res)
			}
		}
	}
}
