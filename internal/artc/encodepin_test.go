package artc_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"rootreplay/internal/artc"
	"rootreplay/internal/artifact"
	"rootreplay/internal/core"
)

// The artifact golden pins the bytes EncodeBinary emits for every pinned
// corpus compiled under the default modes: length and sha256.
// testdata/artifact_bytes.golden was recorded with -update-artifact-bytes
// at e4d1ce9, the last commit whose encoder grew one buffer per section
// and assembled them afterwards; an encoder that lays the sections out
// differently in memory must still reproduce every byte. Regenerate it
// only together with a BinaryFormatVersion bump.
var updateArtifactBytes = flag.Bool("update-artifact-bytes", false, "rewrite testdata/artifact_bytes.golden")

const artifactBytesGolden = "testdata/artifact_bytes.golden"

// writeLog keeps a copy of every Write it is handed.
type writeLog struct{ writes [][]byte }

func (w *writeLog) Write(p []byte) (int, error) {
	w.writes = append(w.writes, bytes.Clone(p))
	return len(p), nil
}

// TestEncodeBinaryWritesOnce holds the encoder to one Write of the whole
// artifact (the store hands it the temp file itself, so a second Write
// would be a second syscall and a torn artifact if the first failed), to
// the length Store.Put reports, and to the pinned bytes.
func TestEncodeBinaryWritesOnce(t *testing.T) {
	store, err := artifact.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, c := range pinnedCorpora(testing.Short() && !*updateArtifactBytes) {
		tr, snap, err := c.load()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		b, err := artc.Compile(tr, snap, core.DefaultModes())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var w writeLog
		if err := b.EncodeBinary(&w); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(w.writes) != 1 {
			t.Fatalf("%s: EncodeBinary made %d writes, want 1", c.name, len(w.writes))
		}
		key, err := artifact.KeyTrace(tr, b.Snapshot, b.Modes)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n, err := store.Put(key, b); err != nil || n != int64(len(w.writes[0])) {
			t.Fatalf("%s: Put = %d, %v; EncodeBinary wrote %d bytes", c.name, n, err, len(w.writes[0]))
		}
		got = append(got, fmt.Sprintf("%s %d %x", c.name, len(w.writes[0]), sha256.Sum256(w.writes[0])))
	}

	if *updateArtifactBytes {
		if err := os.WriteFile(artifactBytesGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(artifactBytesGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, l := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, _, _ := strings.Cut(l, " ")
		want[name] = l
	}
	for _, g := range got {
		name, _, _ := strings.Cut(g, " ")
		if want[name] != g {
			t.Errorf("artifact bytes moved:\n got %s\nwant %s", g, want[name])
		}
	}
}

// TestTouchKindsMatchResources: on every pinned corpus, compiled and then
// decoded, the analysis' index tables hold together. Each touch indexes
// the resource table in range and carries its resource's kind (the
// analyzer copies the kind from the resource it found, the decoder from
// the table, and the replay plan trusts it without looking the resource
// up); each resource's series is the actions whose touches name it; each
// hint indexes a descriptor; and each action's canonical paths read the
// same through Paths on both sides.
func TestTouchKindsMatchResources(t *testing.T) {
	for _, c := range pinnedCorpora(testing.Short()) {
		tr, snap, err := c.load()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		b, err := artc.Compile(tr, snap, core.DefaultModes())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var buf bytes.Buffer
		if err := b.EncodeBinary(&buf); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		decoded, err := artc.DecodeBinaryBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for side, an := range map[string]*core.Analysis{"compiled": b.Analysis, "decoded": decoded.Analysis} {
			series := make([][]int, len(an.Resources))
			for i := range an.Actions {
				for ti, tc := range an.Touches(i) {
					if tc.Idx < 0 || int(tc.Idx) >= len(an.Resources) {
						t.Fatalf("%s %s: action %d touch %d: Idx %d outside %d resources", c.name, side, i, ti, tc.Idx, len(an.Resources))
					}
					if res := an.Resources[tc.Idx]; res.Kind != tc.Kind {
						t.Fatalf("%s %s: action %d touch %d is a %v touch of %v", c.name, side, i, ti, tc.Kind, res)
					}
					if s := series[tc.Idx]; len(s) == 0 || s[len(s)-1] != i {
						series[tc.Idx] = append(s, i)
					}
				}
				if h := an.Actions[i].FDHint; h >= 0 && (int(h) >= len(an.Resources) || an.Resources[h].Kind != core.KFD) {
					t.Fatalf("%s %s: action %d hints at resource %d, not a descriptor", c.name, side, i, h)
				}
			}
			for k, want := range series {
				if got := an.Series(k); !slices.EqualFunc(got, want, func(a int32, b int) bool { return int(a) == b }) {
					t.Fatalf("%s %s: resource %d series %v, touches say %v", c.name, side, k, got, want)
				}
			}
		}
		path := func(an *core.Analysis, p int32) string {
			if p < 0 {
				return "(none)"
			}
			return an.Paths[p]
		}
		for i, act := range b.Analysis.Actions {
			dec := decoded.Analysis.Actions[i]
			if path(b.Analysis, act.CanonPath) != path(decoded.Analysis, dec.CanonPath) ||
				path(b.Analysis, act.CanonPath2) != path(decoded.Analysis, dec.CanonPath2) {
				t.Fatalf("%s: action %d paths %q %q decode as %q %q", c.name, i,
					path(b.Analysis, act.CanonPath), path(b.Analysis, act.CanonPath2),
					path(decoded.Analysis, dec.CanonPath), path(decoded.Analysis, dec.CanonPath2))
			}
		}
	}
}
