package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"rootreplay/internal/artc"
	"rootreplay/internal/core"
	"rootreplay/internal/magritte"
	"rootreplay/internal/obs"
	"rootreplay/internal/snapshot"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
	"rootreplay/internal/workload"
)

// An export job's bytes are what artc.Run plus WriteChrome produce for
// the spec the request describes — the service adds transport, not a
// second driver. Checked for the serial engine and for the sharded,
// sliced, warmed one.
func TestExportEqualsDriver(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2})
	traceID, snapID := uploadMagritte(t, s, "a")

	traceBlob, snapBlob := magritteBlobs(t)
	tr, err := trace.Decode(bytes.NewReader(traceBlob))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Decode(bytes.NewReader(snapBlob))
	if err != nil {
		t.Fatal(err)
	}
	b, err := artc.Compile(tr, snap, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	target, err := stack.ParseTarget("linux-ext4-ssd-noop", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sliceActions := len(tr.Records)/4 + 1

	cases := []struct {
		name, fields string
		spec         artc.RunSpec
	}{
		{"serial", "", artc.RunSpec{}},
		{"sharded sliced warm",
			fmt.Sprintf(`,"shards":2,"slice_actions":%d,"warm":true,"no_samples":true`, sliceActions),
			artc.RunSpec{Shards: 2, SliceActions: sliceActions, Warm: true}},
	}
	for _, tc := range cases {
		w := do(s, http.MethodPost, "/v1/tenants/a/jobs", []byte(fmt.Sprintf(
			`{"kind":"export","trace":"%s","snapshot":"%s"%s}`, traceID, snapID, tc.fields)))
		if w.Code != http.StatusAccepted {
			t.Fatalf("%s: submit: %d %s", tc.name, w.Code, w.Body)
		}
		var doc struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		id := doc.ID
		waitState(t, s, "a", id, StateDone)
		got := do(s, http.MethodGet, "/v1/tenants/a/jobs/"+id+"/result", nil)
		if got.Code != http.StatusOK {
			t.Fatalf("%s: result: %d %s", tc.name, got.Code, got.Body)
		}

		rec := obs.NewRecorder(0, 0)
		spec := tc.spec
		spec.Options = artc.Options{Method: artc.MethodARTC, Obs: rec}
		spec.Target = target
		spec.Init = magritte.TargetInit(b, true)
		if _, _, err := artc.Run(b, spec); err != nil {
			t.Fatalf("%s: Run: %v", tc.name, err)
		}
		if tc.spec.Shards != 0 {
			rec.ClearSamples()
		}
		var want bytes.Buffer
		if err := rec.WriteChrome(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Body.Bytes(), want.Bytes()) {
			t.Errorf("%s: HTTP export (%d bytes) differs from artc.Run + WriteChrome (%d bytes)",
				tc.name, got.Body.Len(), want.Len())
		}
	}
}

// An export job holds one span per action, however many: a recorder at
// the default capacity would keep only the newest obs.DefaultSpanCap
// and silently lose the rest with their flow arrows.
func TestExportKeepsEverySpan(t *testing.T) {
	tr, snap, err := workload.SynthPipeline(workload.Pipeline{Stages: 8, Ops: 3000, Handoff: 64, FileBytes: 1 << 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) <= obs.DefaultSpanCap {
		t.Fatalf("%d records: the corpus must outgrow the default span ring (%d)", len(tr.Records), obs.DefaultSpanCap)
	}
	s, _ := newTestServer(t, Config{Workers: 1})
	tb, sb := encodeBlobs(t, tr, snap)
	traceID, snapID := uploadBlob(t, s, "a", tb), uploadBlob(t, s, "a", sb)
	id := submitJob(t, s, "a", fmt.Sprintf(`{"kind":"export","trace":"%s","snapshot":"%s","no_samples":true}`, traceID, snapID))
	waitState(t, s, "a", id, StateDone)
	got := do(s, http.MethodGet, "/v1/tenants/a/jobs/"+id+"/result", nil)
	if got.Code != http.StatusOK {
		t.Fatalf("result: %d %s", got.Code, got.Body)
	}
	if calls := bytes.Count(got.Body.Bytes(), []byte(`"cat":"call"`)); calls != len(tr.Records) {
		t.Fatalf("export holds %d call slices, want one per action: %d", calls, len(tr.Records))
	}
}
