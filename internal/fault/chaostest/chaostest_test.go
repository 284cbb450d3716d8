package chaostest

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"rootreplay/internal/artc"
	"rootreplay/internal/core"
	"rootreplay/internal/fault"
	"rootreplay/internal/magritte"
	"rootreplay/internal/obs"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
)

// compileSmall compiles a small Magritte benchmark shared by the tests.
func compileSmall(t *testing.T) *artc.Benchmark {
	t.Helper()
	spec, ok := magritte.SpecByName("pages_docphoto15")
	if !ok {
		t.Fatal("unknown spec")
	}
	gen, err := magritte.Generate(spec, magritte.GenOptions{Scale: 0.005, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := artc.Compile(gen.Trace, gen.Snapshot, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func chaosPlan() *fault.Plan {
	return &fault.Plan{
		Syscall: fault.SyscallPlan{Rate: 0.02},
		Storage: fault.StoragePlan{ErrorRate: 0.02, SlowRate: 0.02},
		Retry:   fault.RetryPlan{MaxAttempts: 4},
	}
}

// A seed sweep over a real corpus trace must uphold every invariant,
// and the rates above must actually inject somewhere in the sweep.
func TestSweepInvariantsHold(t *testing.T) {
	opts := Options{
		Bench:  compileSmall(t),
		Spec:   artc.RunSpec{Target: magritte.DefaultSuiteOptions().Target, Fault: chaosPlan()},
		Verify: true,
		Obs:    true,
	}
	results := Sweep(opts, Seeds(1, 4))
	injected := false
	for i := range results {
		if !results[i].OK() {
			t.Fatalf("%s:\n%s", results[i].String(),
				strings.Join(results[i].Violations, "\n"))
		}
		if s := results[i].Stats; s.SyscallInjected > 0 || s.StorageErrors > 0 || s.StorageSlow > 0 {
			injected = true
		}
	}
	if !injected {
		t.Fatal("a 4-seed sweep at 2% rates injected nothing")
	}
}

// A sliced sharded sweep — the clock-exchange coordinator under random
// faults — must uphold the same invariants at every shard count,
// including per-seed bit-reproducibility.
func TestSweepSlicedInvariantsHold(t *testing.T) {
	b := compileSmall(t)
	for _, shards := range []int{1, 2, 4, 8} {
		opts := Options{
			Bench: b,
			Spec: artc.RunSpec{
				Target: magritte.DefaultSuiteOptions().Target, Fault: chaosPlan(),
				Shards: shards, SliceActions: len(b.Trace.Records)/4 + 1,
			},
			Verify: true,
			Obs:    true,
		}
		for _, res := range Sweep(opts, Seeds(1, 2)) {
			if !res.OK() {
				t.Fatalf("shards=%d %s:\n%s", shards, res.String(),
					strings.Join(res.Violations, "\n"))
			}
		}
	}
}

// The export must be byte-identical across two independent runs of the
// same seed, and must parse as one JSON document.
func TestExportBitReproducible(t *testing.T) {
	opts := Options{
		Bench: compileSmall(t),
		Spec:  artc.RunSpec{Target: magritte.DefaultSuiteOptions().Target, Fault: chaosPlan()},
		Obs:   true,
	}
	var a, b bytes.Buffer
	resA, recA := RunSeed(opts, 3)
	if err := WriteExport(&a, &resA, recA); err != nil {
		t.Fatal(err)
	}
	resB, recB := RunSeed(opts, 3)
	if err := WriteExport(&b, &resB, recB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("exports differ across identical runs (%d vs %d bytes)", a.Len(), b.Len())
	}
	var doc struct {
		Seed   uint64      `json:"seed"`
		Errors int         `json:"errors"`
		Stats  fault.Stats `json:"stats"`
		Chrome struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		} `json:"chrome"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.Seed != 3 || len(doc.Chrome.TraceEvents) == 0 {
		t.Fatalf("export lost content: seed=%d, %d trace events", doc.Seed, len(doc.Chrome.TraceEvents))
	}
}

// An impossible watchdog window forces a stall, which must surface as a
// violation — proving invariant failures actually propagate.
func TestViolationsPropagate(t *testing.T) {
	plan := chaosPlan()
	plan.Watchdog = time.Nanosecond
	opts := Options{
		Bench: compileSmall(t),
		Spec:  artc.RunSpec{Target: magritte.DefaultSuiteOptions().Target, Fault: plan},
	}
	res, _ := RunSeed(opts, 1)
	if res.OK() {
		t.Fatal("a 1ns watchdog cannot be satisfied, yet no violation was reported")
	}
	if !strings.Contains(res.Violations[0], "stalled (watchdog)") {
		t.Fatalf("violation = %q, want the stall report", res.Violations[0])
	}
}

// A replay that panics inside a simulated thread is a violation for its
// seed, not the end of the sweep: the kernel re-raises the panic from
// Run, where replayOnce can recover it.
func TestPanickingReplayIsAViolation(t *testing.T) {
	b := compileSmall(t)
	calls := 0
	opts := Options{Bench: b, Spec: artc.RunSpec{
		Target: magritte.DefaultSuiteOptions().Target,
		Init: func(sys *stack.System) error {
			if err := magritte.InitTarget(sys, b, true); err != nil {
				return err
			}
			// The tracer runs inside the replay thread issuing the call.
			sys.SetTracer(func(*trace.Record) {
				if calls++; calls == 20 {
					panic("tracer exploded")
				}
			})
			return nil
		},
	}}
	res, _ := RunSeed(opts, 1)
	if len(res.Violations) != 1 || !strings.HasPrefix(res.Violations[0], "panic: ") ||
		!strings.Contains(res.Violations[0], "tracer exploded") ||
		!strings.Contains(res.Violations[0], "replay-T") {
		t.Fatalf("violations = %q, want one panic naming the replay thread", res.Violations)
	}
}

// A target that cannot be initialized is a violation naming init, on
// both engines: init runs inside artc.Run, and the harness must still
// tell it from a replay that started and failed to terminate.
func TestFailedInitIsAViolation(t *testing.T) {
	b := compileSmall(t)
	for _, shards := range []int{0, 2} {
		res, _ := RunSeed(Options{Bench: b, Spec: artc.RunSpec{
			Target: magritte.DefaultSuiteOptions().Target,
			Shards: shards,
			Init:   func(*stack.System) error { return errors.New("disk on fire") },
		}}, 1)
		if len(res.Violations) != 1 || !strings.HasPrefix(res.Violations[0], "init: ") ||
			!strings.Contains(res.Violations[0], "disk on fire") {
			t.Errorf("shards=%d: violations = %q, want one init violation", shards, res.Violations)
		}
	}
}

// A trace export that cannot be encoded was never compared, so it must
// not count as reproducible: a NaN counter sample in either run's
// recorder is a violation naming the encoder's error.
func TestFailedExportIsAViolation(t *testing.T) {
	good := func() *obs.Recorder {
		r := obs.NewRecorder(8, 8)
		r.Record(obs.Span{Action: 0, TID: 1, Call: "open", Done: time.Microsecond, ReleasedBy: -1})
		r.Sample(0, obs.CounterRunq, 1)
		return r
	}
	bad := good()
	bad.Sample(time.Microsecond, obs.CounterDevUtil, math.NaN())

	if v := exportViolations(good(), good()); len(v) != 0 {
		t.Fatalf("identical recorders reported %q", v)
	}
	for name, pair := range map[string][2]*obs.Recorder{
		"first run":  {bad, good()},
		"verify run": {good(), bad},
		"both runs":  {bad, bad},
	} {
		v := exportViolations(pair[0], pair[1])
		if len(v) != 1 || !strings.Contains(v[0], "export") || !strings.Contains(v[0], "unsupported value: NaN") {
			t.Errorf("%s: violations = %q, want one naming the failed export and its error", name, v)
		}
	}
}
