package artc

import (
	"bytes"
	"runtime"
	"testing"

	"rootreplay/internal/core"
	"rootreplay/internal/obs"
	"rootreplay/internal/sim"
	"rootreplay/internal/stack"
	"rootreplay/internal/workload"
)

// The allocation ceilings of the replay loop (scripts/ci.sh allocs runs
// them under GOMAXPROCS 1 and 2). Each counts the heap allocations of one
// whole Replay call — tables, bookkeeping slices, replay threads and all
// — and divides by the records replayed, so a ceiling well under one
// says no allocation is made per record.

// replayAllocsPerRecord replays p's pipeline on target (warmed or cold)
// and returns the heap allocations Replay made per record.
func replayAllocsPerRecord(t *testing.T, p workload.Pipeline, target string, warm bool, recorder bool) float64 {
	t.Helper()
	tr, snap, err := workload.SynthPipeline(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(tr, snap, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	conf, err := stack.ParseTarget(target, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sys := stack.New(sim.NewKernel(), conf)
	if err := Init(sys, b, ""); err != nil {
		t.Fatal(err)
	}
	if warm {
		sys.WarmAll()
	}
	var opts Options
	if recorder {
		opts.Obs = obs.NewRecorder(len(tr.Records), 0)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rep, err := Replay(sys, b, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d semantic errors", rep.Errors)
	}
	t.Logf("%d allocations over %d records", after.Mallocs-before.Mallocs, len(tr.Records))
	return float64(after.Mallocs-before.Mallocs) / float64(len(tr.Records))
}

var hitsPipeline = workload.Pipeline{Stages: 8, Ops: 2000, Handoff: 64, FileBytes: 8 << 20, Seed: 7}

// A warmed hit-only replay allocates for its set-up and nothing per
// record: no trace.Record per syscall, no fdesc and no Mapper closure per
// open, no list element per page touch, no map growth.
func TestReplayAllocsHitsObsOff(t *testing.T) {
	if got := replayAllocsPerRecord(t, hitsPipeline, "linux-ext4-ssd-noop", true, false); got > 0.05 {
		t.Fatalf("%.3f allocations per record, ceiling 0.05", got)
	}
}

// With a recorder sized for the replay the only additions are a span
// chunk per 1024 records and the resource name of each released span.
func TestReplayAllocsHitsRecorder(t *testing.T) {
	if got := replayAllocsPerRecord(t, hitsPipeline, "linux-ext4-ssd-noop", true, true); got > 0.1 {
		t.Fatalf("%.3f allocations per record, ceiling 0.1", got)
	}
}

// decodeBytesPerRecordCeiling is 15 % over what decoding the hits
// pipeline's artifact allocates per record today: 273 bytes. It was 343
// while an action was a 72-byte record of pointers (its trace record,
// touch slice, path strings and hint) and the series a slice per
// resource, and 428 while every touch carried a copy of its resource's
// identity.
const decodeBytesPerRecordCeiling = 314

// TestDecodeBytesPerRecord counts every byte DecodeBinaryBytes allocates,
// section goroutines included, per record decoded. scripts/ci.sh allocs
// runs it under GOMAXPROCS 1 and 2 and prints the figure.
func TestDecodeBytesPerRecord(t *testing.T) {
	tr, snap, err := workload.SynthPipeline(hitsPipeline)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(tr, snap, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := b.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBinaryBytes(buf.Bytes()); err != nil { // lazily built runtime state is not the decode's own
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = DecodeBinaryBytes(buf.Bytes())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perRecord := (after.TotalAlloc - before.TotalAlloc) / uint64(len(tr.Records))
	t.Logf("decode: %d bytes allocated per record (%d records, ceiling %d)", perRecord, len(tr.Records), decodeBytesPerRecordCeiling)
	if perRecord > decodeBytesPerRecordCeiling {
		t.Errorf("decode allocates %d bytes per record, ceiling %d", perRecord, decodeBytesPerRecordCeiling)
	}
}

// Cold and fsync-heavy, every simulated I/O allocates (a request, its
// completion closure, a condition variable), which is work the call
// asked for. One allocation per syscall on top of that — the traced
// Record or the fdesc coming back — lifts the figure by one or more and
// over the ceiling.
func TestReplayAllocsWriteback(t *testing.T) {
	p := workload.Pipeline{Stages: 8, Ops: 1000, Handoff: 64, Fsync: 2, FileBytes: 8 << 20, Seed: 7}
	if got := replayAllocsPerRecord(t, p, "linux-ext4-hdd-cfq", false, false); got > 2.5 {
		t.Fatalf("%.3f allocations per record, ceiling 2.5", got)
	}
}
