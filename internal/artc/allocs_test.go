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
// and returns the heap allocations and the bytes Replay made per record.
func replayAllocsPerRecord(t *testing.T, p workload.Pipeline, target string, warm bool, recorder bool) (allocs, bytes float64) {
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
	if recorder && len(opts.Obs.Spans()) != len(tr.Records) {
		t.Fatalf("%d spans recorded over %d records", len(opts.Obs.Spans()), len(tr.Records))
	}
	t.Logf("%d allocations, %d bytes over %d records", after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc, len(tr.Records))
	n := float64(len(tr.Records))
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}

var hitsPipeline = workload.Pipeline{Stages: 8, Ops: 2000, Handoff: 64, FileBytes: 8 << 20, Seed: 7}

// A warmed hit-only replay allocates for its set-up and nothing per
// record: no trace.Record per syscall, no fdesc and no Mapper closure per
// open, no list element per page touch, no map growth.
func TestReplayAllocsHitsObsOff(t *testing.T) {
	if got, _ := replayAllocsPerRecord(t, hitsPipeline, "linux-ext4-ssd-noop", true, false); got > 0.05 {
		t.Fatalf("%.3f allocations per record, ceiling 0.05", got)
	}
}

// With a recorder sized for the replay the only additions are a span
// chunk per 1024 records, the name table and one rendered name per
// distinct resource a released span names: 0.035 per record, where it
// was 0.046 while every released span rendered its resource's name.
// The ceiling is 15 % over.
func TestReplayAllocsHitsRecorder(t *testing.T) {
	if got, _ := replayAllocsPerRecord(t, hitsPipeline, "linux-ext4-ssd-noop", true, true); got > 0.041 {
		t.Fatalf("%.3f allocations per record, ceiling 0.041", got)
	}
}

// recorderBytesPerSpanCeiling is 15 % over what recording costs a warmed
// hits replay per span today: 76 bytes, the 64-byte span in its ring
// chunk plus the replayer's released-edge bookkeeping (12 bytes an
// action) and the name table. It was 109 while a span was 96 bytes with
// two strings in it and each released span rendered its resource's name.
const recorderBytesPerSpanCeiling = 87

// TestRecorderBytesPerSpan is the heap bytes a recorder sized for the
// replay adds to a warmed hits replay, per span recorded: the replay's
// bytes per record with the recorder less those without it (one span per
// record). scripts/ci.sh allocs runs it under GOMAXPROCS 1 and 2 and
// prints the figure.
func TestRecorderBytesPerSpan(t *testing.T) {
	_, off := replayAllocsPerRecord(t, hitsPipeline, "linux-ext4-ssd-noop", true, false)
	_, on := replayAllocsPerRecord(t, hitsPipeline, "linux-ext4-ssd-noop", true, true)
	perSpan := int(on - off + 0.5)
	t.Logf("recorder: %d bytes allocated per span (ceiling %d)", perSpan, recorderBytesPerSpanCeiling)
	if perSpan > recorderBytesPerSpanCeiling {
		t.Errorf("recording allocates %d bytes per span, ceiling %d", perSpan, recorderBytesPerSpanCeiling)
	}
}

// decodeBytesPerRecordCeiling is 15 % over what decoding the hits
// pipeline's artifact allocates per record today: 193 bytes. It was 273
// while a trace record was 184 bytes of strings and numbers reached
// through an 8-byte pointer (112 bytes of indices and numbers now, in
// one slab), 343 while an action was a 72-byte record of pointers (its
// trace record, touch slice, path strings and hint) and the series a
// slice per resource, and 428 while every touch carried a copy of its
// resource's identity.
const decodeBytesPerRecordCeiling = 222

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

// Cold and fsync-heavy, a replay issues a device request or more for
// most records, and none of them allocates: the page cache, the journal
// and the scheduler take their requests, completions and condition
// variables off free lists (DESIGN.md, "I/O completion records"). What
// is left is set-up and the growth of pages, files and free lists:
// 0.041 per record, where it was 1.93 while every simulated I/O made a
// request, a completion closure and a condition variable. The ceiling
// is 15 % over; one allocation per request, or per syscall, lifts the
// figure far past it.
func TestReplayAllocsWriteback(t *testing.T) {
	p := workload.Pipeline{Stages: 8, Ops: 1000, Handoff: 64, Fsync: 2, FileBytes: 8 << 20, Seed: 7}
	if got, _ := replayAllocsPerRecord(t, p, "linux-ext4-hdd-cfq", false, false); got > 0.047 {
		t.Fatalf("%.3f allocations per record, ceiling 0.047", got)
	}
}
