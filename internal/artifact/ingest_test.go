package artifact

import (
	"bytes"
	"runtime"
	"testing"

	"rootreplay/internal/core"
	"rootreplay/internal/trace"
	"rootreplay/internal/workload"
)

// ingestBytesPerRecordCeiling is 15 % over what one ingest allocates per
// record today: 516 bytes. It was 691 while a trace record was 184 bytes
// of strings and numbers reached through an 8-byte pointer (112 bytes of
// indices and numbers now, in one slab), 805 while an action was a
// 72-byte record of pointers (20 bytes of indices now) and the series a
// slice per resource, 962 while every touch carried a copy of its resource's
// identity (40 bytes a touch, now 8), and 1468 before the ingest path
// sized its tables from the line count, encoded into one buffer and kept
// graphs in CSR form.
const ingestBytesPerRecordCeiling = 594

// TestIngestBytesPerRecord counts every byte the ingest path allocates —
// strace text through CompileStrace into the store and back out through
// Get, lexer and decoder goroutines included — per record ingested.
// scripts/ci.sh allocs runs it under GOMAXPROCS 1 and 2 and prints the
// figure.
func TestIngestBytesPerRecord(t *testing.T) {
	tr, snap, err := workload.SynthComponents(workload.Components{N: 8, Ops: 4000, Skew: 0.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := trace.EncodeStrace(&text, tr); err != nil {
		t.Fatal(err)
	}
	ingest := func() int {
		s, err := Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := CompileStrace(s, text.Bytes(), snap, core.DefaultModes())
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := s.Get(st.Key)
		if err != nil {
			t.Fatal(err)
		}
		return len(b.Trace.Records)
	}
	ingest() // pools and lazily built tables are not the ingest's own
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	records := ingest()
	runtime.ReadMemStats(&after)
	perRecord := (after.TotalAlloc - before.TotalAlloc) / uint64(records)
	t.Logf("ingest: %d bytes allocated per record (%d records, ceiling %d)", perRecord, records, ingestBytesPerRecordCeiling)
	if perRecord > ingestBytesPerRecordCeiling {
		t.Errorf("ingest allocates %d bytes per record, ceiling %d", perRecord, ingestBytesPerRecordCeiling)
	}
}
