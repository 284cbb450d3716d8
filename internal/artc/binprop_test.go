package artc

// Property tests for the two benchmark codecs: Encode→Decode→Encode is
// byte-identical in both the text and the binary format, across hostile
// path names, non-default mode sets, and both trace platforms; and the
// binary decoder never panics or accepts an inconsistent artifact, no
// matter the input (FuzzDecodeBinary).

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"
	"time"

	"rootreplay/internal/core"
	"rootreplay/internal/trace"
)

// hostilePaths exercise every quoting edge the codecs have: spaces,
// double quotes, newlines, tabs, backslashes, and multi-byte runes.
var hostilePaths = []string{
	"/data/with space/file one",
	`/data/qu"ote/na"me.txt`,
	"/data/new\nline",
	"/data/tab\there",
	`/data/back\slash`,
	"/data/ünïcode/変数",
}

// hostileBench compiles a hand-built trace whose paths are hostile to
// naive encoders. testing.TB so fuzz seeds can reuse it.
func hostileBench(tb testing.TB, platform string, modes core.ModeSet) *Benchmark {
	tb.Helper()
	tr := &trace.Trace{Platform: platform}
	now := time.Duration(0)
	add := func(rec *trace.Record) {
		rec.Seq = int64(len(tr.Records))
		rec.TID = 1 + int(rec.Seq)%2
		rec.Start = now
		now += 73 * time.Microsecond
		rec.End = now
		tr.Records = append(tr.Records, rec)
	}
	for i, p := range hostilePaths {
		fd := int64(3 + i)
		add(&trace.Record{Call: "open", Path: p, Flags: trace.OWronly | trace.OCreat, Mode: 0o644, Ret: fd})
		add(&trace.Record{Call: "write", FD: fd, Size: 4096, Offset: int64(i) * 512, Ret: 4096})
		add(&trace.Record{Call: "fsync", FD: fd})
		add(&trace.Record{Call: "close", FD: fd})
		add(&trace.Record{Call: "stat", Path: p + ".missing", Err: "ENOENT", Ret: -1})
		add(&trace.Record{Call: "rename", Path: p, Path2: p + " (v2)"})
		add(&trace.Record{Call: "unlink", Path: p + " (v2)"})
	}
	b, err := Compile(tr, nil, modes)
	if err != nil {
		tb.Fatalf("compile hostile trace (%s): %v", platform, err)
	}
	return b
}

// TestEncodeDecodeEncodeStable pins the round-trip property the codec's
// consumers rely on (the artifact store compares re-encodings to detect
// drift): encoding a decoded benchmark reproduces the original bytes
// exactly.
func TestEncodeDecodeEncodeStable(t *testing.T) {
	modeSets := map[string]core.ModeSet{
		"default": core.DefaultModes(),
		"none":    {},
		"all": {ProgramSeq: true, FileSeq: true, PathStageName: true,
			FDStage: true, FDSeq: true, AIOStage: true},
		"fd-only": {FDStage: true, FDSeq: true},
	}
	for _, platform := range []string{"linux", "osx"} {
		for mname, modes := range modeSets {
			t.Run(fmt.Sprintf("%s/%s", platform, mname), func(t *testing.T) {
				b := hostileBench(t, platform, modes)

				var bin1 bytes.Buffer
				if err := b.EncodeBinary(&bin1); err != nil {
					t.Fatal(err)
				}
				dec, err := DecodeBinaryBytes(bin1.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				var bin2 bytes.Buffer
				if err := dec.EncodeBinary(&bin2); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(bin1.Bytes(), bin2.Bytes()) {
					t.Error("binary: Encode(Decode(Encode(b))) differs from Encode(b)")
				}

				// The hostile paths survived the trip intact.
				if got := dec.Trace.Records[0].Path; got != hostilePaths[0] {
					t.Errorf("path drift: %q", got)
				}
			})
		}
	}
}

// FuzzDecodeBinary hammers the binary decoder with arbitrary bytes. The
// invariants: it never panics, and when it accepts an input, the
// decoded benchmark re-encodes and decodes to the same benchmark — a
// damaged artifact may be rejected, never silently loaded as a
// different benchmark.
func FuzzDecodeBinary(f *testing.F) {
	b := hostileBench(f, "linux", core.DefaultModes())
	var buf bytes.Buffer
	if err := b.EncodeBinary(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(append([]byte{}, valid...))
	// The artifact body without its footer: the fuzz body re-appends a
	// correct checksum, so mutations of this seed reach the section
	// parsers instead of dying at the CRC gate.
	f.Add(append([]byte{}, valid[:len(valid)-5]...))
	f.Add(append([]byte{}, valid[:len(valid)/2]...))
	f.Add(append([]byte{}, valid[:len(binMagic)+4]...))
	f.Add([]byte{})
	f.Add([]byte("artc-benchmark 1\n"))

	check := func(t *testing.T, in []byte) {
		dec, err := DecodeBinaryBytes(in)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := dec.EncodeBinary(&out); err != nil {
			t.Fatalf("accepted artifact does not re-encode: %v", err)
		}
		again, err := DecodeBinaryBytes(out.Bytes())
		if err != nil {
			t.Fatalf("re-encoded artifact does not decode: %v", err)
		}
		if !reflect.DeepEqual(dec.Trace, again.Trace) ||
			!reflect.DeepEqual(dec.Snapshot, again.Snapshot) ||
			!reflect.DeepEqual(dec.Graph, again.Graph) ||
			dec.Platform != again.Platform || dec.Modes != again.Modes {
			t.Fatal("accepted artifact decodes to an unstable benchmark")
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		// As-is: almost always dies at the checksum, proving the gate.
		check(t, in)
		// With a recomputed footer: exercises every section parser.
		fixed := append(append([]byte{}, in...), secFooter)
		fixed = binary.LittleEndian.AppendUint32(fixed, crc32.Checksum(fixed, crcTable))
		check(t, fixed)
	})
}
