package trace

import (
	"bytes"
	"strings"
	"testing"
)

// Fuzz targets for the three trace parsers. `go test` runs the seed
// corpus; `go test -fuzz=FuzzParseStrace ./internal/trace` explores.
// The invariants under fuzz: no panics, and for the native format any
// successfully parsed trace re-encodes and re-parses to the same record
// count (encode/decode stability).

func FuzzParseStrace(f *testing.F) {
	f.Add(sampleStrace)
	f.Add(`1001 1679588291.000100 open("/etc/fstab", O_RDONLY) = 3 <0.000020>`)
	f.Add(`99 1.5 write(4, "x", 10 <unfinished ...>` + "\n" + `99 1.6 <... write resumed>) = 10 <0.1>`)
	f.Add(`garbage`)
	f.Add(`1 1.0 mmap(NULL, 8192, PROT_READ, MAP_PRIVATE, -1, 0) = 0x7f00 <0.1>`)
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ParseStrace(strings.NewReader(input))
		if err != nil || tr == nil {
			return
		}
		for i, r := range tr.Records {
			if r.Seq != int64(i) {
				t.Fatalf("non-dense seq after parse: %d at %d", r.Seq, i)
			}
			if r.End < r.Start {
				t.Fatalf("record %d: End < Start", i)
			}
		}
	})
}

// straceSeeds are the differential fuzz target's seeds. They sit on the
// fast path's bail-out boundaries: the "] " header rewrite,
// signed/oversized timestamps, base-0 return tokens, exponent
// durations, unfinished/resumed pairing, and quoting edge cases.
func straceSeeds(tb testing.TB) []string {
	return []string{
		sampleStrace,
		genStraceCorpus(tb, 50, 7),
		`[pid 7] 1679588291.000100 open("/etc/fstab", O_RDONLY) = 3 <0.000020>`,
		`5 1679588291.5 write(1, "x] y", 4) = 4 <0.001>`,                 // "] " inside a quoted arg
		`5 1679588291.5 write(1, "a\"b\\c", 5) = 5 <0.001>`,              // escapes inside quotes
		`5 1679588291.5 fcntl(3, F_SETLK, {l_type=F_WRLCK}) = 0 <0.001>`, // nested braces
		`1 -12.5 close(3) = 0 <0.000001>`,                                // negative epoch
		`1 99999999999999999999.5 close(3) = 0 <1e-6>`,                   // sec overflow + exponent dur
		`1 1.000000000999 close(3) = 0 <0.1>`,                            // >9 fraction digits
		`1 1.5 close(3) = 010 <0.1>`,                                     // octal return (base 0)
		`1 1.5 close(3) = 0x1f <0.1>`,                                    // hex return
		`1 1.5 close(3) = 1_0 <0.1>`,                                     // underscore (base 0 only)
		`1 1.5 close(3) = -9223372036854775808 <0.1>`,                    // MinInt64
		`1 1.5 close(3) = ? <0.1>`,                                       // unknown return
		`1 1.5 open("/gone", O_RDONLY) = -1 ENOENT (No such file or directory) <0.003>`,
		"9 1.5 read(3, \"\", 0 <unfinished ...>\n9 1.6 <... read resumed>) = 0 <0.1>",
		`9 1.5 read(3, "", 0 <unfinished ...>`, // never resumed
		`9 1.6 <... read resumed>) = 0 <0.1>`,  // never started
		"2 1.5 close(3 <unfinished ...>\n2 1.6 close(4 <unfinished ...>\n2 1.7 <... close resumed>) = 0 <0.05>",
		"+++ exited with 0 +++\n--- SIGCHLD ---\n\n1 1.5 sync() = 0 <0.1>",
		"1 1.5 close(3) = 0 <0.1>\r\n2 1.6 close(4) = 0 <0.1>", // CRLF
		"  1.5 close(3) = 0 <0.1>",                             // Unicode space edge
		`1 1.5 close(3) = 0 <0.000498000>`,                     // truncating duration
		`1 1.5 statfs("/x"]) = 0 <0.1>`,                        // "] " rewrite mid-call: "])" stays
		`1 1.5 weird] (call) = 0 <0.1>`,                        // "] " before the paren
	}
}

// FuzzStraceFastVsReference is the differential target: every parser
// variant (fast, streaming, sharded at several widths) must match
// parseStraceReference — records byte for byte, errors field for field.
func FuzzStraceFastVsReference(f *testing.F) {
	for _, seed := range straceSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		assertParsersAgree(t, "fuzz", input)
	})
}

func FuzzParseIBench(f *testing.F) {
	f.Add(sampleIBench)
	f.Add(`1679.0 1679.1 5 open 3 0 "/a" 0x2 0644`)
	f.Add(`# comment only`)
	f.Add(`1679.0 1679.1 5 gettimeofday 0 0`)
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ParseIBench(strings.NewReader(input))
		if err != nil || tr == nil {
			return
		}
		for i, r := range tr.Records {
			if r.Seq != int64(i) {
				t.Fatalf("non-dense seq: %d at %d", r.Seq, i)
			}
		}
	})
}

func FuzzDecodeTrace(f *testing.F) {
	var buf bytes.Buffer
	sampleTrace().Encode(&buf)
	f.Add(buf.String())
	f.Add("#artc-trace v1 platform=osx\n0 1 open path=\"/a\" = 3 - 0 10\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := Decode(strings.NewReader(input))
		if err != nil || tr == nil {
			return
		}
		// Round-trip stability: what we parsed must re-encode and
		// re-parse identically.
		var out bytes.Buffer
		if err := tr.Encode(&out); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		tr2, err := Decode(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		if len(tr2.Records) != len(tr.Records) {
			t.Fatalf("round trip lost records: %d -> %d", len(tr.Records), len(tr2.Records))
		}
	})
}
