package trace

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// The fast path's contract is exact behavioural equality with
// parseStraceReference — records, platform, rebasing, and errors. These
// tests enforce it over hand-written fixtures, generated corpora, and
// (in fuzz_test.go) fuzzed inputs, for the sequential fast path, the
// streaming path, and every shard count.

// straceGoldenInputs returns named fixture inputs covering the parser's
// branch points.
func straceGoldenInputs() map[string]string {
	long := strings.Repeat("x", 80<<10) // past bufio.Scanner's 64 KiB default
	return map[string]string{
		"sample":    sampleStrace,
		"empty":     "",
		"blank":     "\n\n  \n",
		"noPID":     "1679588291.000100 open(\"/f\", O_RDONLY) = 3 <0.000020>\n1679588291.000200 close(3) = 0 <0.000001>\n",
		"pidPrefix": "[pid 7] 1679588291.000100 open(\"/f\", O_RDONLY) = 3 <0.000020>\n",
		// The reference rewrites the first "] " anywhere in the line, even
		// inside an argument; the fast path must reproduce the quirk.
		"bracketQuirk": "1001 1679588291.000100 open(\"/weird] name\", O_RDONLY) = 3 <0.000020>\n",
		"enoent":       "1001 1679588291.000100 stat(\"/missing\", 0x7ffd) = -1 ENOENT (No such file or directory) <0.000005>\n",
		"longLine": "1001 1679588291.000100 write(3, \"" + long + "\", 81920) = 81920 <0.000500>\n" +
			"1001 1679588291.000700 close(3) = 0 <0.000001>\n",
		"unfinished": "1 1.0 write(4, \"x\", 10 <unfinished ...>\n" +
			"2 1.1 open(\"/f\", O_RDONLY) = 5 <0.1>\n" +
			"1 1.2 <... write resumed>) = 10 <0.2>\n",
		"orphanResume":     "1 1.0 <... write resumed>) = 10 <0.2>\n",
		"duplUnfinished":   "1 1.0 write(4, \"a\", 1 <unfinished ...>\n1 1.1 write(5, \"b\", 2 <unfinished ...>\n1 1.2 <... write resumed>) = 2 <0.1>\n",
		"danglingPending":  "1 1.0 write(4, \"a\", 1 <unfinished ...>\n1 1.1 close(4) = 0 <0.1>\n",
		"crlf":             "1001 1679588291.000100 open(\"/f\", O_RDONLY) = 3 <0.000020>\r\n1001 1679588291.000200 close(3) = 0 <0.000001>\r\n",
		"noTrailingNL":     "1001 1679588291.000100 open(\"/f\", O_RDONLY) = 3 <0.000020>",
		"exitNotices":      "+++ exited with 0 +++\n--- SIGCHLD {si_signo=SIGCHLD} ---\n1 1.0 sync() = 0 <0.1>\n",
		"skippedFirstTS":   "1 1.0 getuid() = 1000 <0.1>\n1 2.0 open(\"/f\", O_RDONLY) = 3 <0.1>\n",
		"questionRet":      "1 1.0 close(3) = ? <0.1>\n",
		"hexRet":           "1 1.0 mmap(NULL, 8192, PROT_READ, MAP_SHARED, 6, 0) = 0x7f1200000000 <0.000007>\n",
		"fdAnnotation":     "1 1.0 close(3</etc/fstab>) = 0 <0.1>\n",
		"badTimestamp":     "1001 notatime open(\"/f\", O_RDONLY) = 3\n",
		"unbalancedParen":  "1001 167.5 open(\"/f\", O_RDONLY = 3\n",
		"badReturn":        "1001 167.5 open(\"/f\", O_RDONLY) = zz\n",
		"noParen":          "1001 167.5 exit_group\n",
		"malformedResumed": "1 1.0 write(4, \"x\", 10 <unfinished ...>\n1 1.1 <... write res>) = 10 <0.1>\n",
		"errorAfterGood":   "1 1.0 open(\"/f\", O_RDONLY) = 3 <0.1>\n1 1.1 open(\"/g\", O_RDONLY) = zz\n1 1.2 close(3) = 0 <0.1>\n",
	}
}

// genStraceCorpus renders a synthetic multi-threaded workload as strace
// text: per-thread open/read/write/close cycles over a shared pool of
// paths, with overlapping call windows so EncodeStrace emits
// unfinished/resumed pairs (which the line splitter then scatters
// across shard boundaries).
func genStraceCorpus(t testing.TB, records int, seed int64) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr := &Trace{Platform: "linux"}
	paths := make([]string, 40)
	for i := range paths {
		paths[i] = fmt.Sprintf("/data/dir%d/file%d.db", i%5, i)
	}
	now := make(map[int]time.Duration) // per-TID clock
	for len(tr.Records) < records {
		tid := 1 + rng.Intn(8)
		at := now[tid]
		dur := time.Duration(1+rng.Intn(2000)) * time.Microsecond
		rec := &Record{TID: tid, Start: at, End: at + dur}
		switch rng.Intn(6) {
		case 0:
			rec.Call, rec.Path, rec.Flags, rec.Mode = "open", paths[rng.Intn(len(paths))], OWronly|OCreat, 0o644
			rec.Ret = int64(3 + rng.Intn(20))
			rec.FD = rec.Ret
		case 1:
			rec.Call, rec.FD, rec.Size = "read", int64(3+rng.Intn(20)), int64(4096)
			rec.Ret = 4096
		case 2:
			rec.Call, rec.FD, rec.Size, rec.Offset = "pwrite64", int64(3+rng.Intn(20)), 512, int64(rng.Intn(1<<20))
			rec.Ret = 512
		case 3:
			rec.Call, rec.Path = "stat", paths[rng.Intn(len(paths))]
			if rng.Intn(3) == 0 {
				rec.Ret, rec.Err = -1, "ENOENT"
			}
		case 4:
			rec.Call, rec.FD = "close", int64(3+rng.Intn(20))
		case 5:
			rec.Call, rec.Path, rec.Path2 = "rename", paths[rng.Intn(len(paths))], paths[rng.Intn(len(paths))]
		}
		// A thread's calls are sequential (its next call starts after
		// this one ends), but the per-TID clocks drift independently, so
		// calls overlap freely across threads — that cross-thread overlap
		// is what makes EncodeStrace emit unfinished/resumed pairs.
		now[tid] = at + dur + time.Duration(rng.Intn(50))*time.Microsecond
		tr.Records = append(tr.Records, rec)
	}
	tr.Renumber()
	var buf bytes.Buffer
	if err := EncodeStrace(&buf, tr); err != nil {
		t.Fatalf("EncodeStrace: %v", err)
	}
	return buf.String()
}

// assertTraceEqual compares two parses field-for-field.
func assertTraceEqual(t *testing.T, label string, want, got *Trace) {
	t.Helper()
	if want.Platform != got.Platform {
		t.Fatalf("%s: platform %q != %q", label, got.Platform, want.Platform)
	}
	if len(want.Records) != len(got.Records) {
		t.Fatalf("%s: %d records, want %d", label, len(got.Records), len(want.Records))
	}
	for i := range want.Records {
		if !reflect.DeepEqual(want.Records[i], got.Records[i]) {
			t.Fatalf("%s: record %d:\nwant %+v\ngot  %+v", label, i, want.Records[i], got.Records[i])
		}
	}
}

// assertErrEqual requires both parsers to fail identically.
func assertErrEqual(t *testing.T, label string, want, got error) {
	t.Helper()
	var wpe, gpe *ParseError
	if errors.As(want, &wpe) != errors.As(got, &gpe) {
		t.Fatalf("%s: error kinds differ: reference %v, got %v", label, want, got)
	}
	if wpe != nil {
		if wpe.Line != gpe.Line || wpe.Msg != gpe.Msg || wpe.Text != gpe.Text {
			t.Fatalf("%s: ParseError differs:\nreference %+v\ngot       %+v", label, wpe, gpe)
		}
	}
}

// assertParsersAgree runs every parser over the input and holds each to
// the reference's output.
func assertParsersAgree(t *testing.T, name, input string) {
	t.Helper()
	want, wantErr := parseStraceReference(strings.NewReader(input))
	check := func(label string, got *Trace, gotErr error) {
		t.Helper()
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s/%s: err = %v, reference err = %v", name, label, gotErr, wantErr)
		}
		if wantErr != nil {
			assertErrEqual(t, name+"/"+label, wantErr, gotErr)
			return
		}
		assertTraceEqual(t, name+"/"+label, want, got)
	}

	got, err := ParseStrace(strings.NewReader(input))
	check("fast", got, err)

	var streamed []*Record
	// Every record ends a line, so the line count the compile path hands
	// over bounds the records and Records never regrows (a bound more
	// than a quarter over is clipped at the end).
	lines := strings.Count(input, "\n") + 1
	got, err = ParseStraceStream(strings.NewReader(input), lines, 3, func(recs []*Record) error {
		streamed = append(streamed, recs...)
		return nil
	})
	check("stream", got, err)
	if err != nil {
		return
	}
	if n := len(got.Records); n > lines || cap(got.Records) > lines || cap(got.Records) > n+n/4+8 {
		t.Fatalf("%s/stream: %d records in capacity %d from %d counted lines", name, len(got.Records), cap(got.Records), lines)
	}
	if !slices.Equal(streamed, got.Records) {
		t.Fatalf("%s/stream: emitted batches differ from final records", name)
	}
}

func TestStraceGolden(t *testing.T) {
	for name, input := range straceGoldenInputs() {
		t.Run(name, func(t *testing.T) { assertParsersAgree(t, name, input) })
	}
}

func TestStraceGoldenGenerated(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		corpus := genStraceCorpus(t, 2000, seed)
		assertParsersAgree(t, fmt.Sprintf("gen%d", seed), corpus)
	}
}

func TestStraceGoldenOverLimit(t *testing.T) {
	defer func(old int) { straceMaxLine = old }(straceMaxLine)
	straceMaxLine = 4096
	in := "1001 1679588291.000100 open(\"/f\", O_RDONLY) = 3 <0.000020>\n" +
		"1001 1679588291.000200 write(3, \"" + strings.Repeat("y", 8192) + "\", 8192) = 8192 <0.000100>\n"
	assertParsersAgree(t, "overLimit", in)
}

// TestEncodeStraceRoundTrip checks the encoder against the parser: a
// synthetic trace rendered as strace text and re-parsed must come back
// record-for-record (Seq/TID/Call/Path/.../Start), with stitched
// unfinished/resumed pairs landing on their original timestamps.
func TestEncodeStraceRoundTrip(t *testing.T) {
	corpus := genStraceCorpus(t, 500, 7)
	tr, err := ParseStrace(strings.NewReader(corpus))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 500 {
		t.Fatalf("round trip kept %d of 500 records", len(tr.Records))
	}
	if !strings.Contains(corpus, "<unfinished ...>") {
		t.Fatal("corpus has no unfinished/resumed pairs; overlap generation broke")
	}
	var buf bytes.Buffer
	if err := EncodeStrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	tr2, err := ParseStrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertTraceEqual(t, "reencode", tr, tr2)
}

// stringData returns the backing-array pointer of a string, for
// asserting two strings share storage.
func stringData(s string) *byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.StringData(s)
}

// TestParseStraceInterning asserts the fast path's deduplication: every
// repeated path in a parsed trace is one allocation, and the trace
// carries the table.
func TestParseStraceInterning(t *testing.T) {
	in := "1 1.0 open(\"/shared/path\", O_RDONLY) = 3 <0.1>\n" +
		"1 1.1 stat(\"/shared/path\", 0x7ffd) = 0 <0.1>\n" +
		"2 1.2 unlink(\"/shared/path\") = 0 <0.1>\n"
	tr, err := ParseStrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 3 {
		t.Fatalf("records = %d", len(tr.Records))
	}
	p0 := stringData(tr.Records[0].Path)
	for i, r := range tr.Records {
		if stringData(r.Path) != p0 {
			t.Fatalf("record %d path not interned with record 0", i)
		}
	}
	if !tr.InternTable().Has("/shared/path") {
		t.Fatal("trace intern table missing the path")
	}
}

// TestMergeSharesInternedStorage asserts Merge's intern reuse: merged
// records keep their inputs' string backing, and the merged trace's
// table is the union of the inputs'.
func TestMergeSharesInternedStorage(t *testing.T) {
	a, err := ParseStrace(strings.NewReader("1 1.0 open(\"/a/path\", O_RDONLY) = 3 <0.1>\n"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseStrace(strings.NewReader("1 1.0 stat(\"/b/path\", 0x7ffd) = 0 <0.1>\n"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stringData(m.Records[0].Path), stringData(a.Records[0].Path); got != want {
		t.Fatal("merged record re-allocated input a's path")
	}
	if got, want := stringData(m.Records[1].Path), stringData(b.Records[0].Path); got != want {
		t.Fatal("merged record re-allocated input b's path")
	}
	tab := m.InternTable()
	if !tab.Has("/a/path") || !tab.Has("/b/path") {
		t.Fatal("merged intern table is not the union of the inputs'")
	}
}
