package trace

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sampleTrace() *Trace {
	tr := &Trace{Platform: "osx"}
	s := tr.Intern
	tr.Records = []Record{
		{Seq: 0, TID: 1, Call: s("mkdir"), Path: s("/a/b"), Mode: 0o755, Ret: 0, Start: 1000, End: 2000},
		{Seq: 1, TID: 1, Call: s("open"), Path: s("/a/b/c"), Flags: OCreat | ORdwr, Mode: 0o644, FD: 3, Ret: 3, Start: 2100, End: 2400},
		{Seq: 2, TID: 1, Call: s("write"), FD: 3, Size: 4096, Ret: 4096, Start: 2500, End: 2600},
		{Seq: 3, TID: 2, Call: s("stat"), Path: s("/missing with space"), Ret: -1, Err: s("ENOENT"), Start: 2550, End: 2700},
		{Seq: 4, TID: 1, Call: s("rename"), Path: s("/a/b"), Path2: s("/a/old"), Ret: 0, Start: 3000, End: 3100},
		{Seq: 5, TID: 2, Call: s("lseek"), FD: 3, Offset: -100, Whence: 2, Ret: 3996, Start: 3200, End: 3300},
		{Seq: 6, TID: 2, Call: s("aio_read"), FD: 3, Size: 512, Offset: 1024, AIO: 7, Ret: 7, Start: 3400, End: 3500},
	}
	return tr
}

func TestNativeRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Platform != "osx" {
		t.Fatalf("platform = %q", got.Platform)
	}
	if len(got.Records) != len(tr.Records) {
		t.Fatalf("record count = %d", len(got.Records))
	}
	for i := range tr.Records {
		if w, g := recordText(tr, &tr.Records[i]), recordText(got, &got.Records[i]); w != g {
			t.Fatalf("record %d:\nwant %sgot  %s", i, w, g)
		}
	}
	// Decoding interns: each distinct string is one table entry.
	if len(got.Strs) != len(tr.Strs) {
		t.Fatalf("decoded table %q, want the %d entries of %q", got.Strs, len(tr.Strs), tr.Strs)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"0 1",                         // too few fields
		"x 1 open = 0 - 0 0",          // bad seq
		"0 y open = 0 - 0 0",          // bad tid
		"0 1 open junk = 0 - 0 0",     // bad key=value
		"0 1 open = 0 - 0",            // short result
		`0 1 open path="/a = 0 - 0 0`, // unterminated quote
		"0 1 open zz=3 = 0 - 0 0",     // unknown key
	}
	for _, c := range cases {
		if _, err := Decode(strings.NewReader("#artc-trace v1 platform=linux\n" + c + "\n")); err == nil {
			t.Errorf("no error for %q", c)
		}
	}
}

func TestOpenFlagString(t *testing.T) {
	if s := (ORdwr | OCreat | OTrunc).String(); s != "O_RDWR|O_CREAT|O_TRUNC" {
		t.Fatalf("flags = %s", s)
	}
	if s := ORdonly.String(); s != "O_RDONLY" {
		t.Fatalf("O_RDONLY = %s", s)
	}
	if (OWronly | OCreat).Access() != OWronly {
		t.Fatal("Access() broken")
	}
}

func TestTraceHelpers(t *testing.T) {
	tr := sampleTrace()
	if got := tr.Threads(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("threads = %v", got)
	}
	if tr.Duration() != 3500 {
		t.Fatalf("duration = %v", tr.Duration())
	}
	r := tr.Records[3]
	if r.OK() {
		t.Fatal("failed record reports OK")
	}
	if d := r.End - r.Start; d != 150 {
		t.Fatalf("latency = %v", d)
	}
	tr.Records[0].Seq = 99
	tr.Renumber()
	if tr.Records[0].Seq != 0 {
		t.Fatal("renumber failed")
	}
}

const sampleStrace = `1001 1679588291.000100 open("/etc/fstab", O_RDONLY) = 3 </etc/fstab> <0.000020>
1001 1679588291.000200 read(3, "LABEL=/ / ext4"..., 4096) = 512 <0.000015>
1002 1679588291.000210 stat("/var/missing", 0x7ffd) = -1 ENOENT (No such file or directory) <0.000005>
1001 1679588291.000300 close(3) = 0 <0.000003>
1002 1679588291.000350 open("/tmp/out", O_WRONLY|O_CREAT|O_TRUNC, 0644) = 4 <0.000030>
1002 1679588291.000400 write(4, "payload"..., 1024 <unfinished ...>
1001 1679588291.000420 lseek(5, 100, SEEK_SET) = 100 <0.000002>
1002 1679588291.000500 <... write resumed>) = 1024 <0.000100>
1002 1679588291.000700 pwrite64(4, "x", 1, 4095) = 1 <0.000009>
1002 1679588291.000800 rename("/tmp/out", "/tmp/out2") = 0 <0.000012>
1001 1679588291.000900 getuid() = 1000 <0.000001>
1002 1679588291.001000 mmap(NULL, 8192, PROT_READ, MAP_PRIVATE, 6, 0) = 0x7f1200000000 <0.000007>
1002 1679588291.001100 mmap(NULL, 8192, PROT_READ|PROT_WRITE, MAP_PRIVATE|MAP_ANONYMOUS, -1, 0) = 0x7f1200004000 <0.000004>
+++ exited with 0 +++
`

func TestParseStrace(t *testing.T) {
	tr, err := ParseStrace(strings.NewReader(sampleStrace))
	if err != nil {
		t.Fatal(err)
	}
	// getuid and the anonymous mmap are skipped.
	if len(tr.Records) != 10 {
		for _, r := range tr.Records {
			t.Logf("%+v", r)
		}
		t.Fatalf("parsed %d records, want 10", len(tr.Records))
	}
	s := tr.Str
	r0 := tr.Records[0]
	if s(r0.Call) != "open" || s(r0.Path) != "/etc/fstab" || r0.Ret != 3 || r0.TID != 1001 {
		t.Fatalf("open record = %+v", r0)
	}
	if r0.Start != 0 {
		t.Fatalf("first record not rebased to zero: %v", r0.Start)
	}
	r1 := tr.Records[1]
	if s(r1.Call) != "read" || r1.FD != 3 || r1.Size != 4096 || r1.Ret != 512 {
		t.Fatalf("read record = %+v", r1)
	}
	r2 := tr.Records[2]
	if s(r2.Err) != "ENOENT" || r2.Ret != -1 {
		t.Fatalf("stat record = %+v", r2)
	}
	// The unfinished write must be stitched together, starting at its
	// original entry timestamp and keeping trace order by line.
	var wr *Record
	for i := range tr.Records {
		if r := &tr.Records[i]; s(r.Call) == "write" {
			wr = r
		}
	}
	if wr == nil || wr.Ret != 1024 || wr.Size != 1024 || wr.FD != 4 {
		t.Fatalf("stitched write = %+v", wr)
	}
	if wr.Start != 300*time.Microsecond {
		t.Fatalf("stitched write start = %v", wr.Start)
	}
	var mm *Record
	for i := range tr.Records {
		if r := &tr.Records[i]; s(r.Call) == "mmap" {
			mm = r
		}
	}
	if mm == nil || mm.FD != 6 || mm.Size != 8192 {
		t.Fatalf("mmap record = %+v", mm)
	}
	// Flags parse.
	var op *Record
	for i := range tr.Records {
		if r := &tr.Records[i]; s(r.Call) == "open" && s(r.Path) == "/tmp/out" {
			op = r
		}
	}
	if op.Flags != OWronly|OCreat|OTrunc || op.Mode != 0o644 {
		t.Fatalf("open flags = %v mode=%o", op.Flags, op.Mode)
	}
	// Sequence numbers dense.
	for i, r := range tr.Records {
		if r.Seq != int64(i) {
			t.Fatalf("seq[%d] = %d", i, r.Seq)
		}
	}
}

func TestParseStraceNoPIDs(t *testing.T) {
	in := `1679588291.000100 open("/f", O_RDONLY) = 3 <0.000020>
1679588291.000200 close(3) = 0 <0.000001>
`
	tr, err := ParseStrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 2 || tr.Records[0].TID != 1 {
		t.Fatalf("records = %+v", tr.Records)
	}
}

func TestParseStraceLongLine(t *testing.T) {
	// A write payload rendered with a generous strace -s produces lines
	// far past bufio.Scanner's 64 KiB default; a ~2 MiB line also broke
	// the old 1 MiB cap. It must parse.
	payload := strings.Repeat("x", 2<<20)
	in := `1001 1679588291.000100 write(3, "` + payload + `", ` +
		"2097152) = 2097152 <0.000500>\n" +
		"1001 1679588291.000700 close(3) = 0 <0.000001>\n"
	tr, err := ParseStrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 2 || tr.Str(tr.Records[0].Call) != "write" {
		t.Fatalf("records = %+v", tr.Records)
	}
}

func TestParseStraceLineOverLimit(t *testing.T) {
	// Beyond the cap the parser must fail with a ParseError naming the
	// offending line, not bufio's bare "token too long".
	defer func(old int) { straceMaxLine = old }(straceMaxLine)
	straceMaxLine = 4096
	in := `1001 1679588291.000100 open("/f", O_RDONLY) = 3 <0.000020>
1001 1679588291.000200 write(3, "` + strings.Repeat("y", 8192) + `", 8192) = 8192 <0.000100>
`
	_, err := ParseStrace(strings.NewReader(in))
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *ParseError", err)
	}
	if pe.Line != 2 {
		t.Errorf("ParseError.Line = %d, want 2", pe.Line)
	}
	if !strings.Contains(pe.Msg, "4096") {
		t.Errorf("ParseError.Msg = %q, want the byte limit named", pe.Msg)
	}
}

func TestParseStraceMalformed(t *testing.T) {
	cases := []string{
		"1001 notatime open(\"/f\", O_RDONLY) = 3",
		"1001 167.5 open(\"/f\", O_RDONLY = 3",   // unbalanced
		"1001 167.5 open(\"/f\", O_RDONLY) = zz", // bad ret
	}
	for _, c := range cases {
		if _, err := ParseStrace(strings.NewReader(c + "\n")); err == nil {
			t.Errorf("no error for %q", c)
		}
	}
}

// Property: WriteTo/ReadFrom round-trips arbitrary printable records.
func TestQuickNativeRoundTrip(t *testing.T) {
	calls := []string{"open", "read", "write", "stat", "rename", "fcntl"}
	f := func(tid uint8, call uint8, fd uint16, size int32, off int32, pathSeed uint16, errSeed uint8) bool {
		path := "/p" + strings.Repeat("x", int(pathSeed%10)) + "/f f"
		tr := &Trace{Platform: "linux"}
		rec := Record{
			Seq:    1,
			TID:    int32(tid)%8 + 1,
			Call:   tr.Intern(calls[int(call)%len(calls)]),
			Path:   tr.Intern(path),
			FD:     int64(fd),
			Size:   int64(size),
			Offset: int64(off),
			Ret:    int64(size),
			Start:  time.Duration(off&0x7fffffff) * time.Nanosecond,
		}
		rec.End = rec.Start + time.Microsecond
		if errSeed%3 == 0 {
			rec.Err = tr.Intern("ENOENT")
			rec.Ret = -1
		}
		tr.Records = []Record{rec}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil || len(got.Records) != 1 {
			return false
		}
		return recordText(got, &got.Records[0]) == recordText(tr, &rec)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkParseNative(b *testing.B) {
	tr := sampleTrace()
	var buf bytes.Buffer
	tr.Encode(&buf)
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
