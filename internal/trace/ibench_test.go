package trace

import (
	"strings"
	"testing"
	"time"
)

const sampleIBench = `# dtrace ibench capture
1679588291.000100 1679588291.000130 5 open 3 0 "/Library/app/db" 0x0002 0644
1679588291.000200 1679588291.000215 5 pread 4096 0 3 4096 8192
1679588291.000300 1679588291.000308 6 getattrlist 0 0 "/Library/app/db"
1679588291.000400 1679588291.000405 6 stat64 -1 2 "/Library/missing"
1679588291.000500 1679588291.000560 5 exchangedata 0 0 "/Library/a" "/Library/b"
1679588291.000600 1679588291.000640 5 fcntl 0 0 3 "F_FULLFSYNC" 0
1679588291.000700 1679588291.000705 5 close 0 0 3
1679588291.000800 1679588291.000805 6 gettimeofday 0 0
1679588291.000900 1679588291.000930 6 aio_read 9 0 4 4096 0
1679588291.001000 1679588291.001001 6 aio_return 4096 0 9
`

func TestParseIBench(t *testing.T) {
	tr, err := ParseIBench(strings.NewReader(sampleIBench))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Platform != "osx" {
		t.Fatalf("platform = %s", tr.Platform)
	}
	// gettimeofday is skipped.
	if len(tr.Records) != 9 {
		for _, r := range tr.Records {
			t.Logf("%+v", r)
		}
		t.Fatalf("records = %d, want 9", len(tr.Records))
	}
	s := tr.Str
	r0 := tr.Records[0]
	if s(r0.Call) != "open" || s(r0.Path) != "/Library/app/db" || r0.Ret != 3 ||
		r0.Flags != ORdwr || r0.Mode != 0o644 || r0.TID != 5 {
		t.Fatalf("open = %+v", r0)
	}
	if r0.Start != 0 || r0.End != 30*time.Microsecond {
		t.Fatalf("open times = %v..%v", r0.Start, r0.End)
	}
	r1 := tr.Records[1]
	if s(r1.Call) != "pread" || r1.FD != 3 || r1.Size != 4096 || r1.Offset != 8192 {
		t.Fatalf("pread = %+v", r1)
	}
	r3 := tr.Records[3]
	if s(r3.Err) != "ENOENT" || r3.Ret != -1 {
		t.Fatalf("failed stat = %+v", r3)
	}
	r4 := tr.Records[4]
	if s(r4.Call) != "exchangedata" || s(r4.Path2) != "/Library/b" {
		t.Fatalf("exchangedata = %+v", r4)
	}
	r5 := tr.Records[5]
	if s(r5.Call) != "fcntl" || s(r5.Name) != "F_FULLFSYNC" || r5.FD != 3 {
		t.Fatalf("fcntl = %+v", r5)
	}
	r7 := tr.Records[7]
	if s(r7.Call) != "aio_read" || r7.AIO != 9 || r7.FD != 4 {
		t.Fatalf("aio_read = %+v", r7)
	}
	r8 := tr.Records[8]
	if s(r8.Call) != "aio_return" || r8.AIO != 9 {
		t.Fatalf("aio_return = %+v", r8)
	}
	for i, r := range tr.Records {
		if r.Seq != int64(i) {
			t.Fatalf("seq[%d] = %d", i, r.Seq)
		}
	}
}

func TestParseIBenchErrors(t *testing.T) {
	cases := []string{
		"1679.0 1679.1 5 open 3",               // too few fields
		"xx 1679.1 5 open 3 0 \"/a\" 0 0",      // bad entry ts
		"1679.0 yy 5 open 3 0 \"/a\" 0 0",      // bad return ts
		"1679.0 1679.1 zz open 3 0 \"/a\" 0 0", // bad tid
		"1679.0 1679.1 5 open qq 0 \"/a\" 0 0", // bad ret
		"1679.0 1679.1 5 open 3 ee \"/a\" 0 0", // bad errno
		"1679.0 1679.1 5 open 3 0 /a 0 0",      // unquoted path
		"1679.0 1679.1 5 rename 0 0 \"/a\"",    // missing second path
	}
	for _, c := range cases {
		if _, err := ParseIBench(strings.NewReader(c + "\n")); err == nil {
			t.Errorf("no error for %q", c)
		}
	}
}

func TestParseIBenchGuardedOpen(t *testing.T) {
	in := `1679.000001 1679.000002 1 guarded_open_np 3 0 "/f" 0x0 0644` + "\n"
	tr, err := ParseIBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 1 || tr.Str(tr.Records[0].Call) != "open" {
		t.Fatalf("records = %+v", tr.Records)
	}
}
