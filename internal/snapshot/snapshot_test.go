package snapshot

import (
	"bytes"
	"testing"

	"rootreplay/internal/sim"
	"rootreplay/internal/stack"
	"rootreplay/internal/vfs"
)

func newSys() *stack.System {
	k := sim.NewKernel()
	return stack.New(k, stack.DefaultConfig())
}

func buildSample(t *testing.T, sys *stack.System) {
	t.Helper()
	steps := []error{
		sys.SetupMkdirAll("/app/data"),
		sys.SetupCreate("/app/data/db.sqlite", 1<<20),
		sys.SetupCreate("/app/cache/thumb.png", 4096),
		sys.SetupSymlink("/app/data/db.sqlite", "/app/current"),
		sys.SetupSpecial("/dev/urandom", stack.SpecialURandom),
		sys.SetupXattr("/app/data/db.sqlite", "user.checksum", 16),
	}
	for _, err := range steps {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestCaptureRestoreRoundTrip(t *testing.T) {
	src := newSys()
	buildSample(t, src)
	snap := Capture(src)

	dst := newSys()
	if err := Restore(dst, "", snap); err != nil {
		t.Fatal(err)
	}
	ino, err := dst.FS.Resolve(nil, "/app/data/db.sqlite")
	if err != vfs.OK || ino.Size != 1<<20 {
		t.Fatalf("restored file: %v err=%v", ino, err)
	}
	target, err := dst.FS.Readlink(nil, "/app/current")
	if err != vfs.OK || target != "/app/data/db.sqlite" {
		t.Fatalf("restored symlink: %q err=%v", target, err)
	}
	if v, ok := ino.Xattrs["user.checksum"]; !ok || len(v) != 16 {
		t.Fatalf("restored xattr: %d bytes, present %v", len(v), ok)
	}
	sp, err := dst.FS.ResolveNoFollow(nil, "/dev/urandom")
	if err != vfs.OK || sp.Type != vfs.TypeSpecial {
		t.Fatalf("restored special: %v err=%v", sp, err)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	src := newSys()
	buildSample(t, src)
	snap := Capture(src)

	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != len(snap.Entries) {
		t.Fatalf("entry count %d != %d", len(got.Entries), len(snap.Entries))
	}
	// Restoring the parsed snapshot must produce the same tree.
	dst := newSys()
	if err := Restore(dst, "", got); err != nil {
		t.Fatal(err)
	}
	ino, errno := dst.FS.Resolve(nil, "/app/data/db.sqlite")
	if errno != vfs.OK || ino.Size != 1<<20 {
		t.Fatal("parsed snapshot restore mismatch")
	}
}

func TestRestoreWithPrefix(t *testing.T) {
	src := newSys()
	buildSample(t, src)
	snap := Capture(src)

	dst := newSys()
	if err := Restore(dst, "/bench0", snap); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.FS.Resolve(nil, "/bench0/app/data/db.sqlite"); err != vfs.OK {
		t.Fatalf("prefixed restore: %v", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []string{
		"garbage /a",
		"file /a",                  // missing size
		"file /a xx",               // bad size
		"slink /l",                 // missing target
		"xattr /nope \"user.k\" 3", // unknown path
		"dir",                      // too few
	}
	for _, c := range cases {
		if _, err := Decode(bytes.NewReader([]byte(c + "\n"))); err == nil {
			t.Errorf("no error for %q", c)
		}
	}
}

func TestFromTrace(t *testing.T) {
	recs := []PreScanRecord{
		{Call: "open", Path: "/data/input.txt", FD: 3, OK: true},
		{Call: "read", FD: 3, Size: 5000, OK: true},
		{Call: "read", FD: 3, Size: 5000, OK: true},
		{Call: "open", Path: "/data/new.out", FD: 4, OK: true, Creates: true},
		{Call: "pread", FD: 3, Size: 100, Offset: 100000, OK: true},
		{Call: "stat", Path: "/etc/conf", OK: true},
		{Call: "stat", Path: "/missing", OK: false},
		{Call: "mkdir", Path: "/tmp/scratch", OK: true},
	}
	snap := FromTrace(recs)
	byPath := make(map[string]Entry)
	for _, e := range snap.Entries {
		byPath[e.Path] = e
	}
	f, ok := byPath["/data/input.txt"]
	if !ok || f.Kind != KindFile {
		t.Fatalf("input.txt entry: %+v", f)
	}
	if f.Size < 100100 {
		t.Fatalf("inferred size = %d, want >= 100100 (pread extent)", f.Size)
	}
	if _, ok := byPath["/data/new.out"]; ok {
		t.Fatal("trace-created file ended up in snapshot")
	}
	if _, ok := byPath["/missing"]; ok {
		t.Fatal("failed stat path ended up in snapshot")
	}
	if e, ok := byPath["/etc/conf"]; !ok || e.Kind != KindFile {
		t.Fatal("stat'd path missing from snapshot")
	}
	if e, ok := byPath["/data"]; !ok || e.Kind != KindDir {
		t.Fatal("parent dir missing")
	}
}
