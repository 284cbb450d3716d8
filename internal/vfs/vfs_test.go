package vfs

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func mustMkdir(t *testing.T, fs *FS, path string) *Inode {
	t.Helper()
	d, err := fs.Mkdir(nil, path, 0o755)
	if err != OK {
		t.Fatalf("Mkdir(%q) = %v", path, err)
	}
	return d
}

func mustCreate(t *testing.T, fs *FS, path string) *Inode {
	t.Helper()
	f, created, err := fs.Create(nil, path, 0o644, false)
	if err != OK || !created {
		t.Fatalf("Create(%q) = created=%v err=%v", path, created, err)
	}
	return f
}

func TestMkdirCreateResolve(t *testing.T) {
	fs := New()
	mustMkdir(t, fs, "/a")
	mustMkdir(t, fs, "/a/b")
	f := mustCreate(t, fs, "/a/b/c")
	got, err := fs.Resolve(nil, "/a/b/c")
	if err != OK || got != f {
		t.Fatalf("Resolve = %v, %v", got, err)
	}
	if got.Type != TypeRegular {
		t.Fatalf("type = %v", got.Type)
	}
}

func TestResolveRoot(t *testing.T) {
	fs := New()
	r, err := fs.Resolve(nil, "/")
	if err != OK || r != fs.Root() {
		t.Fatalf("Resolve(/) = %v, %v", r, err)
	}
	r2, err := fs.Resolve(nil, "///")
	if err != OK || r2 != fs.Root() {
		t.Fatalf("Resolve(///) = %v, %v", r2, err)
	}
}

func TestResolveDotAndDotDot(t *testing.T) {
	fs := New()
	a := mustMkdir(t, fs, "/a")
	mustMkdir(t, fs, "/a/b")
	got, err := fs.Resolve(nil, "/a/b/..")
	if err != OK || got != a {
		t.Fatalf("a/b/.. = %v, %v; want a", got, err)
	}
	got, err = fs.Resolve(nil, "/a/./b/./..")
	if err != OK || got != a {
		t.Fatalf("a/./b/./.. = %v, %v", got, err)
	}
	// .. at root stays at root.
	got, err = fs.Resolve(nil, "/..")
	if err != OK || got != fs.Root() {
		t.Fatalf("/.. = %v, %v", got, err)
	}
}

func TestRelativeResolution(t *testing.T) {
	fs := New()
	a := mustMkdir(t, fs, "/a")
	mustCreate(t, fs, "/a/f")
	got, err := fs.Resolve(a, "f")
	if err != OK || got == nil {
		t.Fatalf("relative resolve: %v, %v", got, err)
	}
}

func TestMkdirErrors(t *testing.T) {
	fs := New()
	mustMkdir(t, fs, "/a")
	if _, err := fs.Mkdir(nil, "/a", 0o755); err != EEXIST {
		t.Fatalf("duplicate mkdir = %v, want EEXIST", err)
	}
	if _, err := fs.Mkdir(nil, "/nope/x", 0o755); err != ENOENT {
		t.Fatalf("mkdir under missing = %v, want ENOENT", err)
	}
	mustCreate(t, fs, "/file")
	if _, err := fs.Mkdir(nil, "/file/x", 0o755); err != ENOTDIR {
		t.Fatalf("mkdir under file = %v, want ENOTDIR", err)
	}
}

func TestMkdirAll(t *testing.T) {
	fs := New()
	d, err := fs.MkdirAll(nil, "/x/y/z", 0o755)
	if err != OK {
		t.Fatal(err)
	}
	got, err := fs.Resolve(nil, "/x/y/z")
	if err != OK || got != d {
		t.Fatalf("resolve after MkdirAll: %v, %v", got, err)
	}
	// Idempotent.
	if _, err := fs.MkdirAll(nil, "/x/y/z", 0o755); err != OK {
		t.Fatalf("second MkdirAll = %v", err)
	}
	mustCreate(t, fs, "/x/y/z/f")
	if _, err := fs.MkdirAll(nil, "/x/y/z/f", 0o755); err != ENOTDIR {
		t.Fatalf("MkdirAll over file = %v, want ENOTDIR", err)
	}
}

func TestCreateExclusive(t *testing.T) {
	fs := New()
	mustCreate(t, fs, "/f")
	if _, _, err := fs.Create(nil, "/f", 0o644, true); err != EEXIST {
		t.Fatalf("O_EXCL on existing = %v, want EEXIST", err)
	}
	got, created, err := fs.Create(nil, "/f", 0o644, false)
	if err != OK || created || got == nil {
		t.Fatalf("re-open existing: created=%v err=%v", created, err)
	}
	mustMkdir(t, fs, "/d")
	if _, _, err := fs.Create(nil, "/d", 0o644, false); err != EISDIR {
		t.Fatalf("create over dir = %v, want EISDIR", err)
	}
}

func TestUnlink(t *testing.T) {
	fs := New()
	mustCreate(t, fs, "/f")
	if err := fs.Unlink(nil, "/f"); err != OK {
		t.Fatal(err)
	}
	if _, err := fs.Resolve(nil, "/f"); err != ENOENT {
		t.Fatalf("resolve after unlink = %v", err)
	}
	if err := fs.Unlink(nil, "/f"); err != ENOENT {
		t.Fatalf("double unlink = %v", err)
	}
	mustMkdir(t, fs, "/d")
	if err := fs.Unlink(nil, "/d"); err != EISDIR {
		t.Fatalf("unlink dir = %v, want EISDIR", err)
	}
}

func TestUnlinkFreesOnLastLink(t *testing.T) {
	fs := New()
	var freed []Ino
	fs.OnFree(func(ino *Inode) { freed = append(freed, ino.Ino) })
	f := mustCreate(t, fs, "/f")
	if err := fs.Link(nil, "/f", "/g"); err != OK {
		t.Fatal(err)
	}
	if err := fs.Unlink(nil, "/f"); err != OK {
		t.Fatal(err)
	}
	if len(freed) != 0 {
		t.Fatal("freed while a hard link remains")
	}
	if err := fs.Unlink(nil, "/g"); err != OK {
		t.Fatal(err)
	}
	if len(freed) != 1 || freed[0] != f.Ino {
		t.Fatalf("freed = %v", freed)
	}
}

func TestRmdir(t *testing.T) {
	fs := New()
	mustMkdir(t, fs, "/d")
	mustCreate(t, fs, "/d/f")
	if err := fs.Rmdir(nil, "/d"); err != ENOTEMPTY {
		t.Fatalf("rmdir nonempty = %v", err)
	}
	if err := fs.Unlink(nil, "/d/f"); err != OK {
		t.Fatal(err)
	}
	if err := fs.Rmdir(nil, "/d"); err != OK {
		t.Fatal(err)
	}
	if _, err := fs.Resolve(nil, "/d"); err != ENOENT {
		t.Fatalf("resolve after rmdir = %v", err)
	}
	mustCreate(t, fs, "/f")
	if err := fs.Rmdir(nil, "/f"); err != ENOTDIR {
		t.Fatalf("rmdir file = %v", err)
	}
	if err := fs.Rmdir(nil, "/"); err != EBUSY {
		t.Fatalf("rmdir root = %v", err)
	}
}

func TestHardLinks(t *testing.T) {
	fs := New()
	f := mustCreate(t, fs, "/f")
	if err := fs.Link(nil, "/f", "/g"); err != OK {
		t.Fatal(err)
	}
	g, err := fs.Resolve(nil, "/g")
	if err != OK || g != f {
		t.Fatalf("hard link resolves to different inode")
	}
	if f.Nlink != 2 {
		t.Fatalf("nlink = %d", f.Nlink)
	}
	mustMkdir(t, fs, "/d")
	if err := fs.Link(nil, "/d", "/d2"); err != EPERM {
		t.Fatalf("hard link to dir = %v, want EPERM", err)
	}
	if err := fs.Link(nil, "/f", "/g"); err != EEXIST {
		t.Fatalf("link over existing = %v", err)
	}
}

func TestSymlinkBasics(t *testing.T) {
	fs := New()
	f := mustCreate(t, fs, "/target")
	if _, err := fs.Symlink(nil, "/target", "/link"); err != OK {
		t.Fatal(err)
	}
	got, err := fs.Resolve(nil, "/link")
	if err != OK || got != f {
		t.Fatalf("resolve through symlink: %v, %v", got, err)
	}
	l, err := fs.ResolveNoFollow(nil, "/link")
	if err != OK || l.Type != TypeSymlink {
		t.Fatalf("lstat: %v, %v", l, err)
	}
	tgt, err := fs.Readlink(nil, "/link")
	if err != OK || tgt != "/target" {
		t.Fatalf("readlink = %q, %v", tgt, err)
	}
	if _, err := fs.Readlink(nil, "/target"); err != EINVAL {
		t.Fatalf("readlink on file = %v", err)
	}
}

func TestSymlinkRelativeTarget(t *testing.T) {
	fs := New()
	mustMkdir(t, fs, "/a")
	f := mustCreate(t, fs, "/a/real")
	if _, err := fs.Symlink(nil, "real", "/a/link"); err != OK {
		t.Fatal(err)
	}
	got, err := fs.Resolve(nil, "/a/link")
	if err != OK || got != f {
		t.Fatalf("relative symlink target: %v, %v", got, err)
	}
	// Relative target with ..
	mustMkdir(t, fs, "/b")
	if _, err := fs.Symlink(nil, "../a/real", "/b/link"); err != OK {
		t.Fatal(err)
	}
	got, err = fs.Resolve(nil, "/b/link")
	if err != OK || got != f {
		t.Fatalf("../ symlink target: %v, %v", got, err)
	}
}

func TestSymlinkInMiddleOfPath(t *testing.T) {
	fs := New()
	mustMkdir(t, fs, "/real")
	f := mustCreate(t, fs, "/real/f")
	if _, err := fs.Symlink(nil, "/real", "/alias"); err != OK {
		t.Fatal(err)
	}
	got, err := fs.Resolve(nil, "/alias/f")
	if err != OK || got != f {
		t.Fatalf("symlinked dir component: %v, %v", got, err)
	}
}

func TestDanglingSymlink(t *testing.T) {
	fs := New()
	if _, err := fs.Symlink(nil, "/missing", "/dangle"); err != OK {
		t.Fatal(err)
	}
	if _, err := fs.Resolve(nil, "/dangle"); err != ENOENT {
		t.Fatalf("resolve dangling = %v, want ENOENT", err)
	}
	if _, err := fs.ResolveNoFollow(nil, "/dangle"); err != OK {
		t.Fatalf("lstat dangling = %v, want OK", err)
	}
	// Creating through a dangling symlink creates the target (POSIX).
	got, created, err := fs.Create(nil, "/dangle", 0o644, false)
	if err != OK || !created || got == nil {
		t.Fatalf("create through dangling link: %v %v %v", got, created, err)
	}
	resolved, err := fs.Resolve(nil, "/missing")
	if err != OK || resolved != got {
		t.Fatalf("target not created at link destination: %v, %v", resolved, err)
	}
}

func TestSymlinkLoop(t *testing.T) {
	fs := New()
	if _, err := fs.Symlink(nil, "/b", "/a"); err != OK {
		t.Fatal(err)
	}
	if _, err := fs.Symlink(nil, "/a", "/b"); err != OK {
		t.Fatal(err)
	}
	if _, err := fs.Resolve(nil, "/a"); err != ELOOP {
		t.Fatalf("loop resolve = %v, want ELOOP", err)
	}
}

func TestRenameFile(t *testing.T) {
	fs := New()
	f := mustCreate(t, fs, "/a")
	if err := fs.Rename(nil, "/a", "/b"); err != OK {
		t.Fatal(err)
	}
	if _, err := fs.Resolve(nil, "/a"); err != ENOENT {
		t.Fatal("old name still resolves")
	}
	got, err := fs.Resolve(nil, "/b")
	if err != OK || got != f {
		t.Fatal("new name does not resolve to same inode")
	}
}

func TestRenameReplacesTarget(t *testing.T) {
	fs := New()
	var freed []Ino
	fs.OnFree(func(ino *Inode) { freed = append(freed, ino.Ino) })
	a := mustCreate(t, fs, "/a")
	b := mustCreate(t, fs, "/b")
	if err := fs.Rename(nil, "/a", "/b"); err != OK {
		t.Fatal(err)
	}
	got, _ := fs.Resolve(nil, "/b")
	if got != a {
		t.Fatal("target not replaced by source")
	}
	if len(freed) != 1 || freed[0] != b.Ino {
		t.Fatalf("replaced target not freed: %v", freed)
	}
}

func TestRenameDirectorySubtree(t *testing.T) {
	fs := New()
	mustMkdir(t, fs, "/a")
	mustMkdir(t, fs, "/a/b")
	f := mustCreate(t, fs, "/a/b/c")
	if err := fs.Rename(nil, "/a/b", "/a/old"); err != OK {
		t.Fatal(err)
	}
	got, err := fs.Resolve(nil, "/a/old/c")
	if err != OK || got != f {
		t.Fatalf("file did not move with directory: %v, %v", got, err)
	}
	if _, err := fs.Resolve(nil, "/a/b/c"); err != ENOENT {
		t.Fatal("old path still resolves")
	}
}

func TestRenameDirIntoOwnSubtree(t *testing.T) {
	fs := New()
	mustMkdir(t, fs, "/a")
	mustMkdir(t, fs, "/a/b")
	if err := fs.Rename(nil, "/a", "/a/b/x"); err != EINVAL {
		t.Fatalf("rename into own subtree = %v, want EINVAL", err)
	}
}

func TestRenameDirOntoNonEmptyDir(t *testing.T) {
	fs := New()
	mustMkdir(t, fs, "/a")
	mustMkdir(t, fs, "/b")
	mustCreate(t, fs, "/b/f")
	if err := fs.Rename(nil, "/a", "/b"); err != ENOTEMPTY {
		t.Fatalf("rename over nonempty dir = %v, want ENOTEMPTY", err)
	}
	if err := fs.Unlink(nil, "/b/f"); err != OK {
		t.Fatal(err)
	}
	if err := fs.Rename(nil, "/a", "/b"); err != OK {
		t.Fatalf("rename over empty dir = %v", err)
	}
}

func TestRenameTypeMismatch(t *testing.T) {
	fs := New()
	mustMkdir(t, fs, "/d")
	mustCreate(t, fs, "/f")
	if err := fs.Rename(nil, "/f", "/d"); err != EISDIR {
		t.Fatalf("file over dir = %v, want EISDIR", err)
	}
	if err := fs.Rename(nil, "/d", "/f"); err != ENOTDIR {
		t.Fatalf("dir over file = %v, want ENOTDIR", err)
	}
}

func TestRenameToSelf(t *testing.T) {
	fs := New()
	f := mustCreate(t, fs, "/f")
	if err := fs.Link(nil, "/f", "/g"); err != OK {
		t.Fatal(err)
	}
	if err := fs.Rename(nil, "/f", "/g"); err != OK {
		t.Fatalf("rename between hard links = %v", err)
	}
	// POSIX: both names remain.
	if got, err := fs.Resolve(nil, "/f"); err != OK || got != f {
		t.Fatal("source vanished on self-rename")
	}
}

// The paper's iphoto_import400 edge case: a directory rename that
// un-breaks a previously dangling symlink. The model must resolve the
// symlink correctly afterwards.
func TestRenameUnbreaksDanglingSymlink(t *testing.T) {
	fs := New()
	mustMkdir(t, fs, "/x")
	f := mustCreate(t, fs, "/x/f")
	if _, err := fs.Symlink(nil, "/y/f", "/link"); err != OK {
		t.Fatal(err)
	}
	if _, err := fs.Resolve(nil, "/link"); err != ENOENT {
		t.Fatal("link should dangle before rename")
	}
	if err := fs.Rename(nil, "/x", "/y"); err != OK {
		t.Fatal(err)
	}
	got, err := fs.Resolve(nil, "/link")
	if err != OK || got != f {
		t.Fatalf("link did not un-break after rename: %v, %v", got, err)
	}
}

func TestExchange(t *testing.T) {
	fs := New()
	a := mustCreate(t, fs, "/a")
	b := mustCreate(t, fs, "/b")
	a.Size, b.Size = 100, 200
	if err := fs.Exchange(nil, "/a", "/b"); err != OK {
		t.Fatal(err)
	}
	ra, _ := fs.Resolve(nil, "/a")
	rb, _ := fs.Resolve(nil, "/b")
	if ra != b || rb != a {
		t.Fatal("entries not swapped")
	}
	mustMkdir(t, fs, "/d")
	if err := fs.Exchange(nil, "/a", "/d"); err != EINVAL {
		t.Fatalf("exchange with dir = %v, want EINVAL", err)
	}
	if err := fs.Exchange(nil, "/a", "/missing"); err != ENOENT {
		t.Fatalf("exchange with missing = %v, want ENOENT", err)
	}
}

func TestTruncate(t *testing.T) {
	fs := New()
	f := mustCreate(t, fs, "/f")
	if err := fs.Truncate(nil, "/f", 4096); err != OK {
		t.Fatal(err)
	}
	if f.Size != 4096 {
		t.Fatalf("size = %d", f.Size)
	}
	if err := fs.Truncate(nil, "/f", -1); err != EINVAL {
		t.Fatalf("negative truncate = %v", err)
	}
	mustMkdir(t, fs, "/d")
	if err := fs.Truncate(nil, "/d", 0); err != EISDIR {
		t.Fatalf("truncate dir = %v", err)
	}
}

func TestXattrs(t *testing.T) {
	fs := New()
	mustCreate(t, fs, "/f")
	if _, err := fs.Getxattr(nil, "/f", "user.a"); err != ENODATA {
		t.Fatalf("get missing xattr = %v", err)
	}
	if err := fs.Setxattr(nil, "/f", "user.a", []byte("v1")); err != OK {
		t.Fatal(err)
	}
	v, err := fs.Getxattr(nil, "/f", "user.a")
	if err != OK || string(v) != "v1" {
		t.Fatalf("get = %q, %v", v, err)
	}
	if err := fs.Setxattr(nil, "/f", "user.b", []byte("v2")); err != OK {
		t.Fatal(err)
	}
	names, err := fs.Listxattr(nil, "/f")
	if err != OK || fmt.Sprint(names) != "[user.a user.b]" {
		t.Fatalf("list = %v, %v", names, err)
	}
	if err := fs.Removexattr(nil, "/f", "user.a"); err != OK {
		t.Fatal(err)
	}
	if err := fs.Removexattr(nil, "/f", "user.a"); err != ENODATA {
		t.Fatalf("double remove = %v", err)
	}
}

func TestMknodSpecial(t *testing.T) {
	fs := New()
	mustMkdir(t, fs, "/dev")
	sp, err := fs.Mknod(nil, "/dev/random", 0o666)
	if err != OK || sp.Type != TypeSpecial {
		t.Fatalf("mknod: %v, %v", sp, err)
	}
	if _, err := fs.Mknod(nil, "/dev/random", 0o666); err != EEXIST {
		t.Fatalf("duplicate mknod = %v", err)
	}
}

func TestPathOf(t *testing.T) {
	fs := New()
	mustMkdir(t, fs, "/a")
	f := mustCreate(t, fs, "/a/f")
	p, ok := fs.PathOf(f)
	if !ok || p != "/a/f" {
		t.Fatalf("PathOf = %q, %v", p, ok)
	}
	p, ok = fs.PathOf(fs.Root())
	if !ok || p != "/" {
		t.Fatalf("PathOf(root) = %q, %v", p, ok)
	}
	orphan := &Inode{}
	if _, ok := fs.PathOf(orphan); ok {
		t.Fatal("PathOf found unreachable inode")
	}
}

func TestWalkOrder(t *testing.T) {
	fs := New()
	mustMkdir(t, fs, "/b")
	mustMkdir(t, fs, "/a")
	mustCreate(t, fs, "/a/z")
	mustCreate(t, fs, "/a/y")
	var paths []string
	fs.Walk(func(p string, ino *Inode) { paths = append(paths, p) })
	want := "[/a /a/y /a/z /b]"
	if fmt.Sprint(paths) != want {
		t.Fatalf("walk order = %v, want %v", paths, want)
	}
}

func TestInoUniqueness(t *testing.T) {
	fs := New()
	seen := map[Ino]bool{fs.Root().Ino: true}
	for i := 0; i < 100; i++ {
		f := mustCreate(t, fs, fmt.Sprintf("/f%d", i))
		if seen[f.Ino] {
			t.Fatalf("inode number %d reused", f.Ino)
		}
		seen[f.Ino] = true
		if err := fs.Unlink(nil, fmt.Sprintf("/f%d", i)); err != OK {
			t.Fatal(err)
		}
	}
}

func TestDirNlink(t *testing.T) {
	fs := New()
	a := mustMkdir(t, fs, "/a")
	if a.Nlink != 2 {
		t.Fatalf("fresh dir nlink = %d, want 2", a.Nlink)
	}
	mustMkdir(t, fs, "/a/b")
	if a.Nlink != 3 {
		t.Fatalf("dir nlink after subdir = %d, want 3", a.Nlink)
	}
	if err := fs.Rmdir(nil, "/a/b"); err != OK {
		t.Fatal(err)
	}
	if a.Nlink != 2 {
		t.Fatalf("dir nlink after rmdir = %d, want 2", a.Nlink)
	}
}

func TestErrnoNames(t *testing.T) {
	if ENOENT.String() != "ENOENT" {
		t.Fatal("ENOENT name")
	}
	if e, ok := ErrnoByName("EEXIST"); !ok || e != EEXIST {
		t.Fatal("ErrnoByName")
	}
	if _, ok := ErrnoByName("EWHATEVER"); ok {
		t.Fatal("unknown errno name accepted")
	}
	if Errno(9999).String() != "errno(9999)" {
		t.Fatal("unknown errno formatting")
	}
}

// Property: a random sequence of operations never corrupts tree
// invariants: every child's parent pointer is its containing directory,
// the root is its own parent, and Walk paths resolve to the inode Walk
// visited.
func TestQuickTreeInvariants(t *testing.T) {
	type opFn func(fs *FS, rng *rand.Rand, paths []string)
	randPath := func(rng *rand.Rand, paths []string) string {
		return paths[rng.Intn(len(paths))]
	}
	ops := []opFn{
		func(fs *FS, rng *rand.Rand, paths []string) { fs.Mkdir(nil, randPath(rng, paths), 0o755) },
		func(fs *FS, rng *rand.Rand, paths []string) {
			fs.Create(nil, randPath(rng, paths), 0o644, rng.Intn(2) == 0)
		},
		func(fs *FS, rng *rand.Rand, paths []string) { fs.Unlink(nil, randPath(rng, paths)) },
		func(fs *FS, rng *rand.Rand, paths []string) { fs.Rmdir(nil, randPath(rng, paths)) },
		func(fs *FS, rng *rand.Rand, paths []string) {
			fs.Rename(nil, randPath(rng, paths), randPath(rng, paths))
		},
		func(fs *FS, rng *rand.Rand, paths []string) {
			fs.Symlink(nil, randPath(rng, paths), randPath(rng, paths))
		},
		func(fs *FS, rng *rand.Rand, paths []string) {
			fs.Link(nil, randPath(rng, paths), randPath(rng, paths))
		},
	}
	pool := []string{"/a", "/b", "/c", "/a/x", "/a/y", "/b/x", "/c/z", "/a/x/deep"}
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		fs := New()
		for i := 0; i < int(n); i++ {
			ops[rng.Intn(len(ops))](fs, rng, pool)
		}
		okTree := true
		var check func(dir *Inode)
		check = func(dir *Inode) {
			for _, name := range dir.Children() {
				child := dir.Lookup(name)
				if child.Type == TypeDir {
					if child.parent != dir {
						okTree = false
						return
					}
					check(child)
				}
			}
		}
		check(fs.Root())
		if fs.Root().parent != fs.Root() {
			return false
		}
		fs.Walk(func(p string, ino *Inode) {
			got, err := fs.ResolveNoFollow(nil, p)
			if err != OK || got != ino {
				okTree = false
			}
		})
		return okTree
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Resolve through an arbitrary chain of valid symlinks reaches
// the same inode as direct resolution of the final target.
func TestQuickSymlinkChain(t *testing.T) {
	f := func(n uint8) bool {
		depth := int(n % MaxSymlinkDepth)
		fs := New()
		target, _, err := fs.Create(nil, "/target", 0o644, true)
		if err != OK {
			return false
		}
		prev := "/target"
		for i := 0; i < depth; i++ {
			name := fmt.Sprintf("/l%d", i)
			if _, err := fs.Symlink(nil, prev, name); err != OK {
				return false
			}
			prev = name
		}
		got, err := fs.Resolve(nil, prev)
		return err == OK && got == target
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkResolveDeepPath(b *testing.B) {
	fs := New()
	path := ""
	for i := 0; i < 10; i++ {
		path += fmt.Sprintf("/d%d", i)
		if _, err := fs.Mkdir(nil, path, 0o755); err != OK {
			b.Fatal(err)
		}
	}
	fs.Create(nil, path+"/f", 0o644, true)
	target := path + "/f"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fs.Resolve(nil, target); err != OK {
			b.Fatal(err)
		}
	}
}

func TestMkdirAllThroughSymlink(t *testing.T) {
	fs := New()
	mustMkdir(t, fs, "/real")
	if _, err := fs.Symlink(nil, "/real", "/alias"); err != OK {
		t.Fatal(err)
	}
	d, err := fs.MkdirAll(nil, "/alias/sub/deep", 0o755)
	if err != OK {
		t.Fatalf("MkdirAll through symlink: %v", err)
	}
	got, err := fs.Resolve(nil, "/real/sub/deep")
	if err != OK || got != d {
		t.Fatalf("dirs not created under link target: %v, %v", got, err)
	}
}

func TestSymlinkMaxDepthBoundary(t *testing.T) {
	fs := New()
	mustCreate(t, fs, "/target")
	prev := "/target"
	for i := 0; i < MaxSymlinkDepth; i++ {
		name := fmt.Sprintf("/l%d", i)
		if _, err := fs.Symlink(nil, prev, name); err != OK {
			t.Fatal(err)
		}
		prev = name
	}
	// Exactly MaxSymlinkDepth hops resolves; one more fails with ELOOP.
	if _, err := fs.Resolve(nil, prev); err != OK {
		t.Fatalf("depth-%d chain failed: %v", MaxSymlinkDepth, err)
	}
	if _, err := fs.Symlink(nil, prev, "/overflow"); err != OK {
		t.Fatal(err)
	}
	if _, err := fs.Resolve(nil, "/overflow"); err != ELOOP {
		t.Fatalf("depth-%d chain = %v, want ELOOP", MaxSymlinkDepth+1, err)
	}
}

func TestExchangePreservesHardLinks(t *testing.T) {
	fs := New()
	a := mustCreate(t, fs, "/a")
	mustCreate(t, fs, "/b")
	if err := fs.Link(nil, "/a", "/a2"); err != OK {
		t.Fatal(err)
	}
	if err := fs.Exchange(nil, "/a", "/b"); err != OK {
		t.Fatal(err)
	}
	// The hard link /a2 still points at the original inode (exchange
	// swaps directory entries, not inode identities).
	got, err := fs.Resolve(nil, "/a2")
	if err != OK || got != a {
		t.Fatal("hard link retargeted by exchange")
	}
}

func TestRenameSymlinkItself(t *testing.T) {
	fs := New()
	mustCreate(t, fs, "/target")
	if _, err := fs.Symlink(nil, "/target", "/link"); err != OK {
		t.Fatal(err)
	}
	if err := fs.Rename(nil, "/link", "/moved"); err != OK {
		t.Fatalf("rename of symlink: %v", err)
	}
	// The link itself moved (no follow), still pointing at the target.
	tgt, err := fs.Readlink(nil, "/moved")
	if err != OK || tgt != "/target" {
		t.Fatalf("moved link target = %q, %v", tgt, err)
	}
	if _, err := fs.ResolveNoFollow(nil, "/link"); err != ENOENT {
		t.Fatal("old link name survives")
	}
}

// PathOf returns an absolute path for the inode by walking parent
// pointers (directories) or scanning the tree (files; first match in
// sorted order). The second result is false if the inode is not
// reachable.
func (fs *FS) PathOf(target *Inode) (string, bool) {
	if target == fs.root {
		return "/", true
	}
	var found string
	var walk func(dir *Inode, prefix string) bool
	walk = func(dir *Inode, prefix string) bool {
		for _, name := range dir.Children() {
			child := dir.children[name]
			p := prefix + "/" + name
			if child == target {
				found = p
				return true
			}
			if child.Type == TypeDir {
				if walk(child, p) {
					return true
				}
			}
		}
		return false
	}
	if walk(fs.root, "") {
		return found, true
	}
	return "", false
}

// Getxattr returns the named extended attribute of the file at path.
func (fs *FS) Getxattr(base *Inode, path, name string) ([]byte, Errno) {
	ino, err := fs.Resolve(base, path)
	if err != OK {
		return nil, err
	}
	v, ok := ino.Xattrs[name]
	if !ok {
		return nil, ENODATA
	}
	return v, OK
}

// Removexattr deletes an extended attribute from the file at path.
func (fs *FS) Removexattr(base *Inode, path, name string) Errno {
	ino, err := fs.Resolve(base, path)
	if err != OK {
		return err
	}
	if _, ok := ino.Xattrs[name]; !ok {
		return ENODATA
	}
	delete(ino.Xattrs, name)
	return OK
}

// Listxattr lists extended attribute names on the file at path, sorted.
func (fs *FS) Listxattr(base *Inode, path string) ([]string, Errno) {
	ino, err := fs.Resolve(base, path)
	if err != OK {
		return nil, err
	}
	names := make([]string, 0, len(ino.Xattrs))
	for n := range ino.Xattrs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, OK
}
