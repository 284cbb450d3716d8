// Package vfs is an in-memory model of a UNIX file-system namespace.
//
// It implements exact POSIX path semantics — directories, regular files,
// symbolic links (including dangling ones), hard links, renames of files
// and whole directory subtrees, unlink-while-open, and extended
// attributes — without storing file contents: files carry sizes only, as
// in ARTC's initial snapshots ("it is unnecessary to record actual file
// contents").
//
// Two layers of the reproduction share this model:
//
//   - the ARTC compiler replays a trace against a vfs.FS symbolically to
//     infer which file a path or descriptor refers to at each point in
//     the trace (symlink-aware path→file resolution, §4.2 "Files"), and
//   - the simulated OS stack (internal/stack) uses a vfs.FS as the
//     metadata store of its file system.
//
// vfs has no notion of time; timing belongs to internal/stack.
package vfs

import (
	"fmt"
	"sort"
	"strings"
)

// Ino identifies an inode. Values are never reused within an FS, so an
// Ino denotes the same file object for the life of a trace.
type Ino uint64

// FileType is the type of an inode.
type FileType int

const (
	// TypeRegular is a plain data file.
	TypeRegular FileType = iota
	// TypeDir is a directory.
	TypeDir
	// TypeSymlink is a symbolic link.
	TypeSymlink
	// TypeSpecial covers device nodes, FIFOs and sockets, which ARTC
	// treats as opaque endpoints (e.g. /dev/random).
	TypeSpecial
)

// String names the file type.
func (t FileType) String() string {
	switch t {
	case TypeRegular:
		return "regular"
	case TypeDir:
		return "dir"
	case TypeSymlink:
		return "symlink"
	case TypeSpecial:
		return "special"
	default:
		return fmt.Sprintf("FileType(%d)", int(t))
	}
}

// MaxSymlinkDepth bounds symlink chain traversal, mirroring Linux's 40.
const MaxSymlinkDepth = 40

// Inode is a file object. Directory inodes track children; symlinks hold
// a target path; regular files have sizes but no contents.
type Inode struct {
	Ino    Ino
	Type   FileType
	Size   int64
	Mode   uint32
	Nlink  int
	Xattrs map[string][]byte

	// Target is the link target for TypeSymlink.
	Target string

	// children and parent maintain the directory tree. Only directories
	// have children; every directory except the root has a parent.
	children map[string]*Inode
	parent   *Inode

	// Sys holds layer-private data, such as block placement assigned by
	// the simulated storage stack. vfs never touches it.
	Sys any
}

// IsDir reports whether the inode is a directory.
func (ino *Inode) IsDir() bool { return ino.Type == TypeDir }

// Children returns the names in a directory, sorted. It returns nil for
// non-directories.
func (ino *Inode) Children() []string {
	if ino.Type != TypeDir {
		return nil
	}
	names := make([]string, 0, len(ino.children))
	for n := range ino.children {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Lookup returns the named child of a directory inode, or nil.
func (ino *Inode) Lookup(name string) *Inode {
	if ino.Type != TypeDir {
		return nil
	}
	return ino.children[name]
}

// FS is an in-memory file-system tree rooted at "/".
type FS struct {
	root    *Inode
	nextIno Ino

	// onFree, if set, is invoked when an inode's link count reaches zero
	// and vfs forgets it. The storage stack uses it to release block
	// placement. Note the stack may delay the call while descriptors
	// remain open; see FS.Release.
	onFree func(*Inode)

	// resCache memoizes successful absolute-path Resolve walks. Trace
	// analysis resolves the same canonical paths over and over (every
	// stat-like call resolves its path and its parent directory), so a
	// hit skips the component walk entirely. The cache is valid only
	// while the namespace is unchanged: every mutation of name→inode
	// bindings bumps nsGen (see mutated), and a cache whose cacheGen
	// lags nsGen is discarded wholesale rather than invalidated entry
	// by entry — symlinks make precise invalidation global anyway.
	resCache map[string]*Inode
	nsGen    uint64
	cacheGen uint64
}

// resCacheMax bounds the resolve cache; when full it is reset rather
// than evicted (trace working sets either fit or churn).
const resCacheMax = 4096

// mutated notes a change to the namespace (any edit of name→inode
// bindings, including symlink creation), invalidating the resolve
// cache. Size/mode/xattr changes do not affect resolution and do not
// bump.
func (fs *FS) mutated() { fs.nsGen++ }

// New returns an empty file system containing only the root directory.
func New() *FS {
	fs := &FS{}
	fs.root = fs.newInode(TypeDir, 0o755)
	fs.root.parent = fs.root
	fs.root.Nlink = 2
	return fs
}

// OnFree registers fn to run when an inode is fully unlinked.
func (fs *FS) OnFree(fn func(*Inode)) { fs.onFree = fn }

// Root returns the root directory inode.
func (fs *FS) Root() *Inode { return fs.root }

func (fs *FS) newInode(t FileType, mode uint32) *Inode {
	fs.nextIno++
	ino := &Inode{Ino: fs.nextIno, Type: t, Mode: mode, Nlink: 1}
	if t == TypeDir {
		ino.children = make(map[string]*Inode)
		ino.Nlink = 2 // "." and the parent entry
	}
	return ino
}

// splitPath breaks a path into components, ignoring empty ones. It
// reports whether the path was absolute.
func splitPath(path string) (parts []string, absolute bool) {
	absolute = strings.HasPrefix(path, "/")
	for _, c := range strings.Split(path, "/") {
		if c == "" {
			continue
		}
		parts = append(parts, c)
	}
	return parts, absolute
}

// resolution carries the result of a path walk.
type resolution struct {
	inode  *Inode // the resolved inode; nil if the final component is missing
	parent *Inode // directory that does/would contain the final component
	name   string // final component name ("" if path is "/")
}

// walk resolves path starting from base (nil means root). If followLast
// is false a trailing symlink is returned rather than followed.
func (fs *FS) walk(base *Inode, path string, followLast bool, depth int) (resolution, Errno) {
	if depth > MaxSymlinkDepth {
		return resolution{}, ELOOP
	}
	if path == "" {
		return resolution{}, ENOENT
	}
	cur := base
	if path[0] == '/' || cur == nil {
		cur = fs.root
	}
	// Walk the components in place (substrings of path) rather than
	// materializing a []string per resolution: walk is the hottest loop
	// in both analysis and replay.
	i := 0
	for i < len(path) && path[i] == '/' {
		i++
	}
	if i == len(path) {
		return resolution{inode: cur, parent: cur.parent, name: ""}, OK
	}
	for {
		j := i
		for j < len(path) && path[j] != '/' {
			j++
		}
		part := path[i:j]
		k := j
		for k < len(path) && path[k] == '/' {
			k++
		}
		last := k == len(path)
		if cur.Type != TypeDir {
			return resolution{}, ENOTDIR
		}
		var next *Inode
		switch part {
		case ".":
			next = cur
		case "..":
			next = cur.parent
		default:
			next = cur.children[part]
		}
		if next == nil {
			if last {
				return resolution{parent: cur, name: part}, OK
			}
			return resolution{}, ENOENT
		}
		if next.Type == TypeSymlink && (!last || followLast) {
			target := next.Target
			res, err := fs.walk(cur, target, true, depth+1)
			if err != OK {
				if last && err == ENOENT && res.parent == nil {
					// Dangling link mid-target: report ENOENT.
					return resolution{}, ENOENT
				}
				return res, err
			}
			if res.inode == nil {
				// Dangling symlink. For the final component this surfaces
				// as a missing entry at the link target's location.
				if last {
					return res, OK
				}
				return resolution{}, ENOENT
			}
			next = res.inode
		}
		if last {
			if part == "." || part == ".." {
				return resolution{inode: next, parent: next.parent, name: ""}, OK
			}
			return resolution{inode: next, parent: cur, name: part}, OK
		}
		cur = next
		i = k
	}
}

// Resolve looks up path from base (nil = root), following symlinks
// including one in the final component. It returns the inode or ENOENT.
// Successful absolute-path lookups from the root are served from the
// resolve cache while the namespace is unchanged.
func (fs *FS) Resolve(base *Inode, path string) (*Inode, Errno) {
	cacheable := base == nil && len(path) > 0 && path[0] == '/'
	if cacheable && fs.cacheGen == fs.nsGen {
		if ino, ok := fs.resCache[path]; ok {
			return ino, OK
		}
	}
	res, err := fs.walk(base, path, true, 0)
	if err != OK {
		return nil, err
	}
	if res.inode == nil {
		return nil, ENOENT
	}
	if cacheable {
		if fs.resCache == nil {
			fs.resCache = make(map[string]*Inode, 256)
		} else if fs.cacheGen != fs.nsGen || len(fs.resCache) >= resCacheMax {
			clear(fs.resCache)
		}
		fs.cacheGen = fs.nsGen
		fs.resCache[path] = res.inode
	}
	return res.inode, OK
}

// ResolveNoFollow is Resolve but does not follow a symlink in the final
// component (lstat semantics).
func (fs *FS) ResolveNoFollow(base *Inode, path string) (*Inode, Errno) {
	res, err := fs.walk(base, path, false, 0)
	if err != OK {
		return nil, err
	}
	if res.inode == nil {
		return nil, ENOENT
	}
	return res.inode, OK
}

// Mkdir creates a directory at path.
func (fs *FS) Mkdir(base *Inode, path string, mode uint32) (*Inode, Errno) {
	res, err := fs.walk(base, path, false, 0)
	if err != OK {
		return nil, err
	}
	if res.inode != nil || res.name == "" {
		return nil, EEXIST
	}
	dir := fs.newInode(TypeDir, mode)
	dir.parent = res.parent
	res.parent.children[res.name] = dir
	res.parent.Nlink++
	fs.mutated()
	return dir, OK
}

// MkdirAll creates path and any missing ancestors, returning the leaf
// directory. Existing directories are accepted; a non-directory on the
// way returns ENOTDIR/EEXIST.
func (fs *FS) MkdirAll(base *Inode, path string, mode uint32) (*Inode, Errno) {
	parts, abs := splitPath(path)
	cur := base
	if abs || cur == nil {
		cur = fs.root
	}
	for _, part := range parts {
		if cur.Type != TypeDir {
			return nil, ENOTDIR
		}
		next := cur.children[part]
		if next == nil {
			d, err := fs.Mkdir(cur, part, mode)
			if err != OK {
				return nil, err
			}
			next = d
		} else if next.Type == TypeSymlink {
			resolved, err := fs.Resolve(cur, part)
			if err != OK {
				return nil, err
			}
			next = resolved
		}
		cur = next
	}
	if cur.Type != TypeDir {
		return nil, ENOTDIR
	}
	return cur, OK
}

// Create makes a regular file at path. If the path already names a file
// and excl is false the existing file is returned with EEXIST=OK
// semantics mirroring open(O_CREAT): (inode, false, OK). The second
// result reports whether a new file was created.
func (fs *FS) Create(base *Inode, path string, mode uint32, excl bool) (*Inode, bool, Errno) {
	res, err := fs.walk(base, path, true, 0)
	if err != OK {
		return nil, false, err
	}
	if res.inode != nil {
		if excl {
			return nil, false, EEXIST
		}
		if res.inode.Type == TypeDir {
			return nil, false, EISDIR
		}
		return res.inode, false, OK
	}
	if res.name == "" {
		return nil, false, EISDIR
	}
	f := fs.newInode(TypeRegular, mode)
	res.parent.children[res.name] = f
	fs.mutated()
	return f, true, OK
}

// Mknod creates a special file (device node, FIFO, socket) at path.
func (fs *FS) Mknod(base *Inode, path string, mode uint32) (*Inode, Errno) {
	res, err := fs.walk(base, path, true, 0)
	if err != OK {
		return nil, err
	}
	if res.inode != nil || res.name == "" {
		return nil, EEXIST
	}
	f := fs.newInode(TypeSpecial, mode)
	res.parent.children[res.name] = f
	fs.mutated()
	return f, OK
}

// Symlink creates a symbolic link at linkPath pointing at target. The
// target need not exist (dangling links are legal).
func (fs *FS) Symlink(base *Inode, target, linkPath string) (*Inode, Errno) {
	res, err := fs.walk(base, linkPath, false, 0)
	if err != OK {
		return nil, err
	}
	if res.inode != nil || res.name == "" {
		return nil, EEXIST
	}
	l := fs.newInode(TypeSymlink, 0o777)
	l.Target = target
	l.Size = int64(len(target))
	res.parent.children[res.name] = l
	fs.mutated()
	return l, OK
}

// Readlink returns the target of the symlink at path.
func (fs *FS) Readlink(base *Inode, path string) (string, Errno) {
	ino, err := fs.ResolveNoFollow(base, path)
	if err != OK {
		return "", err
	}
	if ino.Type != TypeSymlink {
		return "", EINVAL
	}
	return ino.Target, OK
}

// Link creates a hard link at newPath to the file at oldPath. Hard links
// to directories are rejected.
func (fs *FS) Link(base *Inode, oldPath, newPath string) Errno {
	target, err := fs.ResolveNoFollow(base, oldPath)
	if err != OK {
		return err
	}
	if target.Type == TypeDir {
		return EPERM
	}
	res, err := fs.walk(base, newPath, false, 0)
	if err != OK {
		return err
	}
	if res.inode != nil || res.name == "" {
		return EEXIST
	}
	res.parent.children[res.name] = target
	target.Nlink++
	fs.mutated()
	return OK
}

// Unlink removes the directory entry at path. Directories are rejected
// (use Rmdir). If the link count reaches zero the inode is freed (the
// caller is responsible for delaying logical frees while descriptors
// remain open; see Release).
func (fs *FS) Unlink(base *Inode, path string) Errno {
	res, err := fs.walk(base, path, false, 0)
	if err != OK {
		return err
	}
	if res.inode == nil {
		return ENOENT
	}
	if res.inode.Type == TypeDir {
		return EISDIR
	}
	delete(res.parent.children, res.name)
	fs.mutated()
	res.inode.Nlink--
	if res.inode.Nlink == 0 && fs.onFree != nil {
		fs.onFree(res.inode)
	}
	return OK
}

// Rmdir removes the empty directory at path.
func (fs *FS) Rmdir(base *Inode, path string) Errno {
	res, err := fs.walk(base, path, false, 0)
	if err != OK {
		return err
	}
	if res.inode == nil {
		return ENOENT
	}
	if res.inode.Type != TypeDir {
		return ENOTDIR
	}
	if res.inode == fs.root || res.name == "" {
		return EBUSY
	}
	if len(res.inode.children) != 0 {
		return ENOTEMPTY
	}
	delete(res.parent.children, res.name)
	fs.mutated()
	res.parent.Nlink--
	res.inode.Nlink = 0
	if fs.onFree != nil {
		fs.onFree(res.inode)
	}
	return OK
}

// Rename moves the entry at oldPath to newPath with POSIX rename
// semantics: an existing file target is replaced; an existing directory
// target must be empty; a directory cannot be moved into its own subtree.
func (fs *FS) Rename(base *Inode, oldPath, newPath string) Errno {
	oldRes, err := fs.walk(base, oldPath, false, 0)
	if err != OK {
		return err
	}
	if oldRes.inode == nil {
		return ENOENT
	}
	if oldRes.name == "" || oldRes.inode == fs.root {
		return EBUSY
	}
	newRes, err := fs.walk(base, newPath, false, 0)
	if err != OK {
		return err
	}
	if newRes.name == "" {
		return EEXIST
	}
	src := oldRes.inode
	// Reject moving a directory under itself.
	if src.Type == TypeDir {
		for d := newRes.parent; ; d = d.parent {
			if d == src {
				return EINVAL
			}
			if d == fs.root {
				break
			}
		}
	}
	if dst := newRes.inode; dst != nil {
		if dst == src {
			return OK // POSIX: rename to self is a no-op
		}
		if dst.Type == TypeDir {
			if src.Type != TypeDir {
				return EISDIR
			}
			if len(dst.children) != 0 {
				return ENOTEMPTY
			}
			delete(newRes.parent.children, newRes.name)
			newRes.parent.Nlink--
			dst.Nlink = 0
			if fs.onFree != nil {
				fs.onFree(dst)
			}
		} else {
			if src.Type == TypeDir {
				return ENOTDIR
			}
			delete(newRes.parent.children, newRes.name)
			dst.Nlink--
			if dst.Nlink == 0 && fs.onFree != nil {
				fs.onFree(dst)
			}
		}
	}
	delete(oldRes.parent.children, oldRes.name)
	newRes.parent.children[newRes.name] = src
	fs.mutated()
	if src.Type == TypeDir && oldRes.parent != newRes.parent {
		oldRes.parent.Nlink--
		newRes.parent.Nlink++
		src.parent = newRes.parent
	}
	return OK
}

// Exchange atomically swaps the directory entries at pathA and pathB,
// modelling Mac OS X's exchangedata: each name ends up referring to the
// other file, preserving inode numbers. Both must exist and be regular
// files.
func (fs *FS) Exchange(base *Inode, pathA, pathB string) Errno {
	resA, err := fs.walk(base, pathA, true, 0)
	if err != OK {
		return err
	}
	resB, err := fs.walk(base, pathB, true, 0)
	if err != OK {
		return err
	}
	if resA.inode == nil || resB.inode == nil {
		return ENOENT
	}
	if resA.inode.Type != TypeRegular || resB.inode.Type != TypeRegular {
		return EINVAL
	}
	resA.parent.children[resA.name] = resB.inode
	resB.parent.children[resB.name] = resA.inode
	fs.mutated()
	return OK
}

// Truncate sets the size of the regular file at path.
func (fs *FS) Truncate(base *Inode, path string, size int64) Errno {
	ino, err := fs.Resolve(base, path)
	if err != OK {
		return err
	}
	return fs.TruncateInode(ino, size)
}

// TruncateInode sets the size of a regular file inode.
func (fs *FS) TruncateInode(ino *Inode, size int64) Errno {
	if ino.Type == TypeDir {
		return EISDIR
	}
	if ino.Type != TypeRegular {
		return EINVAL
	}
	if size < 0 {
		return EINVAL
	}
	ino.Size = size
	return OK
}

// Release is called by the descriptor layer when the last open descriptor
// on an already-unlinked inode closes; it triggers the free callback.
func (fs *FS) Release(ino *Inode) {
	if ino.Nlink == 0 && fs.onFree != nil {
		fs.onFree(ino)
	}
}

// Walk visits every inode reachable from the root in sorted path order,
// calling fn with the absolute path of each entry (excluding the root).
func (fs *FS) Walk(fn func(path string, ino *Inode)) {
	var rec func(dir *Inode, prefix string)
	rec = func(dir *Inode, prefix string) {
		for _, name := range dir.Children() {
			child := dir.children[name]
			p := prefix + "/" + name
			fn(p, child)
			if child.Type == TypeDir {
				rec(child, p)
			}
		}
	}
	rec(fs.root, "")
}

// Setxattr sets an extended attribute on the file at path.
func (fs *FS) Setxattr(base *Inode, path, name string, value []byte) Errno {
	ino, err := fs.Resolve(base, path)
	if err != OK {
		return err
	}
	if ino.Xattrs == nil {
		ino.Xattrs = make(map[string][]byte)
	}
	ino.Xattrs[name] = append([]byte(nil), value...)
	return OK
}
