// Package snapshot captures and restores the initial file-tree state a
// trace replay needs (§4.3.2).
//
// A snapshot records the parts of the namespace a program touches:
// directory structure, file sizes (contents are never recorded),
// symbolic-link targets, extended-attribute names and sizes, and special
// files. Restoring a snapshot populates a fresh simulated System before
// replay.
package snapshot

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"rootreplay/internal/stack"
	"rootreplay/internal/vfs"
)

// EntryKind is the type of a snapshot entry.
type EntryKind string

// Entry kinds.
const (
	KindDir     EntryKind = "dir"
	KindFile    EntryKind = "file"
	KindSymlink EntryKind = "slink"
	KindSpecial EntryKind = "special"
)

// Entry is one object in a snapshot.
type Entry struct {
	Kind   EntryKind
	Path   string
	Size   int64             // files
	Mode   uint32            // files and dirs
	Target string            // symlinks
	Kind2  stack.SpecialKind // specials
	Xattrs map[string]int64  // attribute name -> value size
}

// Snapshot is an ordered list of entries (parents before children).
type Snapshot struct {
	Entries []Entry
}

// Capture records the full tree of sys's file system.
func Capture(sys *stack.System) *Snapshot {
	snap := &Snapshot{}
	sys.FS.Walk(func(p string, ino *vfs.Inode) {
		var e Entry
		e.Path = p
		e.Mode = ino.Mode
		switch ino.Type {
		case vfs.TypeDir:
			e.Kind = KindDir
		case vfs.TypeRegular:
			e.Kind = KindFile
			e.Size = ino.Size
		case vfs.TypeSymlink:
			e.Kind = KindSymlink
			e.Target = ino.Target
		case vfs.TypeSpecial:
			e.Kind = KindSpecial
			if k, ok := ino.Sys.(stack.SpecialKind); ok {
				e.Kind2 = k
			}
		}
		if len(ino.Xattrs) > 0 {
			e.Xattrs = make(map[string]int64, len(ino.Xattrs))
			for n, v := range ino.Xattrs {
				e.Xattrs[n] = int64(len(v))
			}
		}
		snap.Entries = append(snap.Entries, e)
	})
	return snap
}

// Restore populates sys with the snapshot's entries under the given path
// prefix ("" or "/" for the root).
func Restore(sys *stack.System, prefix string, snap *Snapshot) error {
	prefix = strings.TrimSuffix(prefix, "/")
	for _, e := range snap.Entries {
		p := prefix + e.Path
		switch e.Kind {
		case KindDir:
			if err := sys.SetupMkdirAll(p); err != nil {
				return err
			}
		case KindFile:
			if err := sys.SetupCreate(p, e.Size); err != nil {
				return err
			}
		case KindSymlink:
			if err := sys.SetupSymlink(e.Target, p); err != nil {
				return err
			}
		case KindSpecial:
			if err := sys.SetupSpecial(p, e.Kind2); err != nil {
				return err
			}
		}
		for name, size := range e.Xattrs {
			if err := sys.SetupXattr(p, name, size); err != nil {
				return err
			}
		}
	}
	return nil
}

// quotePath renders a path for the text format: paths stay bare when
// they contain no whitespace, quotes, backslashes, or control bytes —
// keeping the format diff-friendly and old snapshot files parseable —
// and switch to strconv.Quote form otherwise, so paths with spaces,
// quotes, or newlines round-trip intact.
func quotePath(p string) string {
	for i := 0; i < len(p); i++ {
		if c := p[i]; c <= ' ' || c == '"' || c == '\\' || c == 0x7f {
			return strconv.Quote(p)
		}
	}
	return p
}

// unquotePath reverses quotePath: tokens that begin with a double quote
// are unquoted, anything else is taken literally.
func unquotePath(tok string) (string, error) {
	if strings.HasPrefix(tok, "\"") {
		return strconv.Unquote(tok)
	}
	return tok, nil
}

// splitFields splits a snapshot line into tokens, keeping quoted
// strings (which may contain spaces) intact.
func splitFields(line string) ([]string, error) {
	var out []string
	i := 0
	for i < len(line) {
		for i < len(line) && line[i] == ' ' {
			i++
		}
		if i >= len(line) {
			break
		}
		start := i
		inQuote := false
		for i < len(line) && (inQuote || line[i] != ' ') {
			switch line[i] {
			case '"':
				inQuote = !inQuote
			case '\\':
				if inQuote && i+1 < len(line) {
					i++
				}
			}
			i++
		}
		if inQuote {
			return nil, fmt.Errorf("unterminated quote")
		}
		out = append(out, line[start:i])
	}
	return out, nil
}

// Encode serializes the snapshot as text:
//
//	#artc-snapshot v1
//	dir /a 0755
//	file /a/b 1048576 0644
//	file "/a/with space" 12 0644
//	slink /l "/target"
//	special /dev/urandom 1
//	xattr /a/b "user.k" 32
func (s *Snapshot) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "#artc-snapshot v1"); err != nil {
		return err
	}
	for _, e := range s.Entries {
		switch e.Kind {
		case KindDir:
			fmt.Fprintf(bw, "dir %s %#o\n", quotePath(e.Path), e.Mode)
		case KindFile:
			fmt.Fprintf(bw, "file %s %d %#o\n", quotePath(e.Path), e.Size, e.Mode)
		case KindSymlink:
			fmt.Fprintf(bw, "slink %s %q\n", quotePath(e.Path), e.Target)
		case KindSpecial:
			fmt.Fprintf(bw, "special %s %d\n", quotePath(e.Path), int(e.Kind2))
		}
		names := make([]string, 0, len(e.Xattrs))
		for n := range e.Xattrs {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(bw, "xattr %s %q %d\n", quotePath(e.Path), n, e.Xattrs[n])
		}
	}
	return bw.Flush()
}

// Decode parses a serialized snapshot.
func Decode(r io.Reader) (*Snapshot, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20) // grown on demand; lines stay capped at 1 MiB (TestLineLimit)
	snap := &Snapshot{}
	byPath := make(map[string]int)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		bad := func(msg string) error {
			return fmt.Errorf("snapshot: line %d: %s (%q)", lineNo, msg, line)
		}
		f, err := splitFields(line)
		if err != nil {
			return nil, bad(err.Error())
		}
		if len(f) < 2 {
			return nil, bad("too few fields")
		}
		p, err := unquotePath(f[1])
		if err != nil {
			return nil, bad("bad path")
		}
		switch f[0] {
		case "dir":
			mode := uint32(0o755)
			if len(f) > 2 {
				m, err := strconv.ParseUint(f[2], 0, 32)
				if err != nil {
					return nil, bad("bad mode")
				}
				mode = uint32(m)
			}
			byPath[p] = len(snap.Entries)
			snap.Entries = append(snap.Entries, Entry{Kind: KindDir, Path: p, Mode: mode})
		case "file":
			if len(f) < 3 {
				return nil, bad("file needs size")
			}
			size, err := strconv.ParseInt(f[2], 10, 64)
			if err != nil {
				return nil, bad("bad size")
			}
			mode := uint32(0o644)
			if len(f) > 3 {
				m, err := strconv.ParseUint(f[3], 0, 32)
				if err != nil {
					return nil, bad("bad mode")
				}
				mode = uint32(m)
			}
			byPath[p] = len(snap.Entries)
			snap.Entries = append(snap.Entries, Entry{Kind: KindFile, Path: p, Size: size, Mode: mode})
		case "slink":
			if len(f) < 3 {
				return nil, bad("slink needs target")
			}
			target, err := strconv.Unquote(f[2])
			if err != nil {
				return nil, bad("bad target")
			}
			byPath[p] = len(snap.Entries)
			snap.Entries = append(snap.Entries, Entry{Kind: KindSymlink, Path: p, Target: target})
		case "special":
			if len(f) < 3 {
				return nil, bad("special needs kind")
			}
			k, err := strconv.Atoi(f[2])
			if err != nil {
				return nil, bad("bad special kind")
			}
			byPath[p] = len(snap.Entries)
			snap.Entries = append(snap.Entries, Entry{Kind: KindSpecial, Path: p, Kind2: stack.SpecialKind(k)})
		case "xattr":
			if len(f) < 4 {
				return nil, bad("xattr needs name and size")
			}
			idx, ok := byPath[p]
			if !ok {
				return nil, bad("xattr for unknown path")
			}
			name, err := strconv.Unquote(f[2])
			if err != nil {
				return nil, bad("bad xattr name")
			}
			size, err := strconv.ParseInt(f[3], 10, 64)
			if err != nil {
				return nil, bad("bad xattr size")
			}
			if snap.Entries[idx].Xattrs == nil {
				snap.Entries[idx].Xattrs = make(map[string]int64)
			}
			snap.Entries[idx].Xattrs[name] = size
		default:
			return nil, bad("unknown entry kind")
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return snap, nil
}

// FromTrace synthesizes the minimal snapshot a trace needs: every path
// that is successfully accessed without first being created by the trace
// itself must exist beforehand, with a size covering the largest
// successful read offset. This lets ARTC build benchmarks from bare
// strace output with no separate snapshot tool.
func FromTrace(records []PreScanRecord) *Snapshot {
	type info struct {
		isDir  bool
		size   int64
		target string
		link   bool
	}
	need := make(map[string]*info)
	created := make(map[string]bool)
	// parentsOf collects directories that must pre-exist because a
	// successful call created an entry inside them.
	parentsOf := make(map[string]bool)
	noteParent := func(p string) {
		if i := strings.LastIndex(p, "/"); i > 0 {
			parentsOf[p[:i]] = true
		}
	}
	fdPath := make(map[int64]string)
	fdOff := make(map[int64]int64)
	for _, r := range records {
		if !r.OK {
			continue
		}
		switch r.Call {
		case "open", "creat":
			if r.Creates {
				created[r.Path] = true
				noteParent(r.Path)
			} else if !created[r.Path] {
				ni := need[r.Path]
				if ni == nil {
					ni = &info{}
					need[r.Path] = ni
				}
				ni.isDir = ni.isDir || r.IsDir
			}
			fdPath[r.FD] = r.Path
			fdOff[r.FD] = 0
		case "read":
			p := fdPath[r.FD]
			if p != "" && !created[p] {
				if ni := need[p]; ni != nil {
					fdOff[r.FD] += r.Size
					if fdOff[r.FD] > ni.size {
						ni.size = fdOff[r.FD]
					}
				}
			}
		case "pread":
			p := fdPath[r.FD]
			if p != "" && !created[p] {
				if ni := need[p]; ni != nil && r.Offset+r.Size > ni.size {
					ni.size = r.Offset + r.Size
				}
			}
		case "stat", "lstat", "access", "getattrlist":
			if !created[r.Path] {
				if need[r.Path] == nil {
					need[r.Path] = &info{}
				}
			}
		case "mkdir":
			created[r.Path] = true
			noteParent(r.Path)
		case "symlink":
			created[r.Path2] = true
			noteParent(r.Path2)
		case "rename", "link":
			created[r.Path2] = true
			noteParent(r.Path2)
		}
	}
	// Directories implied by successful creations, unless the trace
	// itself created them.
	for p := range parentsOf {
		if created[p] {
			continue
		}
		if ni := need[p]; ni != nil {
			ni.isDir = true
		} else {
			need[p] = &info{isDir: true}
		}
	}
	paths := make([]string, 0, len(need))
	for p := range need {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	snap := &Snapshot{}
	seenDirs := make(map[string]bool)
	addParents := func(p string) {
		parts := strings.Split(p, "/")
		cur := ""
		for _, part := range parts[1 : len(parts)-1] {
			cur += "/" + part
			if !seenDirs[cur] {
				seenDirs[cur] = true
				snap.Entries = append(snap.Entries, Entry{Kind: KindDir, Path: cur, Mode: 0o755})
			}
		}
	}
	for _, p := range paths {
		ni := need[p]
		addParents(p)
		switch {
		case ni.isDir:
			if !seenDirs[p] {
				seenDirs[p] = true
				snap.Entries = append(snap.Entries, Entry{Kind: KindDir, Path: p, Mode: 0o755})
			}
		case ni.link:
			snap.Entries = append(snap.Entries, Entry{Kind: KindSymlink, Path: p, Target: ni.target})
		default:
			snap.Entries = append(snap.Entries, Entry{Kind: KindFile, Path: p, Size: ni.size, Mode: 0o644})
		}
	}
	return snap
}

// PreScanRecord is the slice of trace information FromTrace needs,
// decoupled from the trace package to avoid an import cycle.
type PreScanRecord struct {
	Call    string
	Path    string
	Path2   string
	FD      int64
	Size    int64
	Offset  int64
	OK      bool
	Creates bool // open with O_CREAT that created the file
	IsDir   bool // open of a directory
}

// RestoreTree populates a bare vfs.FS from the snapshot, without any
// storage-stack side effects (no block placement). The ARTC compiler
// uses this to build the symbolic file-system model its trace analysis
// runs against.
func RestoreTree(fs *vfs.FS, prefix string, snap *Snapshot) error {
	prefix = strings.TrimSuffix(prefix, "/")
	mkParents := func(p string) vfs.Errno {
		slash := strings.LastIndex(p, "/")
		if slash <= 0 {
			return vfs.OK
		}
		_, err := fs.MkdirAll(nil, p[:slash], 0o755)
		return err
	}
	for _, e := range snap.Entries {
		p := prefix + e.Path
		switch e.Kind {
		case KindDir:
			if _, err := fs.MkdirAll(nil, p, e.Mode); err != vfs.OK {
				return fmt.Errorf("restore tree: mkdir %s: %w", p, err)
			}
		case KindFile:
			if err := mkParents(p); err != vfs.OK {
				return fmt.Errorf("restore tree: parents of %s: %w", p, err)
			}
			ino, _, err := fs.Create(nil, p, e.Mode, false)
			if err != vfs.OK {
				return fmt.Errorf("restore tree: create %s: %w", p, err)
			}
			ino.Size = e.Size
		case KindSymlink:
			if err := mkParents(p); err != vfs.OK {
				return fmt.Errorf("restore tree: parents of %s: %w", p, err)
			}
			if _, err := fs.Symlink(nil, e.Target, p); err != vfs.OK && err != vfs.EEXIST {
				return fmt.Errorf("restore tree: symlink %s: %w", p, err)
			}
		case KindSpecial:
			if err := mkParents(p); err != vfs.OK {
				return fmt.Errorf("restore tree: parents of %s: %w", p, err)
			}
			if _, err := fs.Mknod(nil, p, 0o666); err != vfs.OK && err != vfs.EEXIST {
				return fmt.Errorf("restore tree: mknod %s: %w", p, err)
			}
		}
		for name, size := range e.Xattrs {
			if err := fs.Setxattr(nil, p, name, make([]byte, size)); err != vfs.OK {
				return fmt.Errorf("restore tree: xattr %s: %w", p, err)
			}
		}
	}
	return nil
}
