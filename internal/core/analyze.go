package core

import (
	"fmt"
	gopath "path"
	"slices"
	"strconv"
	"strings"

	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
	"rootreplay/internal/vfs"
)

// Action is one trace record annotated with the resources it touches: a
// row of indices, 20 bytes with no pointer, so the collector never scans
// the action table. Action i's record is Analysis.Trace.Records[i].
type Action struct {
	// CanonPath and CanonPath2 index Analysis.Paths, -1 for none: the
	// record's path arguments resolved to canonical absolute form against
	// the working directory in effect when the action ran; replay uses
	// them so chdir history need not be re-enacted. For symlink, CanonPath
	// is left as traced (the target string is data, not a lookup).
	CanonPath, CanonPath2 int32
	// FDHint indexes Analysis.Resources, -1 for none: the descriptor a
	// *failed* call referenced, when the descriptor was valid at the time.
	// Failed calls carry no ordering constraints, but the replayer still
	// needs the fd remapped so the call fails the same way it did in the
	// trace (EISDIR on a directory read, say, rather than EBADF).
	FDHint int32
	// TouchOff and TouchLen place the action's touches in
	// Analysis.TouchSlab; Analysis.Touches reads them.
	TouchOff, TouchLen int32
}

// Analysis is the result of running the trace model over a trace: every
// action's resource touch set, plus each resource's action series.
type Analysis struct {
	Trace   *trace.Trace
	Actions []Action
	// Paths lists the distinct canonical paths in the order actions first
	// name them, and TouchSlab every action's touches, action by action.
	Paths     []string
	TouchSlab []Touch
	// Resources lists every resource in first-touch order; Touch.Idx and
	// Action.FDHint index it. Resource k's action series, the indices
	// (= Seq values) of the actions touching it in trace order, is
	// SeriesIdx[SeriesOff[k]:SeriesOff[k+1]]. A shard's sub-analysis
	// shares its parent's Paths, TouchSlab and Resources and has no series.
	Resources            []ResourceID
	SeriesOff, SeriesIdx []int32
	// PathGens maps a path name to its successive generations in
	// creation order, for the name-ordering rule.
	PathGens map[string][]int
	// Warnings records records the file-system model could not fully
	// interpret (the equivalent of ARTC's missed-dependency edge cases);
	// such actions fall back to thread-only ordering.
	Warnings []string
}

// Touches lists action i's touches.
func (an *Analysis) Touches(i int) []Touch {
	a := &an.Actions[i]
	return an.TouchSlab[a.TouchOff : a.TouchOff+a.TouchLen : a.TouchOff+a.TouchLen]
}

// Series lists the actions touching Resources[k], in trace order.
func (an *Analysis) Series(k int) []int32 { return an.SeriesIdx[an.SeriesOff[k]:an.SeriesOff[k+1]] }

// analyzer walks the trace against a symbolic vfs, assigning resource
// identities and generations.
type analyzer struct {
	fs  *vfs.FS
	cwd *vfs.Inode
	// cwdPath is the textual cwd used to canonicalize relative paths.
	cwdPath string

	// pathGen holds, per path name, its current generation and its index
	// in Paths. Generations advance whenever the name's binding changes
	// (created, deleted, retargeted by rename or exchangedata).
	pathGen map[string]pathName
	// fdGen is the current generation of each descriptor number.
	fdGen map[int64]int
	// fdFile maps open descriptor numbers to their file inodes.
	fdFile map[int64]*vfs.Inode
	// fdPath remembers the canonical path a descriptor was opened with,
	// for diagnostics.
	fdPath map[int64]string

	// scratch is the reusable touch buffer analyzeRecord appends into;
	// sealTouches numbers each record's result onto a table of fixed-size
	// chunks, which grows without copying until Finish lays it out as one
	// slab of its final size.
	scratch  []rawTouch
	chunks   [][]Touch
	nTouches int

	// resIdx numbers each ResourceID densely in first-touch order. It is
	// all Feed keeps per resource: how many there are and how long each
	// one's series is are known only at the end, so Finish lays Resources
	// and the series out there, once, at their final sizes.
	resIdx map[ResourceID]int32
	// inoName caches the decimal rendering of inode numbers so fileRes
	// does not re-format (and re-allocate) the name on every touch.
	inoName map[uint64]string

	res *Analysis
}

// rawTouch is a touch as analyzeRecord finds it, naming its resource by
// identity; sealTouches turns it into a Touch.
type rawTouch struct {
	Res  ResourceID
	Role Role
}

// pathName is a path name's current generation (0 before the first) and
// its index in Paths (-1 while no action names it): one hash for both.
type pathName struct{ gen, path int32 }

// sealTouches numbers a touch set's resources and appends it to the
// touch table, returning where it starts. Touches are numbered in trace
// order, so each resource's number is its first-touch position.
func (a *analyzer) sealTouches(ts []rawTouch) int32 {
	for _, t := range ts {
		idx, ok := a.resIdx[t.Res]
		if !ok {
			idx = int32(len(a.resIdx))
			a.resIdx[t.Res] = idx
		}
		if n := len(a.chunks); n == 0 || len(a.chunks[n-1]) == cap(a.chunks[n-1]) {
			a.chunks = append(a.chunks, make([]Touch, 0, 1024))
		}
		c := &a.chunks[len(a.chunks)-1]
		*c = append(*c, Touch{Idx: idx, Kind: t.Res.Kind, Role: t.Role})
	}
	a.nTouches += len(ts)
	return int32(a.nTouches - len(ts))
}

// internPath returns p's index in Paths, adding it on first sight.
func (a *analyzer) internPath(p string) int32 {
	st, ok := a.pathGen[p]
	if !ok || st.path < 0 {
		st.path = int32(len(a.res.Paths))
		a.pathGen[p] = st
		a.res.Paths = append(a.res.Paths, p)
	}
	return st.path
}

// Analyze runs the trace model over tr. The fs argument must hold the
// initial file-tree snapshot (see snapshot.RestoreTree); Analyze mutates
// it while symbolically replaying the trace.
func Analyze(tr *trace.Trace, fs *vfs.FS) (*Analysis, error) {
	z := NewAnalyzer(fs)
	if err := z.Feed(tr.Records); err != nil {
		return nil, err
	}
	return z.Finish(tr)
}

// Analyzer is the incremental form of Analyze: records are fed in
// batches, in trace order, and the model state (vfs, descriptor table,
// path generations) advances with each batch. This is what lets the
// streaming compile path overlap trace lexing with model evaluation —
// the analyzer never needs the whole trace at once.
type Analyzer struct {
	a *analyzer
}

// NewAnalyzer returns an analyzer over fs, which must hold the initial
// file-tree snapshot. The analyzer mutates fs as records are fed.
func NewAnalyzer(fs *vfs.FS) *Analyzer {
	return &Analyzer{a: &analyzer{
		fs:      fs,
		cwd:     fs.Root(),
		cwdPath: "/",
		pathGen: make(map[string]pathName),
		fdGen:   make(map[int64]int),
		fdFile:  make(map[int64]*vfs.Inode),
		fdPath:  make(map[int64]string),
		resIdx:  make(map[ResourceID]int32),
		inoName: make(map[uint64]string),
		res:     &Analysis{PathGens: make(map[string][]int)},
	}}
}

// Grow makes room for n more records' actions. A caller that knows how
// many records are coming (or a bound on them) calls it once before the
// first Feed, and the action table is allocated once at that size;
// capacity is all it changes.
func (z *Analyzer) Grow(n int) {
	z.a.res.Actions = slices.Grow(z.a.res.Actions, n)
}

// Feed advances the model over the next batch of records. Records must
// arrive in trace order with dense Seq numbers continuing where the
// previous batch stopped.
func (z *Analyzer) Feed(recs []*trace.Record) error {
	a := z.a
	z.Grow(len(recs))
	for _, rec := range recs {
		i := len(a.res.Actions)
		if rec.Seq != int64(i) {
			return fmt.Errorf("core: record %d has Seq %d; call Trace.Renumber first", i, rec.Seq)
		}
		act := Action{CanonPath: -1, CanonPath2: -1, FDHint: -1}
		call := stack.Canonical(rec.Call)
		if rec.Path != "" {
			if call == "symlink" {
				act.CanonPath = a.internPath(rec.Path)
			} else {
				act.CanonPath = a.internPath(a.canon(rec.Path))
			}
		}
		if rec.Path2 != "" {
			act.CanonPath2 = a.internPath(a.canon(rec.Path2))
		}
		touches := a.analyzeRecord(rec, call)
		if touches != nil {
			a.scratch = touches[:0] // keep any grown capacity for reuse
		}
		act.TouchOff, act.TouchLen = a.sealTouches(touches), int32(len(touches))
		if !rec.OK() {
			if _, tracked := a.fdFile[rec.FD]; tracked && rec.FD != 0 {
				// The record that opened the descriptor touched it, so it
				// is numbered.
				var ok bool
				if act.FDHint, ok = a.resIdx[a.fdRes(rec.FD)]; !ok {
					return fmt.Errorf("core: record %d: open descriptor %d was never touched", i, rec.FD)
				}
			}
		}
		a.res.Actions = append(a.res.Actions, act)
	}
	return nil
}

// Finish seals the analysis. tr must be the trace whose records were
// fed (the analysis keeps a reference for downstream passes).
func (z *Analyzer) Finish(tr *trace.Trace) (*Analysis, error) {
	if len(z.a.res.Actions) != len(tr.Records) {
		return nil, fmt.Errorf("core: analyzer saw %d records, trace has %d",
			len(z.a.res.Actions), len(tr.Records))
	}
	res := z.a.res
	res.Trace = tr
	// A line bound is loose on text full of calls the parser skips; what
	// it over-allocated must not live as long as the analysis does.
	if cap(res.Actions) > len(res.Actions)+len(res.Actions)/4 {
		res.Actions = slices.Clone(res.Actions)
	}
	res.Resources = make([]ResourceID, len(z.a.resIdx))
	for r, k := range z.a.resIdx {
		res.Resources[k] = r
	}
	res.TouchSlab = slices.Concat(z.a.chunks...)
	// Series: count each resource's actions, lay the rows out by the
	// counts, fill in trace order. An action touching a resource twice is
	// entered once; last[k] is one past the action last counted for
	// resource k, then the fill cursor of its row.
	nRes := len(res.Resources)
	last := make([]int32, nRes)
	res.SeriesOff = make([]int32, nRes+1)
	for i := range res.Actions {
		for _, t := range res.Touches(i) {
			if last[t.Idx] != int32(i)+1 {
				last[t.Idx] = int32(i) + 1
				res.SeriesOff[t.Idx+1]++
			}
		}
	}
	for k := 0; k < nRes; k++ {
		res.SeriesOff[k+1] += res.SeriesOff[k]
	}
	copy(last, res.SeriesOff)
	res.SeriesIdx = make([]int32, res.SeriesOff[nRes])
	for i := range res.Actions {
		for _, t := range res.Touches(i) {
			if c := last[t.Idx]; c == res.SeriesOff[t.Idx] || res.SeriesIdx[c-1] != int32(i) {
				res.SeriesIdx[c] = int32(i)
				last[t.Idx]++
			}
		}
	}
	return res, nil
}

// canon returns the canonical absolute form of a traced path. Absolute
// paths that are already clean — the overwhelmingly common case — are
// returned as-is without running path.Clean's byte-builder.
func (a *analyzer) canon(p string) string {
	if p == "" {
		return ""
	}
	if p[0] != '/' {
		return gopath.Clean(a.cwdPath + "/" + p)
	}
	if pathIsClean(p) {
		return p
	}
	return gopath.Clean(p)
}

// pathIsClean reports whether an absolute path is already in canonical
// form: no doubled or trailing slashes and no "." or ".." components.
func pathIsClean(p string) bool {
	for i := 1; i < len(p); i++ {
		if p[i-1] != '/' {
			continue
		}
		if p[i] == '/' {
			return false
		}
		if p[i] == '.' {
			if i+1 == len(p) || p[i+1] == '/' {
				return false
			}
			if p[i+1] == '.' && (i+2 == len(p) || p[i+2] == '/') {
				return false
			}
		}
	}
	return p == "/" || p[len(p)-1] != '/'
}

// pathRes returns the path resource for the current generation of name,
// creating generation bookkeeping on first sight.
func (a *analyzer) pathRes(name string) ResourceID {
	if st := a.pathGen[name]; st.gen != 0 {
		return ResourceID{Kind: KPath, Name: name, Gen: int(st.gen)}
	}
	return a.bumpPath(name)
}

// bumpPath advances the generation of a path name (its binding changed)
// and returns the new-generation resource.
func (a *analyzer) bumpPath(name string) ResourceID {
	st, ok := a.pathGen[name]
	if !ok {
		st.path = -1
	}
	st.gen++
	a.pathGen[name] = st
	a.res.PathGens[name] = append(a.res.PathGens[name], int(st.gen))
	return ResourceID{Kind: KPath, Name: name, Gen: int(st.gen)}
}

func (a *analyzer) fileRes(ino *vfs.Inode) ResourceID {
	n := uint64(ino.Ino)
	name, ok := a.inoName[n]
	if !ok {
		name = strconv.FormatUint(n, 10)
		a.inoName[n] = name
	}
	return ResourceID{Kind: KFile, Name: name, Gen: 1}
}

func (a *analyzer) fdRes(n int64) ResourceID {
	gen := a.fdGen[n]
	if gen == 0 {
		gen = 1
		a.fdGen[n] = 1
	}
	return ResourceID{Kind: KFD, Name: strconv.FormatInt(n, 10), Gen: gen}
}

func (a *analyzer) bumpFD(n int64) ResourceID {
	a.fdGen[n]++
	return ResourceID{Kind: KFD, Name: strconv.FormatInt(n, 10), Gen: a.fdGen[n]}
}

func aioRes(id int64) ResourceID {
	return ResourceID{Kind: KAIO, Name: strconv.FormatInt(id, 10), Gen: 1}
}

// warnf records a model-interpretation warning for a record.
func (a *analyzer) warnf(rec *trace.Record, format string, args ...any) {
	a.res.Warnings = append(a.res.Warnings,
		fmt.Sprintf("action %d (%s): %s", rec.Seq, rec.Call, fmt.Sprintf(format, args...)))
}

// parentOf resolves the directory containing the final component of p,
// or nil.
func (a *analyzer) parentOf(p string) *vfs.Inode {
	// The canonical form is absolute and clean, so the parent is a
	// prefix slice; gopath.Dir would re-run Clean over it.
	dir := a.canon(p)
	if i := strings.LastIndexByte(dir, '/'); i > 0 {
		dir = dir[:i]
	} else {
		dir = "/"
	}
	ino, err := a.fs.Resolve(nil, dir)
	if err != vfs.OK {
		return nil
	}
	return ino
}

// analyzeRecord computes the record's touch set and symbolically applies
// its effect to the file-system model. Thread resources are implicit
// (thread_seq is enforced structurally), so they are not materialized.
func (a *analyzer) analyzeRecord(rec *trace.Record, call string) []rawTouch {
	// Failed calls carry no resource hints beyond their thread: replay
	// may legally reorder them (a stat that failed during tracing might
	// validly run earlier or later during replay; §4.2 "Paths").
	if !rec.OK() {
		return nil
	}
	ts := a.scratch[:0]
	use := func(r ResourceID) { ts = append(ts, rawTouch{r, RoleUse}) }
	create := func(r ResourceID) { ts = append(ts, rawTouch{r, RoleCreate}) }
	del := func(r ResourceID) { ts = append(ts, rawTouch{r, RoleDelete}) }
	useParent := func(p string) {
		if dir := a.parentOf(p); dir != nil {
			use(a.fileRes(dir))
		}
	}
	// resolveFile resolves a path to its file, warning on failure.
	resolveFile := func(p string, follow bool) *vfs.Inode {
		var ino *vfs.Inode
		var err vfs.Errno
		if follow {
			ino, err = a.fs.Resolve(nil, a.canon(p))
		} else {
			ino, err = a.fs.ResolveNoFollow(nil, a.canon(p))
		}
		if err != vfs.OK {
			a.warnf(rec, "cannot resolve %q: %v", p, err)
			return nil
		}
		return ino
	}
	// statLike: Use path + parent dir + target file.
	statLike := func(p string, follow bool) *vfs.Inode {
		cp := a.canon(p)
		use(a.pathRes(cp))
		useParent(cp)
		ino := resolveFile(p, follow)
		if ino != nil {
			use(a.fileRes(ino))
		}
		return ino
	}

	switch call {
	case "open", "creat":
		cp := a.canon(rec.Path)
		flags := rec.Flags
		if call == "creat" {
			flags = trace.OWronly | trace.OCreat | trace.OTrunc
		}
		existing, _ := a.fs.Resolve(nil, cp)
		createsFile := flags&trace.OCreat != 0 && existing == nil
		useParent(cp)
		var ino *vfs.Inode
		if createsFile {
			var err vfs.Errno
			ino, _, err = a.fs.Create(nil, cp, rec.Mode, false)
			if err != vfs.OK {
				a.warnf(rec, "create %q failed in model: %v", cp, err)
				return ts
			}
			create(a.bumpPath(cp))
			create(a.fileRes(ino))
		} else {
			ino = existing
			if ino == nil {
				a.warnf(rec, "open of missing %q succeeded in trace", cp)
				// The paper saw this in the iTunes traces (O_EXCL opens
				// of existing paths suggest collection glitches); treat
				// the path as freshly bound.
				var err vfs.Errno
				ino, _, err = a.fs.Create(nil, cp, rec.Mode, false)
				if err != vfs.OK {
					return ts
				}
				create(a.bumpPath(cp))
				create(a.fileRes(ino))
			} else {
				use(a.pathRes(cp))
				use(a.fileRes(ino))
			}
		}
		if flags&trace.OTrunc != 0 && ino.Type == vfs.TypeRegular {
			a.fs.TruncateInode(ino, 0)
		}
		fd := rec.Ret
		create(a.bumpFD(fd))
		a.fdFile[fd] = ino
		a.fdPath[fd] = cp
	case "close":
		del(a.fdRes(rec.FD))
		if ino := a.fdFile[rec.FD]; ino != nil {
			use(a.fileRes(ino))
		}
		delete(a.fdFile, rec.FD)
		delete(a.fdPath, rec.FD)
	case "read", "write", "pread", "pwrite", "lseek", "fsync", "fdatasync",
		"ftruncate", "fstat", "fstatfs", "fadvise", "fallocate", "mmap",
		"fchmod", "chown_fd", "utimes_fd", "getdents", "getdirentriesattr",
		"fgetxattr", "fsetxattr", "flistxattr", "fremovexattr":
		use(a.fdRes(rec.FD))
		if ino := a.fdFile[rec.FD]; ino != nil {
			use(a.fileRes(ino))
		} else {
			a.warnf(rec, "fd %d not tracked", rec.FD)
		}
		if rec.Call == "ftruncate" {
			if ino := a.fdFile[rec.FD]; ino != nil {
				a.fs.TruncateInode(ino, rec.Size)
			}
		}
	case "fcntl":
		use(a.fdRes(rec.FD))
		if ino := a.fdFile[rec.FD]; ino != nil {
			use(a.fileRes(ino))
		}
		if rec.Name == "F_DUPFD" && rec.Ret >= 0 {
			create(a.bumpFD(rec.Ret))
			a.fdFile[rec.Ret] = a.fdFile[rec.FD]
			a.fdPath[rec.Ret] = a.fdPath[rec.FD]
		}
	case "dup":
		use(a.fdRes(rec.FD))
		if ino := a.fdFile[rec.FD]; ino != nil {
			use(a.fileRes(ino))
		}
		create(a.bumpFD(rec.Ret))
		a.fdFile[rec.Ret] = a.fdFile[rec.FD]
		a.fdPath[rec.Ret] = a.fdPath[rec.FD]
	case "dup2":
		use(a.fdRes(rec.FD))
		if ino := a.fdFile[rec.FD]; ino != nil {
			use(a.fileRes(ino))
		}
		if rec.FD != rec.FD2 {
			if _, open := a.fdFile[rec.FD2]; open {
				del(a.fdRes(rec.FD2))
			}
			create(a.bumpFD(rec.FD2))
			a.fdFile[rec.FD2] = a.fdFile[rec.FD]
			a.fdPath[rec.FD2] = a.fdPath[rec.FD]
		}
	case "stat", "access", "statfs", "chmod", "chown", "utimes",
		"getattrlist", "setattrlist", "fsctl", "searchfs", "vfsconf",
		"getxattr", "setxattr", "listxattr", "removexattr", "truncate":
		ino := statLike(rec.Path, true)
		if rec.Call == "truncate" && ino != nil {
			a.fs.TruncateInode(ino, rec.Size)
		}
	case "lstat", "readlink", "lgetxattr", "lsetxattr", "llistxattr", "lremovexattr":
		statLike(rec.Path, false)
	case "mkdir":
		cp := a.canon(rec.Path)
		useParent(cp)
		ino, err := a.fs.MkdirAll(nil, cp, rec.Mode)
		if err != vfs.OK {
			a.warnf(rec, "mkdir %q failed in model: %v", cp, err)
			return ts
		}
		create(a.bumpPath(cp))
		create(a.fileRes(ino))
	case "rmdir":
		cp := a.canon(rec.Path)
		useParent(cp)
		ino := resolveFile(rec.Path, false)
		if ino != nil {
			del(a.fileRes(ino))
		}
		del(a.pathRes(cp))
		if err := a.fs.Rmdir(nil, cp); err != vfs.OK {
			a.warnf(rec, "rmdir %q failed in model: %v", cp, err)
		}
	case "unlink":
		cp := a.canon(rec.Path)
		useParent(cp)
		ino := resolveFile(rec.Path, false)
		del(a.pathRes(cp))
		if ino != nil {
			if ino.Nlink <= 1 {
				del(a.fileRes(ino))
			} else {
				use(a.fileRes(ino))
			}
		}
		if err := a.fs.Unlink(nil, cp); err != vfs.OK {
			a.warnf(rec, "unlink %q failed in model: %v", cp, err)
		}
	case "rename":
		a.analyzeRename(rec, &ts)
	case "link":
		oldP, newP := a.canon(rec.Path), a.canon(rec.Path2)
		use(a.pathRes(oldP))
		useParent(oldP)
		useParent(newP)
		ino := resolveFile(rec.Path, false)
		if ino != nil {
			use(a.fileRes(ino))
		}
		create(a.bumpPath(newP))
		if err := a.fs.Link(nil, oldP, newP); err != vfs.OK {
			a.warnf(rec, "link failed in model: %v", err)
		}
	case "symlink":
		linkP := a.canon(rec.Path2)
		useParent(linkP)
		ino, err := a.fs.Symlink(nil, rec.Path, linkP)
		if err != vfs.OK {
			a.warnf(rec, "symlink failed in model: %v", err)
			return ts
		}
		create(a.bumpPath(linkP))
		create(a.fileRes(ino))
	case "exchangedata":
		pa, pb := a.canon(rec.Path), a.canon(rec.Path2)
		useParent(pa)
		useParent(pb)
		inoA := resolveFile(rec.Path, true)
		inoB := resolveFile(rec.Path2, true)
		if inoA != nil {
			use(a.fileRes(inoA))
		}
		if inoB != nil {
			use(a.fileRes(inoB))
		}
		// Both names change binding: old generations die, new ones begin
		// within the same action.
		del(a.pathRes(pa))
		del(a.pathRes(pb))
		create(a.bumpPath(pa))
		create(a.bumpPath(pb))
		if err := a.fs.Exchange(nil, pa, pb); err != vfs.OK {
			a.warnf(rec, "exchangedata failed in model: %v", err)
		}
	case "chdir":
		ino := statLike(rec.Path, true)
		if ino != nil && ino.IsDir() {
			a.cwd = ino
			a.cwdPath = a.canon(rec.Path)
		}
	case "fchdir":
		use(a.fdRes(rec.FD))
		if ino := a.fdFile[rec.FD]; ino != nil && ino.IsDir() {
			use(a.fileRes(ino))
			a.cwd = ino
			if p, ok := a.fdPath[rec.FD]; ok {
				a.cwdPath = p
			}
		}
	case "aio_read", "aio_write":
		use(a.fdRes(rec.FD))
		if ino := a.fdFile[rec.FD]; ino != nil {
			use(a.fileRes(ino))
		}
		create(aioRes(rec.AIO))
	case "aio_error", "aio_suspend":
		use(aioRes(rec.AIO))
	case "aio_return":
		del(aioRes(rec.AIO))
	case "sync", "munmap", "msync":
		// No specific resources beyond the issuing thread.
	default:
		a.warnf(rec, "call not in trace model")
	}
	return ts
}

// analyzeRename handles the hardest case in the model: a rename touches
// the parents, the moved file, and — when a directory moves — every
// path and file in its subtree (Figure 2's rename touches "four paths").
func (a *analyzer) analyzeRename(rec *trace.Record, ts *[]rawTouch) {
	use := func(r ResourceID) { *ts = append(*ts, rawTouch{r, RoleUse}) }
	create := func(r ResourceID) { *ts = append(*ts, rawTouch{r, RoleCreate}) }
	del := func(r ResourceID) { *ts = append(*ts, rawTouch{r, RoleDelete}) }
	oldP, newP := a.canon(rec.Path), a.canon(rec.Path2)
	if dir := a.parentOf(oldP); dir != nil {
		use(a.fileRes(dir))
	}
	if dir := a.parentOf(newP); dir != nil {
		use(a.fileRes(dir))
	}
	src, err := a.fs.ResolveNoFollow(nil, oldP)
	if err != vfs.OK {
		a.warnf(rec, "rename source %q unresolvable: %v", oldP, err)
		return
	}
	use(a.fileRes(src))
	// Replaced destination, if any.
	if dst, derr := a.fs.ResolveNoFollow(nil, newP); derr == vfs.OK {
		if dst.Nlink <= 1 {
			del(a.fileRes(dst))
		} else {
			use(a.fileRes(dst))
		}
	}
	// Collect the subtree's relative paths before mutating the model.
	type sub struct {
		rel string
		ino *vfs.Inode
	}
	var subtree []sub
	if src.IsDir() {
		var walk func(dir *vfs.Inode, rel string)
		walk = func(dir *vfs.Inode, rel string) {
			for _, name := range dir.Children() {
				child := dir.Lookup(name)
				r := rel + "/" + name
				subtree = append(subtree, sub{r, child})
				if child.IsDir() {
					walk(child, r)
				}
			}
		}
		walk(src, "")
	}
	// Old names die; new names are born, bound to the same files.
	del(a.pathRes(oldP))
	create(a.bumpPath(newP))
	for _, s := range subtree {
		use(a.fileRes(s.ino))
		del(a.pathRes(oldP + s.rel))
		create(a.bumpPath(newP + s.rel))
	}
	if err := a.fs.Rename(nil, oldP, newP); err != vfs.OK {
		a.warnf(rec, "rename failed in model: %v", err)
	}
}
