package core

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"rootreplay/internal/snapshot"
	"rootreplay/internal/trace"
	"rootreplay/internal/vfs"
)

// mkTrace builds a trace from compact specs "tid call path[->path2] [fd=N]".
type rspec struct {
	tid   int
	call  string
	path  string
	path2 string
	fd    int64
	fd2   int64
	flags trace.OpenFlag
	ret   int64
	err   string
	aio   int64
}

func buildTrace(specs []rspec) *trace.Trace {
	tr := &trace.Trace{Platform: "linux"}
	for i, s := range specs {
		rec := trace.Record{
			Seq: int64(i), TID: int32(s.tid), Call: tr.Intern(s.call), Path: tr.Intern(s.path), Path2: tr.Intern(s.path2),
			FD: s.fd, FD2: s.fd2, Flags: s.flags, Ret: s.ret, Err: tr.Intern(s.err), AIO: s.aio,
			Start: time.Duration(i) * time.Millisecond,
			End:   time.Duration(i)*time.Millisecond + 500*time.Microsecond,
		}
		tr.Records = append(tr.Records, rec)
	}
	return tr
}

func analyze(t *testing.T, tr *trace.Trace, snapEntries []snapshot.Entry) *Analysis {
	t.Helper()
	fs := vfs.New()
	if err := snapshot.RestoreTree(fs, "", &snapshot.Snapshot{Entries: snapEntries}); err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(tr, fs)
	if err != nil {
		t.Fatal(err)
	}
	return an
}

// figure2Trace reproduces the example trace from Figure 2 of the paper.
func figure2Trace() *trace.Trace {
	return buildTrace([]rspec{
		{tid: 1, call: "mkdir", path: "/a/b", ret: 0},                                     // 0
		{tid: 1, call: "open", path: "/a/b/c", flags: trace.OCreat | trace.ORdwr, ret: 3}, // 1
		{tid: 1, call: "write", fd: 3, ret: 100},                                          // 2
		{tid: 1, call: "close", fd: 3, ret: 0},                                            // 3
		{tid: 1, call: "rename", path: "/a/b", path2: "/a/old", ret: 0},                   // 4
		{tid: 2, call: "open", path: "/x/y/z", ret: 3},                                    // 5
		{tid: 2, call: "open", path: "/a/b", flags: trace.OCreat | trace.ORdwr, ret: 4},   // 6
	})
}

func figure2Snapshot() []snapshot.Entry {
	return []snapshot.Entry{
		{Kind: snapshot.KindDir, Path: "/a", Mode: 0o755},
		{Kind: snapshot.KindDir, Path: "/x", Mode: 0o755},
		{Kind: snapshot.KindDir, Path: "/x/y", Mode: 0o755},
		{Kind: snapshot.KindFile, Path: "/x/y/z", Size: 4096, Mode: 0o644},
	}
}

func seriesFor(an *Analysis, kind Kind, name string, gen int) []int32 {
	for k, r := range an.Resources {
		if r == (ResourceID{Kind: kind, Name: name, Gen: gen}) {
			return an.Series(k)
		}
	}
	return nil
}

func eq(a []int32, b ...int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFigure2ActionSeries(t *testing.T) {
	an := analyze(t, figure2Trace(), figure2Snapshot())

	// path(/a/b)@1: created by mkdir (0), deleted by rename (4).
	if s := seriesFor(an, KPath, "/a/b", 1); !eq(s, 0, 4) {
		t.Errorf("path(/a/b)@1 series = %v, want [0 4]", s)
	}
	// path(/a/b)@2: created by T2's open (6).
	if s := seriesFor(an, KPath, "/a/b", 2); !eq(s, 6) {
		t.Errorf("path(/a/b)@2 series = %v, want [6]", s)
	}
	// path(/a/b/c)@1: created by open (1), deleted (retargeted) by the
	// directory rename (4).
	if s := seriesFor(an, KPath, "/a/b/c", 1); !eq(s, 1, 4) {
		t.Errorf("path(/a/b/c)@1 series = %v, want [1 4]", s)
	}
	// path(/a/old)@1 and path(/a/old/c)@1: created by the rename.
	if s := seriesFor(an, KPath, "/a/old", 1); !eq(s, 4) {
		t.Errorf("path(/a/old)@1 series = %v, want [4]", s)
	}
	if s := seriesFor(an, KPath, "/a/old/c", 1); !eq(s, 4) {
		t.Errorf("path(/a/old/c)@1 series = %v, want [4]", s)
	}
	// path(/x/y/z)@1: only action 5.
	if s := seriesFor(an, KPath, "/x/y/z", 1); !eq(s, 5) {
		t.Errorf("path(/x/y/z)@1 series = %v, want [5]", s)
	}
	// fd3@1 = actions 1,2,3 (open/write/close); fd3@2 = action 5.
	if s := seriesFor(an, KFD, "3", 1); !eq(s, 1, 2, 3) {
		t.Errorf("fd3@1 series = %v, want [1 2 3]", s)
	}
	if s := seriesFor(an, KFD, "3", 2); !eq(s, 5) {
		t.Errorf("fd3@2 series = %v, want [5]", s)
	}
	if s := seriesFor(an, KFD, "4", 1); !eq(s, 6) {
		t.Errorf("fd4@1 series = %v, want [6]", s)
	}
}

// Every touch names its resource by its index in Analysis.Resources —
// what the replayer indexes its tables by — and repeats that resource's
// kind. A touch is 8 bytes and an action at most 20, and neither holds a
// pointer, so the collector never scans the touch or action tables; the
// walk below fails as soon as a field that carries a pointer is added.
func TestTouchIndexesResources(t *testing.T) {
	an := analyze(t, figure2Trace(), figure2Snapshot())
	touches := 0
	for i := range an.Actions {
		for _, tc := range an.Touches(i) {
			touches++
			if tc.Idx < 0 || int(tc.Idx) >= len(an.Resources) || an.Resources[tc.Idx].Kind != tc.Kind {
				t.Fatalf("action %d: %v touch has Idx %d, which is not a resource of that kind", i, tc.Kind, tc.Idx)
			}
		}
	}
	if touches == 0 {
		t.Fatal("no touches analysed")
	}
	if size := unsafe.Sizeof(Touch{}); size != 8 {
		t.Fatalf("Touch is %d bytes, want 8", size)
	}
	if size := unsafe.Sizeof(Action{}); size > 20 {
		t.Fatalf("Action is %d bytes, want at most 20", size)
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(Touch{}), reflect.TypeOf(Action{})} {
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); !pointerFree(f.Type) {
				t.Errorf("%s.%s is a %v, which can carry a pointer; it must hold none", typ.Name(), f.Name, f.Type)
			}
		}
	}
}

var sinkString string

// TestResourceIDString holds the strconv rendering to the fmt one it
// replaced, on every kind, known or not, and to one allocation.
func TestResourceIDString(t *testing.T) {
	known := map[Kind]string{KProgram: "program", KThread: "thread", KFile: "file", KPath: "path", KFD: "fd", KAIO: "aiocb"}
	names := []string{"", "3", "/a/b c.txt", "%d(x)@7", "日本語\x00\xff", strings.Repeat("long/", 40)}
	for k := 0; k < 256; k++ {
		kind, ok := known[Kind(k)]
		if !ok {
			kind = fmt.Sprintf("Kind(%d)", k)
		}
		if got := Kind(k).String(); got != kind {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, got, kind)
		}
		for _, name := range names {
			for _, gen := range []int{0, 1, 1 << 40, -1} {
				r := ResourceID{Kind: Kind(k), Name: name, Gen: gen}
				if got, want := r.String(), fmt.Sprintf("%s(%s)@%d", kind, name, gen); got != want {
					t.Fatalf("%#v.String() = %q, want %q", r, got, want)
				}
				if allocs := testing.AllocsPerRun(10, func() { sinkString = r.String() }); allocs > 1 {
					t.Fatalf("%#v.String() makes %.0f allocations, want at most 1", r, allocs)
				}
			}
		}
	}
}

// pointerFree reports whether no value of typ can hold a pointer:
// booleans and numbers, and arrays and structs of nothing else.
func pointerFree(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return pointerFree(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if !pointerFree(typ.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

func TestFigure2FileSeries(t *testing.T) {
	an := analyze(t, figure2Trace(), figure2Snapshot())
	// file1 (created by open at action 1) touched by 1,2,3,4 (rename of
	// its parent directory touches the contained file).
	var file1 []int32
	for k, r := range an.Resources {
		if s := an.Series(k); r.Kind == KFile && eq(s, 1, 2, 3, 4) {
			file1 = s
		}
	}
	if file1 == nil {
		t.Error("no file resource with series [1 2 3 4] (file1)")
	}
	// dirB (created by mkdir at 0): touched by 0 (create), 1 (parent
	// lookup in open), 4 (rename). dirA (in the snapshot) is touched by
	// 0, 4 and 6 as a parent. Both series must exist.
	foundDirB, foundDirA := false, false
	for k, r := range an.Resources {
		s := an.Series(k)
		if r.Kind != KFile {
			continue
		}
		if eq(s, 0, 1, 4) {
			foundDirB = true
		}
		if eq(s, 0, 4, 6) {
			foundDirA = true
		}
	}
	if !foundDirB {
		t.Error("no file resource with series [0 1 4] (dirB)")
	}
	if !foundDirA {
		t.Error("no file resource with series [0 4 6] (dirA)")
	}
}

func TestFigure2NameOrderingGenerations(t *testing.T) {
	an := analyze(t, figure2Trace(), figure2Snapshot())
	gens := an.PathGens["/a/b"]
	if len(gens) != 2 || gens[0] != 1 || gens[1] != 2 {
		t.Fatalf("path /a/b generations = %v, want [1 2]", gens)
	}
	g := BuildGraph(an, DefaultModes())
	// Name ordering: last act of /a/b@1 (4, tid 1) -> first act of
	// /a/b@2 (6, tid 2). Cross-thread, must be present.
	found := false
	for _, e := range g.Edges {
		if e.From == 4 && e.To == 6 {
			found = true
		}
	}
	if !found {
		t.Error("missing name-ordering edge 4 -> 6 between generations of /a/b")
	}
}

func TestStageEdgesFDAcrossThreads(t *testing.T) {
	// T1 opens, T2 reads via the same fd, T1 closes: stage ordering must
	// order open -> read -> close across threads.
	tr := buildTrace([]rspec{
		{tid: 1, call: "open", path: "/f", ret: 3},
		{tid: 2, call: "read", fd: 3, ret: 100},
		{tid: 1, call: "close", fd: 3, ret: 0},
	})
	snap := []snapshot.Entry{{Kind: snapshot.KindFile, Path: "/f", Size: 4096}}
	an := analyze(t, tr, snap)
	g := BuildGraph(an, ModeSet{FDStage: true})
	has := func(from, to int) bool {
		for _, e := range g.Edges {
			if e.From == from && e.To == to {
				return true
			}
		}
		return false
	}
	if !has(0, 1) {
		t.Error("missing create edge open->read")
	}
	if !has(1, 2) {
		t.Error("missing delete edge read->close")
	}
}

func TestSameThreadEdgesOmitted(t *testing.T) {
	tr := buildTrace([]rspec{
		{tid: 1, call: "open", path: "/f", ret: 3},
		{tid: 1, call: "read", fd: 3, ret: 100},
		{tid: 1, call: "close", fd: 3, ret: 0},
	})
	snap := []snapshot.Entry{{Kind: snapshot.KindFile, Path: "/f", Size: 4096}}
	an := analyze(t, tr, snap)
	g := BuildGraph(an, DefaultModes())
	if len(g.Edges) != 0 {
		t.Fatalf("single-thread trace produced %d cross-thread edges: %v", len(g.Edges), g.Edges)
	}
}

func TestFileSeqThroughSymlinkAndHardLink(t *testing.T) {
	// Writes to the same file via a symlink and a hard link must land in
	// one file series (the detailed FS model requirement of §4.3.1).
	tr := buildTrace([]rspec{
		{tid: 1, call: "open", path: "/real", ret: 3},
		{tid: 1, call: "write", fd: 3, ret: 10},
		{tid: 2, call: "open", path: "/alias", ret: 4}, // symlink to /real
		{tid: 2, call: "write", fd: 4, ret: 10},
		{tid: 3, call: "open", path: "/hard", ret: 5}, // hard link to /real
		{tid: 3, call: "write", fd: 5, ret: 10},
	})
	fs := vfs.New()
	ino, _, err := fs.Create(nil, "/real", 0o644, true)
	if err != vfs.OK {
		t.Fatal(err)
	}
	ino.Size = 4096
	if _, err := fs.Symlink(nil, "/real", "/alias"); err != vfs.OK {
		t.Fatal(err)
	}
	if err := fs.Link(nil, "/real", "/hard"); err != vfs.OK {
		t.Fatal(err)
	}
	an, aerr := Analyze(tr, fs)
	if aerr != nil {
		t.Fatal(aerr)
	}
	fileSeries := seriesFor(an, KFile, strconv.FormatUint(uint64(ino.Ino), 10), 1)
	if !eq(fileSeries, 0, 1, 2, 3, 4, 5) {
		t.Fatalf("file series through links = %v, want all six actions", fileSeries)
	}
	g := BuildGraph(an, ModeSet{FileSeq: true})
	// file_seq must chain the cross-thread accesses.
	want := [][2]int{{1, 2}, {3, 4}}
	for _, w := range want {
		found := false
		for _, e := range g.Edges {
			if e.From == w[0] && e.To == w[1] {
				found = true
			}
		}
		if !found {
			t.Errorf("missing file_seq edge %d->%d", w[0], w[1])
		}
	}
}

func TestRenameUnbreaksSymlinkDependency(t *testing.T) {
	// The iphoto_import400 edge case (§5.1): /link points to /y/f which
	// does not exist; renaming /x to /y makes /link resolve. An open
	// through the link after the rename must depend on the rename (via
	// the file resource reached through the new path).
	tr := buildTrace([]rspec{
		{tid: 1, call: "rename", path: "/x", path2: "/y", ret: 0},
		{tid: 2, call: "open", path: "/link", ret: 3},
	})
	fs := vfs.New()
	if _, err := fs.MkdirAll(nil, "/x", 0o755); err != vfs.OK {
		t.Fatal(err)
	}
	ino, _, err := fs.Create(nil, "/x/f", 0o644, true)
	if err != vfs.OK {
		t.Fatal(err)
	}
	ino.Size = 100
	if _, err := fs.Symlink(nil, "/y/f", "/link"); err != vfs.OK {
		t.Fatal(err)
	}
	an, aerr := Analyze(tr, fs)
	if aerr != nil {
		t.Fatal(aerr)
	}
	g := BuildGraph(an, DefaultModes())
	found := false
	for _, e := range g.Edges {
		if e.From == 0 && e.To == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("open through un-broken symlink lacks dependency on rename; edges=%v", g.Edges)
	}
}

func TestProgramSeqTotalOrder(t *testing.T) {
	tr := figure2Trace()
	an := analyze(t, tr, figure2Snapshot())
	g := BuildGraph(an, ModeSet{ProgramSeq: true})
	// Every consecutive cross-thread pair must be chained.
	if len(g.Edges) == 0 {
		t.Fatal("program_seq produced no edges")
	}
	for _, e := range g.Edges {
		if e.To != e.From+1 {
			t.Fatalf("program_seq edge %d->%d not consecutive", e.From, e.To)
		}
	}
}

func TestFailedCallsUnconstrained(t *testing.T) {
	tr := buildTrace([]rspec{
		{tid: 1, call: "open", path: "/f", ret: 3},
		{tid: 2, call: "stat", path: "/f", ret: -1, err: "ENOENT"},
	})
	snap := []snapshot.Entry{{Kind: snapshot.KindFile, Path: "/f", Size: 10}}
	an := analyze(t, tr, snap)
	if len(an.Touches(1)) != 0 {
		t.Fatalf("failed call touches = %v, want none", an.Touches(1))
	}
	g := BuildGraph(an, DefaultModes())
	for _, e := range g.Edges {
		if e.To == 1 || e.From == 1 {
			t.Fatalf("failed call has dependency edge %v", e)
		}
	}
}

func TestAIOStage(t *testing.T) {
	tr := buildTrace([]rspec{
		{tid: 1, call: "open", path: "/f", ret: 3},
		{tid: 1, call: "aio_read", fd: 3, ret: 9, aio: 9},
		{tid: 2, call: "aio_error", aio: 9, ret: 0},
		{tid: 2, call: "aio_return", aio: 9, ret: 4096},
	})
	snap := []snapshot.Entry{{Kind: snapshot.KindFile, Path: "/f", Size: 1 << 20}}
	an := analyze(t, tr, snap)
	g := BuildGraph(an, ModeSet{AIOStage: true})
	has := func(from, to int) bool {
		for _, e := range g.Edges {
			if e.From == from && e.To == to {
				return true
			}
		}
		return false
	}
	if !has(1, 2) {
		t.Error("aio_error does not depend on aio_read (stage create)")
	}
	// aio_error -> aio_return is same-thread (implicit); the delete must
	// still wait on the cross-thread create.
	if !has(1, 3) {
		t.Error("aio_return (delete) does not wait for aio_read (create)")
	}
}

func TestTemporalGraph(t *testing.T) {
	tr := figure2Trace()
	an := analyze(t, tr, figure2Snapshot())
	g := TemporalGraph(an)
	if err := g.CheckAcyclic(); err != nil {
		t.Fatal(err)
	}
	// Only cross-thread consecutive pairs: 4->5 (T1->T2). 5->6 same
	// thread.
	if len(g.Edges) != 1 || g.Edges[0].From != 4 || g.Edges[0].To != 5 {
		t.Fatalf("temporal edges = %v", g.Edges)
	}
	if g.Edges[0].Kind != WaitIssue {
		t.Fatal("temporal edges must be WaitIssue")
	}
	if len(UnconstrainedGraph(an).Edges) != 0 {
		t.Fatal("unconstrained graph has edges")
	}
}

// TestNewGraphRows covers what no compiled corpus has: no actions at
// all, actions with no edge, a backward edge and a self-loop (the
// replayer's deadlock tests hand-build those). Rows list edge indices in
// Edges order.
func TestNewGraphRows(t *testing.T) {
	if g := NewGraph(0, nil); g.N != 0 || len(g.Edges) != 0 {
		t.Fatalf("empty graph: %+v", g)
	}
	g := NewGraph(4, []Edge{{From: 2, To: 0}, {From: 0, To: 2}, {From: 2, To: 2}, {From: 0, To: 3}})
	wantDeps := [][]int32{{0}, {}, {1, 2}, {3}}
	wantSuccs := [][]int32{{1, 3}, {}, {0, 2}, {}}
	for i := 0; i < g.N; i++ {
		if d, s := g.Deps(i), g.Succs(i); !slices.Equal(d, wantDeps[i]) || !slices.Equal(s, wantSuccs[i]) || g.Indegree(i) != len(wantDeps[i]) {
			t.Fatalf("action %d: Deps %v Succs %v Indegree %d, want %v %v", i, d, s, g.Indegree(i), wantDeps[i], wantSuccs[i])
		}
	}
}

func TestValidateOrder(t *testing.T) {
	tr := buildTrace([]rspec{
		{tid: 1, call: "open", path: "/f", ret: 3},
		{tid: 2, call: "read", fd: 3, ret: 10},
	})
	snap := []snapshot.Entry{{Kind: snapshot.KindFile, Path: "/f", Size: 100}}
	an := analyze(t, tr, snap)
	g := BuildGraph(an, DefaultModes())
	ok := []time.Duration{0, 10}
	okDone := []time.Duration{5, 15}
	if err := g.ValidateOrder(ok, okDone); err != nil {
		t.Fatalf("valid order rejected: %v", err)
	}
	bad := []time.Duration{10, 3} // read issued before open completed
	badDone := []time.Duration{15, 8}
	if err := g.ValidateOrder(bad, badDone); err == nil {
		t.Fatal("invalid order accepted")
	}
}

// Subsumes reports whether mode set a allows only orderings that b also
// allows (a is at least as constrained as b) based on rule subsumption:
// program_seq subsumes everything; fd_seq subsumes fd_stage.
func (a ModeSet) Subsumes(b ModeSet) bool {
	if a.ProgramSeq {
		return true
	}
	if b.ProgramSeq {
		return false
	}
	ge := func(x, y bool) bool { return x || !y }
	return ge(a.FileSeq, b.FileSeq) &&
		ge(a.PathStageName, b.PathStageName) &&
		ge(a.FDSeq, b.FDSeq) &&
		ge(a.FDStage || a.FDSeq, b.FDStage || b.FDSeq) &&
		ge(a.AIOStage, b.AIOStage)
}

func TestModeSubsumption(t *testing.T) {
	all := DefaultModes()
	prog := ModeSet{ProgramSeq: true}
	none := ModeSet{}
	if !prog.Subsumes(all) || !prog.Subsumes(none) {
		t.Error("program_seq must subsume everything")
	}
	if all.Subsumes(prog) {
		t.Error("default modes must not subsume program_seq")
	}
	if !all.Subsumes(none) {
		t.Error("defaults subsume empty")
	}
	fdSeq := ModeSet{FDSeq: true}
	fdStage := ModeSet{FDStage: true}
	if !fdSeq.Subsumes(fdStage) {
		t.Error("fd_seq must subsume fd_stage")
	}
	if fdStage.Subsumes(fdSeq) {
		t.Error("fd_stage must not subsume fd_seq")
	}
}

// Subsumption property at the graph level: orderings forbidden by a
// weaker mode set are also forbidden by a stronger one. We verify the
// edge-set inclusion on the Figure 2 trace: dependencies required by
// fd_stage are also implied by fd_seq edges (directly or transitively).
func TestStageEdgesImpliedBySeq(t *testing.T) {
	tr := buildTrace([]rspec{
		{tid: 1, call: "open", path: "/f", ret: 3},
		{tid: 2, call: "read", fd: 3, ret: 1},
		{tid: 3, call: "read", fd: 3, ret: 1},
		{tid: 1, call: "close", fd: 3, ret: 0},
	})
	snap := []snapshot.Entry{{Kind: snapshot.KindFile, Path: "/f", Size: 100}}
	an := analyze(t, tr, snap)
	stage := BuildGraph(an, ModeSet{FDStage: true})
	seq := BuildGraph(an, ModeSet{FDSeq: true})
	reach := func(g *Graph, from, to int) bool {
		next := make(map[int][]int)
		for _, e := range g.Edges {
			next[e.From] = append(next[e.From], e.To)
		}
		// Same-thread order is implicit: add those edges too.
		byTID := make(map[int32][]int)
		for i := range an.Actions {
			byTID[tr.Records[i].TID] = append(byTID[tr.Records[i].TID], i)
		}
		for _, idxs := range byTID {
			for i := 1; i < len(idxs); i++ {
				next[idxs[i-1]] = append(next[idxs[i-1]], idxs[i])
			}
		}
		seen := map[int]bool{from: true}
		stack := []int{from}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n == to {
				return true
			}
			for _, m := range next[n] {
				if !seen[m] {
					seen[m] = true
					stack = append(stack, m)
				}
			}
		}
		return false
	}
	for _, e := range stage.Edges {
		if !reach(seq, e.From, e.To) {
			t.Errorf("stage edge %d->%d not implied by fd_seq graph", e.From, e.To)
		}
	}
}

func TestAnalyzeRequiresRenumberedTrace(t *testing.T) {
	tr := figure2Trace()
	tr.Records[0].Seq = 42
	fs := vfs.New()
	if _, err := Analyze(tr, fs); err == nil {
		t.Fatal("no error for unnumbered trace")
	}
}

func TestWarningsOnModelMiss(t *testing.T) {
	tr := buildTrace([]rspec{
		{tid: 1, call: "read", fd: 99, ret: 10}, // untracked fd
	})
	an := analyze(t, tr, nil)
	if len(an.Warnings) == 0 {
		t.Fatal("no warning for untracked fd")
	}
	if !strings.Contains(an.Warnings[0], "fd 99") {
		t.Fatalf("warning = %q", an.Warnings[0])
	}
}

// Property: for random mode sets and a fixed nontrivial trace, the built
// graph is acyclic and all edges connect different threads.
func TestQuickGraphInvariants(t *testing.T) {
	tr := figure2Trace()
	an := analyze(t, tr, figure2Snapshot())
	f := func(prog, fseq, path, fdstage, fdseq, aio bool) bool {
		m := ModeSet{ProgramSeq: prog, FileSeq: fseq, PathStageName: path,
			FDStage: fdstage, FDSeq: fdseq, AIOStage: aio}
		g := BuildGraph(an, m)
		if g.CheckAcyclic() != nil {
			return false
		}
		for _, e := range g.Edges {
			if tr.Records[e.From].TID == tr.Records[e.To].TID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 64}); err != nil {
		t.Fatal(err)
	}
}

// Property: a stronger mode set's graph requires at least as many
// orderings: every edge of the weaker graph is reachable in the stronger
// graph (with implicit thread edges).
func TestQuickSubsumptionEdgeInclusion(t *testing.T) {
	tr := figure2Trace()
	an := analyze(t, tr, figure2Snapshot())
	weakModes := []ModeSet{
		{},
		{FDStage: true},
		{PathStageName: true},
		{FileSeq: true},
	}
	strong := BuildGraph(an, ModeSet{ProgramSeq: true})
	next := make(map[int][]int)
	for _, e := range strong.Edges {
		next[e.From] = append(next[e.From], e.To)
	}
	byTID := make(map[int32][]int)
	for i := range an.Actions {
		byTID[tr.Records[i].TID] = append(byTID[tr.Records[i].TID], i)
	}
	for _, idxs := range byTID {
		for i := 1; i < len(idxs); i++ {
			next[idxs[i-1]] = append(next[idxs[i-1]], idxs[i])
		}
	}
	var reach func(from, to int, seen map[int]bool) bool
	reach = func(from, to int, seen map[int]bool) bool {
		if from == to {
			return true
		}
		seen[from] = true
		for _, m := range next[from] {
			if !seen[m] && reach(m, to, seen) {
				return true
			}
		}
		return false
	}
	for _, m := range weakModes {
		g := BuildGraph(an, m)
		for _, e := range g.Edges {
			if !reach(e.From, e.To, map[int]bool{}) {
				t.Fatalf("edge %d->%d of mode %+v not implied by program_seq", e.From, e.To, m)
			}
		}
	}
}

func TestKindRoleStrings(t *testing.T) {
	if KFile.String() != "file" || KAIO.String() != "aiocb" {
		t.Fatal("kind names")
	}
	if RoleCreate.String() != "create" || RoleDelete.String() != "delete" || RoleUse.String() != "use" {
		t.Fatal("role names")
	}
	r := ResourceID{Kind: KFD, Name: "3", Gen: 2}
	if r.String() != "fd(3)@2" {
		t.Fatalf("resource string = %s", r.String())
	}
}

// handAnalysis lays out an analysis of len(touches) actions, alternating
// between threads 1 and 2, the way Finish does: action i touches
// touches[i].
func handAnalysis(resources []ResourceID, touches [][]Touch, pathGens map[string][]int) *Analysis {
	an := &Analysis{Trace: &trace.Trace{}, Resources: resources, PathGens: pathGens,
		SeriesOff: make([]int32, len(resources)+1)}
	series := make([][]int32, len(resources))
	for i, ts := range touches {
		an.Trace.Records = append(an.Trace.Records, trace.Record{Seq: int64(i), TID: int32(1 + i%2)})
		an.Actions = append(an.Actions, Action{CanonPath: -1, CanonPath2: -1, FDHint: -1,
			TouchOff: int32(len(an.TouchSlab)), TouchLen: int32(len(ts))})
		for _, tc := range ts {
			tc.Kind = resources[tc.Idx].Kind
			an.TouchSlab = append(an.TouchSlab, tc)
			series[tc.Idx] = append(series[tc.Idx], int32(i))
		}
	}
	for k, s := range series {
		an.SeriesIdx = append(an.SeriesIdx, s...)
		an.SeriesOff[k+1] = int32(len(an.SeriesIdx))
	}
	return an
}

// TestSharedPairSurvivor: when several resources order the same action
// pair, the edge kept is the one emitted first when resources were walked
// in (Kind, Name, Gen) order and the name rule after them, whatever the
// resources' index order and PathGens' map order.
func TestSharedPairSurvivor(t *testing.T) {
	file := func(name string) ResourceID { return ResourceID{Kind: KFile, Name: name, Gen: 1} }
	path := func(name string, gen int) ResourceID { return ResourceID{Kind: KPath, Name: name, Gen: gen} }
	use := func(k int32) Touch { return Touch{Idx: k, Role: RoleUse} }
	create := func(k int32) Touch { return Touch{Idx: k, Role: RoleCreate} }
	cases := []struct {
		name  string
		an    *Analysis
		modes ModeSet
		want  ResourceID
	}{
		{
			// Index order puts file 9 first; name order puts "10" first.
			"files", handAnalysis([]ResourceID{file("9"), file("10")},
				[][]Touch{{use(0), use(1)}, {use(0), use(1)}}, nil),
			ModeSet{FileSeq: true}, file("10"),
		},
		{
			// Two names rebound by the same two actions: (Name, Gen) order.
			"name rule", handAnalysis([]ResourceID{path("/b", 1), path("/a", 1), path("/b", 2), path("/a", 2)},
				[][]Touch{{create(0), create(1)}, {create(2), create(3)}},
				map[string][]int{"/a": {1, 2}, "/b": {1, 2}}),
			ModeSet{PathStageName: true}, path("/a", 2),
		},
		{
			// A resource-rule edge outranks the name rule's smaller name.
			"resource rule first", handAnalysis([]ResourceID{path("/b", 1), path("/a", 1), path("/b", 2), path("/a", 2), path("/z", 1)},
				[][]Touch{{create(0), create(1), create(4)}, {create(2), create(3), use(4)}},
				map[string][]int{"/a": {1, 2}, "/b": {1, 2}, "/z": {1}}),
			ModeSet{PathStageName: true}, path("/z", 1),
		},
	}
	for _, c := range cases {
		for run := 0; run < 20; run++ { // PathGens iterates in a new order each time
			g := BuildGraph(c.an, c.modes)
			if len(g.Edges) != 1 || g.Edges[0].From != 0 || g.Edges[0].To != 1 || g.Edges[0].Res != c.want {
				t.Fatalf("%s: edges %v, want one 0->1 edge through %v", c.name, g.Edges, c.want)
			}
		}
	}
}

func BenchmarkAnalyzeFigure2Style(b *testing.B) {
	// A synthetic 1000-action trace of opens/reads/closes.
	var specs []rspec
	for i := 0; i < 250; i++ {
		fd := int64(3 + i%4)
		p := "/data/f" + strconv.Itoa(i%16)
		specs = append(specs,
			rspec{tid: 1 + i%4, call: "open", path: p, ret: fd},
			rspec{tid: 1 + i%4, call: "read", fd: fd, ret: 100},
			rspec{tid: 1 + i%4, call: "read", fd: fd, ret: 100},
			rspec{tid: 1 + i%4, call: "close", fd: fd, ret: 0},
		)
	}
	tr := buildTrace(specs)
	var entries []snapshot.Entry
	entries = append(entries, snapshot.Entry{Kind: snapshot.KindDir, Path: "/data"})
	for i := 0; i < 16; i++ {
		entries = append(entries, snapshot.Entry{
			Kind: snapshot.KindFile, Path: "/data/f" + strconv.Itoa(i), Size: 4096,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := vfs.New()
		if err := snapshot.RestoreTree(fs, "", &snapshot.Snapshot{Entries: entries}); err != nil {
			b.Fatal(err)
		}
		an, err := Analyze(tr, fs)
		if err != nil {
			b.Fatal(err)
		}
		BuildGraph(an, DefaultModes())
	}
}
