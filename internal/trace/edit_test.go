package trace

import (
	"fmt"
	"sort"
	"testing"
	"time"
)

func TestFilterThreads(t *testing.T) {
	tr := sampleTrace()
	only2 := tr.FilterThreads(2)
	if len(only2.Records) != 3 {
		t.Fatalf("records = %d, want 3", len(only2.Records))
	}
	for i, r := range only2.Records {
		if r.TID != 2 {
			t.Fatalf("record %d has TID %d", i, r.TID)
		}
		if r.Seq != int64(i) {
			t.Fatalf("not renumbered: %d at %d", r.Seq, i)
		}
	}
	// Original untouched.
	if len(tr.Records) != 7 {
		t.Fatal("original mutated")
	}
	if n := len(tr.FilterThreads(99).Records); n != 0 {
		t.Fatalf("unknown tid kept %d records", n)
	}
}

func TestWindow(t *testing.T) {
	tr := sampleTrace() // starts at 1000ns..3400ns
	w := tr.Window(2500, 3100)
	// Records with Start in [2500, 3100): write(2500), stat(2550),
	// rename(3000).
	if len(w.Records) != 3 {
		t.Fatalf("window records = %d, want 3", len(w.Records))
	}
	if w.Records[0].Start != 0 {
		t.Fatalf("window not rebased: first start %v", w.Records[0].Start)
	}
	if w.Records[2].Start != 500*time.Nanosecond {
		t.Fatalf("rebased start = %v", w.Records[2].Start)
	}
}

func TestMergeDisjointThreadsAndFDs(t *testing.T) {
	a := &Trace{Platform: "linux"}
	s := a.Intern
	a.Records = []Record{
		{TID: 1, Call: s("open"), Path: s("/a"), Ret: 3, Start: 0, End: 10},
		{TID: 1, Call: s("read"), FD: 3, Size: 100, Ret: 100, Start: 20, End: 30},
	}
	b := &Trace{Platform: "linux"}
	s = b.Intern
	b.Records = []Record{
		{TID: 1, Call: s("open"), Path: s("/b"), Ret: 3, Start: 5, End: 15},
		{TID: 1, Call: s("close"), FD: 3, Ret: 0, Start: 25, End: 26},
	}
	m, err := Merge(a, b)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if len(m.Records) != 4 {
		t.Fatalf("merged records = %d", len(m.Records))
	}
	// Sorted by start: a.open(0), b.open(5), a.read(20), b.close(25).
	if m.Str(m.Records[0].Path) != "/a" || m.Str(m.Records[1].Path) != "/b" {
		t.Fatalf("merge order wrong: %v %v", m.Str(m.Records[0].Path), m.Str(m.Records[1].Path))
	}
	// Threads disjoint.
	if m.Records[0].TID == m.Records[1].TID {
		t.Fatal("thread collision after merge")
	}
	// Descriptor numbers disjoint: a's read fd != b's close fd.
	if m.Records[2].FD == m.Records[3].FD {
		t.Fatal("fd collision after merge")
	}
	// a's open return matches a's read fd.
	if m.Records[0].Ret != m.Records[2].FD {
		t.Fatalf("fd remap broke open/read pairing: %d vs %d", m.Records[0].Ret, m.Records[2].FD)
	}
	for i, r := range m.Records {
		if r.Seq != int64(i) {
			t.Fatal("merge not renumbered")
		}
	}
}

func TestMergePlatform(t *testing.T) {
	a := &Trace{Platform: "osx", Records: []Record{{TID: 1, Call: 1}}, Strs: []string{"", "sync"}}
	m, err := Merge(a)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if m.Platform != "osx" {
		t.Fatalf("platform = %s", m.Platform)
	}
}

func TestMergePlatformMismatchRejected(t *testing.T) {
	a := &Trace{Platform: "osx", Records: []Record{{TID: 1, Call: 1}}, Strs: []string{"", "sync"}}
	b := &Trace{Platform: "linux", Records: []Record{{TID: 1, Call: 1}}, Strs: []string{"", "sync"}}
	if _, err := Merge(a, b); err == nil {
		t.Fatal("merging osx with linux should fail")
	}
	// A platform-less input (e.g. synthetic) merges with anything.
	c := &Trace{Records: []Record{{TID: 1, Call: 1}}, Strs: []string{"", "sync"}}
	m, err := Merge(c, a)
	if err != nil {
		t.Fatalf("Merge with platform-less input: %v", err)
	}
	if m.Platform != "osx" {
		t.Fatalf("platform = %s, want osx", m.Platform)
	}
}

func TestMergeRemapsFcntlDupFD(t *testing.T) {
	// Input b duplicates fd 3 to fd 7 via fcntl(F_DUPFD) and then reads
	// from the duplicate; the duplicate's number must be remapped into
	// b's descriptor range along with everything else.
	a := &Trace{Platform: "linux"}
	s := a.Intern
	a.Records = []Record{
		{TID: 1, Call: s("open"), Path: s("/a"), Ret: 7, Start: 0, End: 1},
	}
	b := &Trace{Platform: "linux"}
	s = b.Intern
	b.Records = []Record{
		{TID: 1, Call: s("open"), Path: s("/b"), Ret: 3, Start: 2, End: 3},
		{TID: 1, Call: s("fcntl"), Name: s("F_DUPFD"), FD: 3, Ret: 7, Start: 4, End: 5},
		{TID: 1, Call: s("read"), FD: 7, Size: 10, Ret: 10, Start: 6, End: 7},
	}
	m, err := Merge(a, b)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	// Records sorted by start: a.open, b.open, b.fcntl, b.read.
	dup, rd := m.Records[2], m.Records[3]
	if m.Str(dup.Call) != "fcntl" || m.Str(rd.Call) != "read" {
		t.Fatalf("unexpected order: %s, %s", m.Str(dup.Call), m.Str(rd.Call))
	}
	if dup.Ret == 7 {
		t.Fatalf("F_DUPFD return not remapped: %d", dup.Ret)
	}
	if dup.Ret != rd.FD {
		t.Fatalf("F_DUPFD return %d does not match later read fd %d", dup.Ret, rd.FD)
	}
	// The duplicate must not collide with a's descriptor range.
	if dup.Ret == m.Records[0].Ret {
		t.Fatal("F_DUPFD duplicate collides with the other input's descriptor")
	}
}

// Trace-editing helpers: cut a trace down to a window or a set of
// threads, or merge traces into one. The cuts share their input's
// string table: records are copied by value and keep indexing it.

// FilterThreads returns a new trace containing only the records of the
// given thread IDs, in the original order, renumbered.
func (tr *Trace) FilterThreads(tids ...int) *Trace {
	keep := make(map[int32]bool, len(tids))
	for _, t := range tids {
		keep[int32(t)] = true
	}
	out := &Trace{Platform: tr.Platform, Strs: tr.Strs}
	for _, r := range tr.Records {
		if keep[r.TID] {
			out.Records = append(out.Records, r)
		}
	}
	out.Renumber()
	return out
}

// Window returns a new trace containing the records whose start times
// fall in [from, to), rebased so the window begins at zero, renumbered.
func (tr *Trace) Window(from, to time.Duration) *Trace {
	out := &Trace{Platform: tr.Platform, Strs: tr.Strs}
	for _, r := range tr.Records {
		if r.Start < from || r.Start >= to {
			continue
		}
		r.Start -= from
		r.End -= from
		out.Records = append(out.Records, r)
	}
	out.Renumber()
	return out
}

// Merge interleaves several traces into one by start time, remapping
// thread IDs so different inputs never share a thread, and remapping
// descriptor numbers into per-input ranges so a descriptor number used
// by two inputs is not mistaken for a shared resource. Inputs must all
// record the same platform — a merged replay runs against one syscall
// surface, so mixing platforms is an error, not a silent pick of the
// first. The result is renumbered.
//
// The merged trace's string table is the union of the inputs' (first
// input wins a duplicate), and it reuses their strings rather than
// copying them: records are re-pointed at the union through a per-input
// remap.
func Merge(traces ...*Trace) (*Trace, error) {
	out := &Trace{}
	tab := out.table()
	const tidStride = 1000
	const fdStride = 100000
	for i, tr := range traces {
		if tr.Platform != "" {
			if out.Platform == "" {
				out.Platform = tr.Platform
			} else if tr.Platform != out.Platform {
				return nil, fmt.Errorf("trace: merge input %d is %q, earlier inputs are %q",
					i, tr.Platform, out.Platform)
			}
		}
		remap := make([]Str, len(tr.Strs))
		for j, s := range tr.Strs {
			if s == "" {
				continue
			}
			id, ok := tab.ids[s]
			if !ok {
				id = Str(len(out.Strs))
				out.Strs = append(out.Strs, s)
				tab.ids[s] = id
			}
			remap[j] = id
		}
		for _, r := range tr.Records {
			cp := r
			cp.Call, cp.Path, cp.Path2, cp.Name, cp.Err = remap[r.Call], remap[r.Path], remap[r.Path2], remap[r.Name], remap[r.Err]
			cp.TID = r.TID + int32(i+1)*tidStride
			// Remap descriptor arguments (0/1/2 are stdio and unused by
			// the model; any nonzero fd is file I/O here).
			if cp.FD != 0 {
				cp.FD += int64(i+1) * fdStride
			}
			if cp.FD2 != 0 {
				cp.FD2 += int64(i+1) * fdStride
			}
			if createsFDInRet(out, &cp) && cp.Ret > 0 {
				cp.Ret += int64(i+1) * fdStride
			}
			if cp.AIO != 0 {
				cp.AIO += int64(i+1) * fdStride
			}
			out.Records = append(out.Records, cp)
		}
	}
	sort.SliceStable(out.Records, func(a, b int) bool {
		return out.Records[a].Start < out.Records[b].Start
	})
	out.Renumber()
	return out, nil
}

// createsFDInRet reports whether a record of tr's returns a new
// descriptor number that must be remapped alongside FD/FD2. Besides the
// obvious creators, fcntl(F_DUPFD) returns a duplicate descriptor; a
// merge that leaves its Ret unmapped splices the duplicate into another
// input's descriptor range. Call names are matched literally (including
// the fcntl64 spelling) because this package sits below the stack's
// canonicalization layer.
func createsFDInRet(tr *Trace, r *Record) bool {
	switch tr.Str(r.Call) {
	case "open", "open64", "creat", "dup":
		return true
	case "fcntl", "fcntl64":
		return tr.Str(r.Name) == "F_DUPFD"
	}
	return false
}
