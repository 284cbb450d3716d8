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
	a := &Trace{Platform: "linux", Records: []*Record{
		{TID: 1, Call: "open", Path: "/a", Ret: 3, Start: 0, End: 10},
		{TID: 1, Call: "read", FD: 3, Size: 100, Ret: 100, Start: 20, End: 30},
	}}
	b := &Trace{Platform: "linux", Records: []*Record{
		{TID: 1, Call: "open", Path: "/b", Ret: 3, Start: 5, End: 15},
		{TID: 1, Call: "close", FD: 3, Ret: 0, Start: 25, End: 26},
	}}
	m, err := Merge(a, b)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if len(m.Records) != 4 {
		t.Fatalf("merged records = %d", len(m.Records))
	}
	// Sorted by start: a.open(0), b.open(5), a.read(20), b.close(25).
	if m.Records[0].Path != "/a" || m.Records[1].Path != "/b" {
		t.Fatalf("merge order wrong: %v %v", m.Records[0].Path, m.Records[1].Path)
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
	a := &Trace{Platform: "osx", Records: []*Record{{TID: 1, Call: "sync"}}}
	m, err := Merge(a)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if m.Platform != "osx" {
		t.Fatalf("platform = %s", m.Platform)
	}
}

func TestMergePlatformMismatchRejected(t *testing.T) {
	a := &Trace{Platform: "osx", Records: []*Record{{TID: 1, Call: "sync"}}}
	b := &Trace{Platform: "linux", Records: []*Record{{TID: 1, Call: "sync"}}}
	if _, err := Merge(a, b); err == nil {
		t.Fatal("merging osx with linux should fail")
	}
	// A platform-less input (e.g. synthetic) merges with anything.
	c := &Trace{Records: []*Record{{TID: 1, Call: "sync"}}}
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
	a := &Trace{Platform: "linux", Records: []*Record{
		{TID: 1, Call: "open", Path: "/a", Ret: 7, Start: 0, End: 1},
	}}
	b := &Trace{Platform: "linux", Records: []*Record{
		{TID: 1, Call: "open", Path: "/b", Ret: 3, Start: 2, End: 3},
		{TID: 1, Call: "fcntl", Name: "F_DUPFD", FD: 3, Ret: 7, Start: 4, End: 5},
		{TID: 1, Call: "read", FD: 7, Size: 10, Ret: 10, Start: 6, End: 7},
	}}
	m, err := Merge(a, b)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	// Records sorted by start: a.open, b.open, b.fcntl, b.read.
	dup, rd := m.Records[2], m.Records[3]
	if dup.Call != "fcntl" || rd.Call != "read" {
		t.Fatalf("unexpected order: %s, %s", dup.Call, rd.Call)
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
// threads, or merge traces into one.

// FilterThreads returns a new trace containing only the records of the
// given thread IDs, in the original order, renumbered.
func (tr *Trace) FilterThreads(tids ...int) *Trace {
	keep := make(map[int]bool, len(tids))
	for _, t := range tids {
		keep[t] = true
	}
	out := &Trace{Platform: tr.Platform}
	for _, r := range tr.Records {
		if keep[r.TID] {
			cp := *r
			out.Records = append(out.Records, &cp)
		}
	}
	out.Renumber()
	return out
}

// Window returns a new trace containing the records whose start times
// fall in [from, to), rebased so the window begins at zero, renumbered.
func (tr *Trace) Window(from, to time.Duration) *Trace {
	out := &Trace{Platform: tr.Platform}
	for _, r := range tr.Records {
		if r.Start < from || r.Start >= to {
			continue
		}
		cp := *r
		cp.Start -= from
		cp.End -= from
		out.Records = append(out.Records, &cp)
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
// The merged trace reuses the inputs' intern tables rather than
// re-allocating merged strings: records are copied by value, so their
// string fields keep the inputs' backing storage, and the output's
// table is the union of the inputs' tables (first table seen wins a
// duplicate), so downstream editors keep deduplicating against the
// same storage.
func Merge(traces ...*Trace) (*Trace, error) {
	out := &Trace{}
	for _, tr := range traces {
		if tr.intern != nil {
			out.InternTable().AddAll(tr.intern)
		}
	}
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
		for _, r := range tr.Records {
			cp := *r
			cp.TID = r.TID + (i+1)*tidStride
			// Remap descriptor arguments (0/1/2 are stdio and unused by
			// the model; any nonzero fd is file I/O here).
			if cp.FD != 0 {
				cp.FD += int64(i+1) * fdStride
			}
			if cp.FD2 != 0 {
				cp.FD2 += int64(i+1) * fdStride
			}
			if createsFDInRet(&cp) && cp.Ret > 0 {
				cp.Ret += int64(i+1) * fdStride
			}
			if cp.AIO != 0 {
				cp.AIO += int64(i+1) * fdStride
			}
			out.Records = append(out.Records, &cp)
		}
	}
	sort.SliceStable(out.Records, func(a, b int) bool {
		return out.Records[a].Start < out.Records[b].Start
	})
	out.Renumber()
	return out, nil
}

// createsFDInRet reports whether a record's return value is a new
// descriptor number and must be remapped alongside FD/FD2. Besides the
// obvious creators, fcntl(F_DUPFD) returns a duplicate descriptor; a
// merge that leaves its Ret unmapped splices the duplicate into another
// input's descriptor range. Call names are matched literally (including
// the fcntl64 spelling) because this package sits below the stack's
// canonicalization layer.
func createsFDInRet(r *Record) bool {
	switch r.Call {
	case "open", "open64", "creat", "dup":
		return true
	case "fcntl", "fcntl64":
		return r.Name == "F_DUPFD"
	}
	return false
}

// InternTable returns the trace's string-interning table, creating an
// empty one on first use so editors (Merge) can always extend it.
func (tr *Trace) InternTable() *Intern {
	if tr.intern == nil {
		tr.intern = NewIntern()
	}
	return tr.intern
}

// Has reports whether s is already interned. Tests use it to assert
// sharing invariants.
func (t *Intern) Has(s string) bool {
	_, ok := t.strs[s]
	return ok
}

// AddAll merges src's entries into t. Existing entries win, so strings
// already shared by t's records keep their backing storage; new entries
// reuse src's backing storage rather than re-copying. A nil src is a
// no-op.
func (t *Intern) AddAll(src *Intern) {
	if src == nil {
		return
	}
	for k, v := range src.strs {
		if _, ok := t.strs[k]; !ok {
			t.strs[k] = v
		}
	}
	for k, v := range src.flags {
		if _, ok := t.flags[k]; !ok {
			t.flags[k] = v
		}
	}
}
