// Package trace defines the trace model shared by the tracer, the ARTC
// compiler, and the replayer.
//
// A Trace is a totally-ordered series of Records, each describing one
// system call: entry/return timestamps, the numeric ID of the issuing
// thread, the call type, its parameters, and its return value — exactly
// the per-call information ARTC's core requires (§4.3.1). Buffer
// pointers are deliberately absent: ARTC ignores them.
//
// The package also provides a native text serialization (artc format)
// and a parser for strace -f -T -ttt output; see encoding.go and
// strace.go.
package trace

import "time"

// OpenFlag is a set of open(2) flags. Values match Linux/x86-64.
type OpenFlag int64

// Open flags understood by the model.
const (
	ORdonly   OpenFlag = 0x0
	OWronly   OpenFlag = 0x1
	ORdwr     OpenFlag = 0x2
	OCreat    OpenFlag = 0x40
	OExcl     OpenFlag = 0x80
	OTrunc    OpenFlag = 0x200
	OAppend   OpenFlag = 0x400
	ONonblock OpenFlag = 0x800
	ODir      OpenFlag = 0x10000
	ONofollow OpenFlag = 0x20000
	OSync     OpenFlag = 0x101000
)

var flagNames = []struct {
	f OpenFlag
	n string
}{
	{OWronly, "O_WRONLY"},
	{ORdwr, "O_RDWR"},
	{OCreat, "O_CREAT"},
	{OExcl, "O_EXCL"},
	{OTrunc, "O_TRUNC"},
	{OAppend, "O_APPEND"},
	{ONonblock, "O_NONBLOCK"},
	{ODir, "O_DIRECTORY"},
	{ONofollow, "O_NOFOLLOW"},
	{OSync, "O_SYNC"},
}

// String renders flags in strace style ("O_RDWR|O_CREAT").
func (f OpenFlag) String() string {
	s := ""
	if f&0x3 == 0 {
		s = "O_RDONLY"
	}
	for _, fn := range flagNames {
		if f&fn.f == fn.f && fn.f != 0 {
			if s != "" {
				s += "|"
			}
			s += fn.n
		}
	}
	if s == "" {
		s = "O_RDONLY"
	}
	return s
}

// Access reports the access mode bits (O_RDONLY/O_WRONLY/O_RDWR).
func (f OpenFlag) Access() OpenFlag { return f & 0x3 }

// Str names a string in its trace's string table, Trace.Strs. The
// zero Str is the empty string, so a field nobody set reads as absent.
type Str int32

// Record is one traced system call. It is a flat union over the calls
// the model supports; unused fields are zero. This mirrors ARTC's
// generated static tables of per-call structs.
//
// A record is a row of numbers with no pointer in it: its strings are
// Str indices into the trace's table (Trace.Str reads one), so a
// trace's records are one slab the collector never scans.
type Record struct {
	Seq    int64         // position in the total order of the trace
	TID    int32         // numeric ID of the issuing thread
	Call   Str           // call name as traced, e.g. "open", "pread"
	Path   Str           // first path argument
	Path2  Str           // second path argument (rename, link, symlink target)
	FD     int64         // first fd argument, or fd return for open
	FD2    int64         // second fd argument (dup2)
	Offset int64         // file offset (pread/pwrite/lseek/aio)
	Size   int64         // byte count (read/write/truncate)
	Flags  OpenFlag      // open flags
	Mode   uint32        // permission bits
	Name   Str           // xattr / attrlist name, fcntl op name
	Whence int32         // lseek whence
	Err    Str           // errno symbol ("ENOENT"); 0 (empty) on success
	AIO    int64         // aiocb identifier
	Ret    int64         // return value (fd, byte count, 0, or -1)
	Start  time.Duration // call entry time, relative to trace start
	End    time.Duration // call return time
}

// OK reports whether the call succeeded.
func (r *Record) OK() bool { return r.Err == 0 }

// Trace is a totally-ordered series of records plus the metadata needed
// to replay them.
type Trace struct {
	// Platform names the source system's syscall surface: "linux",
	// "osx", "freebsd", "illumos".
	Platform string
	// Records in trace order. Seq fields match indices.
	Records []Record
	// Strs is the string table the records' Str fields index. Strs[0]
	// is "" (a nil table reads as that one entry), and an entry, once
	// added, is never rewritten: a reader holding an earlier slice
	// header of the table sees every string it indexed unchanged.
	// Producers add strings through Intern.
	Strs []string

	// tab maps Strs back to indices; Intern builds it on first use, so a
	// decoded trace that is only read never hashes its strings. It
	// points back at this Trace, so a Trace that has interned is used
	// through its pointer, not copied.
	tab *Intern
}

// Str returns the string s names.
func (tr *Trace) Str(s Str) string {
	if s == 0 {
		return ""
	}
	return tr.Strs[s]
}

// Intern returns the Str naming s, adding a copy of s to the table on
// first sight. The argument may alias a reused buffer; the table never
// does.
func (tr *Trace) Intern(s string) Str { return tr.table().Str(s) }

// table returns the trace's interning table, indexing what Strs already
// holds the first time it is asked for.
func (tr *Trace) table() *Intern {
	if tr.tab == nil {
		if len(tr.Strs) == 0 {
			tr.Strs = append(tr.Strs[:0], "")
		}
		tr.tab = &Intern{tr: tr, ids: make(map[string]Str, len(tr.Strs))}
		for i := len(tr.Strs) - 1; i > 0; i-- {
			tr.tab.ids[tr.Strs[i]] = Str(i)
		}
	}
	return tr.tab
}

// Renumber rewrites Seq fields to match slice positions; parsers call it
// after assembling records from concurrent streams.
func (tr *Trace) Renumber() {
	for i := range tr.Records {
		tr.Records[i].Seq = int64(i)
	}
}

// Threads returns the distinct TIDs in first-appearance order.
func (tr *Trace) Threads() []int {
	seen := make(map[int32]bool)
	var out []int
	for i := range tr.Records {
		if tid := tr.Records[i].TID; !seen[tid] {
			seen[tid] = true
			out = append(out, int(tid))
		}
	}
	return out
}

// Duration returns the end time of the last-finishing call.
func (tr *Trace) Duration() time.Duration {
	var max time.Duration
	for i := range tr.Records {
		if e := tr.Records[i].End; e > max {
			max = e
		}
	}
	return max
}
