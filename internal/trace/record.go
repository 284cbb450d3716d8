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

import (
	"fmt"
	"time"
)

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

// Record is one traced system call. It is a flat union over the calls
// the model supports; unused fields are zero. This mirrors ARTC's
// generated static tables of per-call structs.
type Record struct {
	Seq    int64         // position in the total order of the trace
	TID    int           // numeric ID of the issuing thread
	Call   string        // call name as traced, e.g. "open", "pread"
	Path   string        // first path argument
	Path2  string        // second path argument (rename, link, symlink target)
	FD     int64         // first fd argument, or fd return for open
	FD2    int64         // second fd argument (dup2)
	Offset int64         // file offset (pread/pwrite/lseek/aio)
	Size   int64         // byte count (read/write/truncate)
	Flags  OpenFlag      // open flags
	Mode   uint32        // permission bits
	Name   string        // xattr / attrlist name, fcntl op name
	Whence int           // lseek whence
	AIO    int64         // aiocb identifier
	Ret    int64         // return value (fd, byte count, 0, or -1)
	Err    string        // errno symbol ("ENOENT"); empty on success
	Start  time.Duration // call entry time, relative to trace start
	End    time.Duration // call return time
}

// OK reports whether the call succeeded.
func (r *Record) OK() bool { return r.Err == "" }

// String renders the record in the native one-line format (see
// encoding.go for the full grammar).
func (r *Record) String() string {
	return fmt.Sprintf("%d [T%d] %s ret=%d err=%s", r.Seq, r.TID, r.Call, r.Ret, r.Err)
}

// Trace is a totally-ordered series of records plus the metadata needed
// to replay them.
type Trace struct {
	// Platform names the source system's syscall surface: "linux",
	// "osx", "freebsd", "illumos".
	Platform string
	// Records in trace order. Seq fields match indices.
	Records []*Record

	// intern is the string table the records' Path/Call/Name/Err fields
	// were deduplicated through, when the trace came from the strace fast
	// path. May be nil for hand-built traces.
	intern *Intern
}

// Renumber rewrites Seq fields to match slice positions; parsers call it
// after assembling records from concurrent streams.
func (tr *Trace) Renumber() {
	for i, r := range tr.Records {
		r.Seq = int64(i)
	}
}

// Threads returns the distinct TIDs in first-appearance order.
func (tr *Trace) Threads() []int {
	seen := make(map[int]bool)
	var out []int
	for _, r := range tr.Records {
		if !seen[r.TID] {
			seen[r.TID] = true
			out = append(out, r.TID)
		}
	}
	return out
}

// Duration returns the end time of the last-finishing call.
func (tr *Trace) Duration() time.Duration {
	var max time.Duration
	for _, r := range tr.Records {
		if r.End > max {
			max = r.End
		}
	}
	return max
}
