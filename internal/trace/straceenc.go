package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// straceEpochBase is the epoch second the first record is pinned to
// when a trace is rendered back to strace text. Any fixed value works —
// the parser rebases against the first timestamp — so a recognizably
// fake-but-plausible one is used.
const straceEpochBase int64 = 1700000000 * int64(time.Second)

// EncodeStrace renders the trace as `strace -f -ttt -T` text that
// ParseStrace (and parseStraceReference) accept. It is the source of
// synthetic strace corpora: tracegen uses it for `-format strace`, and
// the ingest CI lane and parser benchmarks feed its output to both
// parsers.
//
// Timestamps are written with nanosecond precision so the re-parsed
// Start times match exactly. A record whose [Start, End) window
// contains another record's start is split into an `<unfinished ...>` /
// `<... resumed>` pair, the way strace renders calls that were
// interrupted by another thread's output — this is what exercises the
// parsers' pending-call machinery on generated corpora. Records of one
// TID must not overlap each other (true of any trace that came from a
// parser), or the per-TID resumption pairing is ambiguous.
//
// Calls outside the model's syscall set are rendered as `name()`, which
// parsers skip; re-parsing such a trace drops those records.
func EncodeStrace(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	type line struct {
		at   time.Duration
		kind int // 0 = resumed (ends sort first at equal times), 1 = start/full
		seq  int
		rec  *Record
	}
	recs := tr.Records
	var lines []line
	split := make(map[int]bool)
	// Sorted starts let the split check binary-search instead of
	// scanning all records per record.
	starts := make([]time.Duration, 0, len(recs))
	for i := range recs {
		starts = append(starts, recs[i].Start)
	}
	sort.Slice(starts, func(a, b int) bool { return starts[a] < starts[b] })
	for i := range recs {
		r := &recs[i]
		// Split if any start falls strictly inside (Start, End).
		j := sort.Search(len(starts), func(k int) bool { return starts[k] > r.Start })
		if j < len(starts) && starts[j] < r.End {
			split[i] = true
			lines = append(lines, line{r.Start, 1, i, r}, line{r.End, 0, i, r})
		} else {
			lines = append(lines, line{r.Start, 1, i, r})
		}
	}
	sort.Slice(lines, func(a, b int) bool {
		la, lb := lines[a], lines[b]
		if la.at != lb.at {
			return la.at < lb.at
		}
		if la.kind != lb.kind {
			return la.kind < lb.kind
		}
		return la.seq < lb.seq
	})
	for _, l := range lines {
		r := l.rec
		ts := straceEpochBase + int64(l.at)
		fmt.Fprintf(bw, "%d %d.%09d ", r.TID, ts/int64(time.Second), ts%int64(time.Second))
		if l.kind == 0 {
			fmt.Fprintf(bw, "<... %s resumed>) ", straceCallName(tr, r))
			writeStraceResult(bw, tr, r)
			bw.WriteByte('\n')
			continue
		}
		fmt.Fprintf(bw, "%s(", straceCallName(tr, r))
		writeStraceArgs(bw, tr, r)
		if split[l.seq] {
			bw.WriteString(" <unfinished ...>\n")
			continue
		}
		bw.WriteString(") ")
		writeStraceResult(bw, tr, r)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// straceCallName maps a record's canonical call name back to a spelling
// the parser's case list accepts ("fadvise" is only parsed from its
// fadvise64/posix_fadvise spellings).
func straceCallName(tr *Trace, r *Record) string {
	if c := tr.Str(r.Call); c != "fadvise" {
		return c
	}
	return "fadvise64"
}

// writeStraceResult renders "= ret [ERR (desc)] <dur>".
func writeStraceResult(w *bufio.Writer, tr *Trace, r *Record) {
	fmt.Fprintf(w, "= %d", r.Ret)
	if r.Err != 0 && r.Ret == -1 {
		fmt.Fprintf(w, " %s (replayed error)", tr.Str(r.Err))
	}
	d := r.End - r.Start
	if d < 0 {
		d = 0
	}
	fmt.Fprintf(w, " <%s>", straceDur(d))
}

// straceDur renders a duration as the parser reads it back exactly. The
// parser (matching the original) computes time.Duration(ParseFloat(s) *
// 1e9), which truncates — "0.000498000" comes back as 497999ns — so a
// naive rendering is not idempotent. Search the neighbouring decimal
// strings for one whose float truncation lands on d.
func straceDur(d time.Duration) string {
	render := func(v int64) string {
		return fmt.Sprintf("%d.%09d", v/int64(time.Second), v%int64(time.Second))
	}
	for delta := int64(0); delta < 1024; delta++ {
		for _, v := range [2]int64{int64(d) + delta, int64(d) - delta} {
			if v < 0 {
				continue
			}
			s := render(v)
			secs, _ := strconv.ParseFloat(s, 64)
			if time.Duration(secs*float64(time.Second)) == d {
				return s
			}
			if delta == 0 {
				break
			}
		}
	}
	return render(int64(d))
}

// writeStraceArgs renders the argument list for each supported call,
// inverting assignStraceArgs' positional mapping.
func writeStraceArgs(w *bufio.Writer, tr *Trace, r *Record) {
	q := func(s Str) string { return strconv.Quote(tr.Str(s)) }
	switch tr.Str(r.Call) {
	case "open", "open64":
		fmt.Fprintf(w, "%s, %s, %#o", q(r.Path), r.Flags, r.Mode)
	case "openat":
		fmt.Fprintf(w, "AT_FDCWD, %s, %s, %#o", q(r.Path), r.Flags, r.Mode)
	case "creat":
		fmt.Fprintf(w, "%s, %#o", q(r.Path), r.Mode)
	case "close", "fsync", "fdatasync", "fstat", "fstat64", "fchdir", "fstatfs", "flistxattr", "dup":
		fmt.Fprintf(w, "%d", r.FD)
	case "read", "write":
		fmt.Fprintf(w, "%d, \"\"..., %d", r.FD, r.Size)
	case "pread", "pread64", "pwrite", "pwrite64":
		fmt.Fprintf(w, "%d, \"\"..., %d, %d", r.FD, r.Size, r.Offset)
	case "lseek", "_llseek", "llseek":
		whence := "SEEK_SET"
		switch r.Whence {
		case 1:
			whence = "SEEK_CUR"
		case 2:
			whence = "SEEK_END"
		}
		fmt.Fprintf(w, "%d, %d, %s", r.FD, r.Offset, whence)
	case "stat", "stat64", "lstat", "lstat64", "access", "readlink", "statfs", "statfs64",
		"rmdir", "unlink", "chdir", "listxattr", "llistxattr":
		w.WriteString(q(r.Path))
	case "unlinkat":
		fmt.Fprintf(w, "AT_FDCWD, %s, 0", q(r.Path))
	case "mkdir", "chmod":
		fmt.Fprintf(w, "%s, %#o", q(r.Path), r.Mode)
	case "rename", "link", "symlink":
		fmt.Fprintf(w, "%s, %s", q(r.Path), q(r.Path2))
	case "renameat", "renameat2", "linkat", "symlinkat":
		fmt.Fprintf(w, "AT_FDCWD, %s, AT_FDCWD, %s", q(r.Path), q(r.Path2))
	case "truncate":
		fmt.Fprintf(w, "%s, %d", q(r.Path), r.Size)
	case "ftruncate", "ftruncate64":
		fmt.Fprintf(w, "%d, %d", r.FD, r.Size)
	case "dup2", "dup3":
		fmt.Fprintf(w, "%d, %d", r.FD, r.FD2)
	case "fcntl", "fcntl64":
		fmt.Fprintf(w, "%d, %s", r.FD, tr.Str(r.Name))
		if r.Offset != 0 {
			fmt.Fprintf(w, ", %d", r.Offset)
		}
	case "getdents", "getdents64", "getdirentries":
		fmt.Fprintf(w, "%d", r.FD)
	case "getxattr", "lgetxattr", "removexattr", "lremovexattr":
		fmt.Fprintf(w, "%s, %s", q(r.Path), q(r.Name))
	case "setxattr", "lsetxattr":
		fmt.Fprintf(w, "%s, %s, \"\"..., %d, 0", q(r.Path), q(r.Name), r.Size)
	case "fgetxattr", "fremovexattr":
		fmt.Fprintf(w, "%d, %s", r.FD, q(r.Name))
	case "fsetxattr":
		fmt.Fprintf(w, "%d, %s, \"\"..., %d, 0", r.FD, q(r.Name), r.Size)
	case "fadvise", "fadvise64", "posix_fadvise":
		fmt.Fprintf(w, "%d, %d, %d, %s", r.FD, r.Offset, r.Size, tr.Str(r.Name))
	case "fallocate":
		fmt.Fprintf(w, "%d, 0, %d, %d", r.FD, r.Offset, r.Size)
	case "mmap", "mmap2":
		fmt.Fprintf(w, "NULL, %d, PROT_READ, MAP_SHARED, %d, %d", r.Size, r.FD, r.Offset)
	case "munmap", "msync":
		fmt.Fprintf(w, "%d, %d", r.Offset, r.Size)
	case "sync":
	default:
		// Unsupported by the model; parsers will skip the line.
	}
}
