package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"rootreplay/internal/vfs"
)

// ParseIBench parses the dtrace-generated format used by the iBench
// traces of Apple desktop applications (§4.3.1). Each line is one
// completed call:
//
//	entry return tid call ret errno args...
//
// where entry/return are epoch seconds with fractional digits (as
// dtrace's walltimestamp prints them), errno is the numeric error (0 on
// success), paths are double-quoted, and the remaining arguments are
// call-specific in the syscall's natural order, e.g.
//
//	1679588291.000100 1679588291.000130 5 open 3 0 "/a/b" 0x0002 0644
//	1679588291.000200 1679588291.000215 5 pread 4096 0 3 4096 8192
//	1679588291.000300 1679588291.000308 5 getattrlist 0 0 "/a/b"
//
// Timestamps are rebased so the earliest entry is zero. Unknown calls
// are skipped, mirroring ParseStrace.
func ParseIBench(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20) // grown on demand; lines stay capped at 1 MiB (TestLineLimit)
	tr := &Trace{Platform: "osx"}
	lineNo := 0
	base := int64(-1)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		toks, err := fields(line)
		if err != nil {
			return nil, &ParseError{Line: lineNo, Text: line, Msg: err.Error()}
		}
		if len(toks) < 6 {
			return nil, &ParseError{Line: lineNo, Text: line, Msg: "too few fields"}
		}
		entry, err := parseEpochNS(toks[0])
		if err != nil {
			return nil, &ParseError{Line: lineNo, Text: line, Msg: err.Error()}
		}
		ret, err2 := parseEpochNS(toks[1])
		if err2 != nil {
			return nil, &ParseError{Line: lineNo, Text: line, Msg: err2.Error()}
		}
		tid, err3 := strconv.Atoi(toks[2])
		if err3 != nil {
			return nil, &ParseError{Line: lineNo, Text: line, Msg: "bad tid"}
		}
		rec := &Record{TID: tid, Call: toks[3]}
		if rec.Ret, err = strconv.ParseInt(toks[4], 0, 64); err != nil {
			return nil, &ParseError{Line: lineNo, Text: line, Msg: "bad ret"}
		}
		errno, err4 := strconv.Atoi(toks[5])
		if err4 != nil {
			return nil, &ParseError{Line: lineNo, Text: line, Msg: "bad errno"}
		}
		if errno != 0 {
			rec.Err = vfs.Errno(errno).String()
			rec.Ret = -1
		}
		if base < 0 {
			base = entry
		}
		rec.Start = durationFromNS(entry - base)
		rec.End = durationFromNS(ret - base)
		if ok, err := assignIBenchArgs(rec, toks[6:]); err != nil {
			return nil, &ParseError{Line: lineNo, Text: line, Msg: err.Error()}
		} else if !ok {
			continue
		}
		tr.Records = append(tr.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	tr.Renumber()
	return tr, nil
}

func durationFromNS(ns int64) time.Duration { return time.Duration(ns) }

// assignIBenchArgs maps the call-specific argument list onto rec; the
// first result is false for calls the model does not handle.
func assignIBenchArgs(rec *Record, args []string) (bool, error) {
	q := func(i int) (string, error) {
		if i >= len(args) {
			return "", fmt.Errorf("%s: missing arg %d", rec.Call, i)
		}
		s, err := strconv.Unquote(args[i])
		if err != nil {
			return "", fmt.Errorf("%s: bad quoted arg %d", rec.Call, i)
		}
		return s, nil
	}
	n := func(i int) int64 {
		if i >= len(args) {
			return 0
		}
		v, _ := strconv.ParseInt(args[i], 0, 64)
		return v
	}
	var err error
	switch rec.Call {
	case "open", "open64", "creat", "guarded_open_np":
		if rec.Call == "guarded_open_np" {
			rec.Call = "open"
		}
		if rec.Path, err = q(0); err != nil {
			return false, err
		}
		rec.Flags = OpenFlag(n(1))
		rec.Mode = uint32(n(2))
		if rec.Ret > 0 {
			rec.FD = rec.Ret
		}
	case "close", "fsync", "fdatasync", "fstat", "fstat64", "fchdir", "fstatfs",
		"flistxattr", "getdirentries", "getdirentries64", "getdirentriesattr":
		rec.FD = n(0)
		if strings.HasPrefix(rec.Call, "getdirentries") {
			rec.Size = rec.Ret
		}
	case "read", "write":
		rec.FD = n(0)
		rec.Size = n(1)
	case "pread", "pwrite":
		rec.FD = n(0)
		rec.Size = n(1)
		rec.Offset = n(2)
	case "lseek":
		rec.FD = n(0)
		rec.Offset = n(1)
		rec.Whence = int(n(2))
	case "stat", "stat64", "lstat", "lstat64", "access", "readlink", "statfs",
		"rmdir", "unlink", "chdir", "getattrlist", "setattrlist", "searchfs",
		"fsctl", "vfsconf", "listxattr", "llistxattr", "pathconf":
		if rec.Call == "pathconf" {
			rec.Call = "access"
		}
		if rec.Path, err = q(0); err != nil {
			return false, err
		}
	case "mkdir", "chmod":
		if rec.Path, err = q(0); err != nil {
			return false, err
		}
		rec.Mode = uint32(n(1))
	case "rename", "link", "symlink", "exchangedata":
		if rec.Path, err = q(0); err != nil {
			return false, err
		}
		if rec.Path2, err = q(1); err != nil {
			return false, err
		}
	case "truncate":
		if rec.Path, err = q(0); err != nil {
			return false, err
		}
		rec.Size = n(1)
	case "ftruncate":
		rec.FD = n(0)
		rec.Size = n(1)
	case "dup":
		rec.FD = n(0)
	case "dup2":
		rec.FD = n(0)
		rec.FD2 = n(1)
	case "fcntl":
		rec.FD = n(0)
		op, err := q(1)
		if err != nil {
			return false, err
		}
		rec.Name = op
		rec.Offset = n(2)
	case "getxattr", "setxattr", "removexattr":
		if rec.Path, err = q(0); err != nil {
			return false, err
		}
		if rec.Name, err = q(1); err != nil {
			return false, err
		}
		if rec.Call == "setxattr" {
			rec.Size = n(2)
		}
	case "fgetxattr", "fsetxattr", "fremovexattr":
		rec.FD = n(0)
		if rec.Name, err = q(1); err != nil {
			return false, err
		}
		if rec.Call == "fsetxattr" {
			rec.Size = n(2)
		}
	case "aio_read", "aio_write":
		rec.FD = n(0)
		rec.Size = n(1)
		rec.Offset = n(2)
		if rec.Ret > 0 {
			rec.AIO = rec.Ret
		}
	case "aio_error", "aio_return", "aio_suspend":
		rec.AIO = n(0)
	case "mmap":
		fd := n(4)
		if fd < 0 {
			return false, nil
		}
		rec.FD = fd
		rec.Size = n(1)
		rec.Offset = n(5)
	case "munmap", "msync":
		rec.Offset = n(0)
		rec.Size = n(1)
	case "sync":
	default:
		return false, nil
	}
	return true, nil
}
