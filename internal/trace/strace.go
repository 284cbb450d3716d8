package trace

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// straceMaxLine caps a single strace line. A large `write` payload
// rendered with a generous strace -s easily exceeds bufio.Scanner's
// 64 KiB default — and the 1 MiB cap this parser used to set — so the
// limit is generous; a var rather than a const so the overflow error
// path stays testable without a 16 MiB fixture.
var straceMaxLine = 16 << 20

// ParseStrace parses the output of `strace -f -ttt -T`, the standard
// UNIX tracing tool ARTC supports for ease of benchmark creation (§4.1).
// Expected line shapes:
//
//	1234 1679588291.123456 open("/a/b", O_RDONLY|O_CREAT, 0644) = 3 <0.000012>
//	1234 1679588291.123456 read(3, "data"..., 4096) = 4096 <0.000040>
//	1234 1679588291.123456 stat("/x", {st_mode=S_IFREG|0644, ...}) = -1 ENOENT (No such file) <0.000008>
//	1234 1679588291.123456 write(5, ... <unfinished ...>
//	1234 1679588291.125000 <... write resumed>) = 512 <0.001544>
//
// Unrecognized calls are skipped (strace traces far more than file I/O).
// Timestamps are rebased so the earliest call starts at zero.
//
// ParseStrace is the zero-copy fast path (strace_fast.go); the original
// line-at-a-time parser lives on as parseStraceReference in
// strace_reference_test.go, the semantic oracle the golden and fuzz
// tests compare against. For overlapping the parse with compilation
// see ParseStraceStream.
func ParseStrace(r io.Reader) (*Trace, error) {
	return parseStraceFast(r)
}

// parseEpochNS parses "1679588291.000400" into nanoseconds exactly.
func parseEpochNS(s string) (int64, error) {
	secS, fracS, _ := strings.Cut(s, ".")
	secs, err := strconv.ParseInt(secS, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad timestamp %q", s)
	}
	ns := secs * int64(time.Second)
	if fracS != "" {
		if len(fracS) > 9 {
			fracS = fracS[:9]
		}
		frac, err := strconv.ParseInt(fracS, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad timestamp %q", s)
		}
		for i := len(fracS); i < 9; i++ {
			frac *= 10
		}
		ns += frac
	}
	return ns, nil
}

var errSkipCall = fmt.Errorf("call not modelled")

func unquoteStrace(s string) string {
	s = strings.TrimSuffix(s, "...")
	if u, err := strconv.Unquote(s); err == nil {
		return u
	}
	return s
}

func parseIntArg(s string) int64 {
	s = strings.TrimSpace(s)
	// strace may annotate fds like "3</path/to/file>".
	if i := strings.IndexByte(s, '<'); i > 0 {
		s = s[:i]
	}
	// Plain decimals (almost every fd/size/offset) skip ParseInt's
	// base-0 machinery; the gate in parseRetTok keeps octal/hex/"0x"
	// spellings on the strconv path.
	if n, ok := parseRetTok(s); ok {
		return n
	}
	n, _ := strconv.ParseInt(s, 0, 64)
	return n
}

// parseOpenFlags converts "O_RDWR|O_CREAT" to bits. It scans '|'-
// separated byte ranges in place — no strings.Split slice, no per-token
// substring allocation — and resolves each token through the compiler's
// string-switch (a hash/compare tree, effectively a perfect hash over
// the known flag names). Composite sets are additionally cached per
// trace by Intern.openFlags.
func parseOpenFlags(s string) OpenFlag {
	var f OpenFlag
	for start := 0; start <= len(s); {
		end := strings.IndexByte(s[start:], '|')
		if end < 0 {
			end = len(s)
		} else {
			end += start
		}
		switch strings.TrimSpace(s[start:end]) {
		case "O_RDONLY":
		case "O_WRONLY":
			f |= OWronly
		case "O_RDWR":
			f |= ORdwr
		case "O_CREAT":
			f |= OCreat
		case "O_EXCL":
			f |= OExcl
		case "O_TRUNC":
			f |= OTrunc
		case "O_APPEND":
			f |= OAppend
		case "O_NONBLOCK", "O_NDELAY":
			f |= ONonblock
		case "O_DIRECTORY":
			f |= ODir
		case "O_NOFOLLOW":
			f |= ONofollow
		case "O_SYNC", "O_FSYNC":
			f |= OSync
		}
		start = end + 1
	}
	return f
}

// assignStraceArgs maps positional strace arguments onto Record fields
// for each supported call. It is shared by the reference parser and the
// zero-copy fast path: with a nil intern table retained strings are
// stored as-is (the reference parser's lines are already durable
// copies); with a table, every retained string — paths, xattr names,
// fcntl op names — is interned, which both deduplicates storage and
// severs any aliasing of the lexer's reusable line buffer.
func assignStraceArgs(rec *Record, name string, args []string, tab *Intern) error {
	need := func(n int) error {
		if len(args) < n {
			return fmt.Errorf("%s: want >=%d args, have %d", name, n, len(args))
		}
		return nil
	}
	switch name {
	case "open", "open64":
		if err := need(2); err != nil {
			return err
		}
		rec.Path = tab.str(unquoteStrace(args[0]))
		rec.Flags = tab.openFlags(args[1])
		if len(args) > 2 {
			rec.Mode = uint32(parseIntArg(args[2]))
		}
		if rec.Ret > 0 {
			rec.FD = rec.Ret
		}
	case "openat":
		if err := need(3); err != nil {
			return err
		}
		rec.Path = tab.str(unquoteStrace(args[1]))
		rec.Flags = tab.openFlags(args[2])
		if len(args) > 3 {
			rec.Mode = uint32(parseIntArg(args[3]))
		}
		if rec.Ret > 0 {
			rec.FD = rec.Ret
		}
	case "creat":
		if err := need(2); err != nil {
			return err
		}
		rec.Path = tab.str(unquoteStrace(args[0]))
		rec.Mode = uint32(parseIntArg(args[1]))
	case "close", "fsync", "fdatasync", "fstat", "fstat64", "fchdir", "fstatfs", "flistxattr":
		if err := need(1); err != nil {
			return err
		}
		rec.FD = parseIntArg(args[0])
	case "read", "write":
		if err := need(3); err != nil {
			return err
		}
		rec.FD = parseIntArg(args[0])
		rec.Size = parseIntArg(args[2])
	case "pread", "pread64", "pwrite", "pwrite64":
		if err := need(4); err != nil {
			return err
		}
		rec.FD = parseIntArg(args[0])
		rec.Size = parseIntArg(args[2])
		rec.Offset = parseIntArg(args[3])
	case "lseek", "_llseek", "llseek":
		if err := need(3); err != nil {
			return err
		}
		rec.FD = parseIntArg(args[0])
		rec.Offset = parseIntArg(args[1])
		switch strings.TrimSpace(args[2]) {
		case "SEEK_SET":
			rec.Whence = 0
		case "SEEK_CUR":
			rec.Whence = 1
		case "SEEK_END":
			rec.Whence = 2
		}
	case "stat", "stat64", "lstat", "lstat64", "access", "readlink", "statfs", "statfs64",
		"rmdir", "unlink", "chdir", "listxattr", "llistxattr":
		if err := need(1); err != nil {
			return err
		}
		rec.Path = tab.str(unquoteStrace(args[0]))
	case "unlinkat":
		if err := need(2); err != nil {
			return err
		}
		rec.Path = tab.str(unquoteStrace(args[1]))
	case "mkdir", "chmod":
		if err := need(2); err != nil {
			return err
		}
		rec.Path = tab.str(unquoteStrace(args[0]))
		rec.Mode = uint32(parseIntArg(args[1]))
	case "rename", "link", "symlink":
		if err := need(2); err != nil {
			return err
		}
		rec.Path = tab.str(unquoteStrace(args[0]))
		rec.Path2 = tab.str(unquoteStrace(args[1]))
	case "renameat", "renameat2", "linkat", "symlinkat":
		if err := need(4); err != nil {
			return err
		}
		rec.Path = tab.str(unquoteStrace(args[1]))
		rec.Path2 = tab.str(unquoteStrace(args[3]))
	case "truncate":
		if err := need(2); err != nil {
			return err
		}
		rec.Path = tab.str(unquoteStrace(args[0]))
		rec.Size = parseIntArg(args[1])
	case "ftruncate", "ftruncate64":
		if err := need(2); err != nil {
			return err
		}
		rec.FD = parseIntArg(args[0])
		rec.Size = parseIntArg(args[1])
	case "dup":
		if err := need(1); err != nil {
			return err
		}
		rec.FD = parseIntArg(args[0])
	case "dup2", "dup3":
		if err := need(2); err != nil {
			return err
		}
		rec.FD = parseIntArg(args[0])
		rec.FD2 = parseIntArg(args[1])
	case "fcntl", "fcntl64":
		if err := need(2); err != nil {
			return err
		}
		rec.Call = "fcntl"
		rec.FD = parseIntArg(args[0])
		rec.Name = tab.str(strings.TrimSpace(args[1]))
		if len(args) > 2 {
			rec.Offset = parseIntArg(args[2])
		}
	case "getdents", "getdents64", "getdirentries":
		if err := need(1); err != nil {
			return err
		}
		rec.FD = parseIntArg(args[0])
		rec.Size = rec.Ret
	case "getxattr", "lgetxattr", "setxattr", "lsetxattr", "removexattr", "lremovexattr":
		if err := need(2); err != nil {
			return err
		}
		rec.Path = tab.str(unquoteStrace(args[0]))
		rec.Name = tab.str(unquoteStrace(args[1]))
		if strings.HasPrefix(name, "setxattr") || strings.HasPrefix(name, "lsetxattr") {
			if len(args) > 3 {
				rec.Size = parseIntArg(args[3])
			}
		}
	case "fgetxattr", "fsetxattr", "fremovexattr":
		if err := need(2); err != nil {
			return err
		}
		rec.FD = parseIntArg(args[0])
		rec.Name = tab.str(unquoteStrace(args[1]))
		if name == "fsetxattr" && len(args) > 3 {
			rec.Size = parseIntArg(args[3])
		}
	case "fadvise64", "posix_fadvise":
		if err := need(4); err != nil {
			return err
		}
		rec.Call = "fadvise"
		rec.FD = parseIntArg(args[0])
		rec.Offset = parseIntArg(args[1])
		rec.Size = parseIntArg(args[2])
		rec.Name = tab.str(strings.TrimSpace(args[3]))
	case "fallocate":
		if err := need(4); err != nil {
			return err
		}
		rec.FD = parseIntArg(args[0])
		rec.Offset = parseIntArg(args[2])
		rec.Size = parseIntArg(args[3])
	case "mmap", "mmap2":
		if err := need(6); err != nil {
			return err
		}
		// mmap(addr, length, prot, flags, fd, offset); anonymous
		// mappings are not file I/O.
		fd := parseIntArg(args[4])
		if fd < 0 {
			return errSkipCall
		}
		rec.Call = "mmap"
		rec.FD = fd
		rec.Size = parseIntArg(args[1])
		rec.Offset = parseIntArg(args[5])
	case "munmap":
		if err := need(2); err != nil {
			return err
		}
		rec.Offset = parseIntArg(args[0])
		rec.Size = parseIntArg(args[1])
	case "msync":
		if err := need(2); err != nil {
			return err
		}
		rec.Offset = parseIntArg(args[0])
		rec.Size = parseIntArg(args[1])
	case "sync":
	default:
		return errSkipCall
	}
	return nil
}
