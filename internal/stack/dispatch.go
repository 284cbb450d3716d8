package stack

import (
	"rootreplay/internal/sim"
	"rootreplay/internal/trace"
	"rootreplay/internal/vfs"
)

// aliases maps traced call names (platform variants, 64-bit suffixes,
// *at forms) to the canonical names the dispatcher implements. Together
// with the canonical set this gives the model its 80+ supported calls.
var aliases = map[string]string{
	"open64":              "open",
	"openat":              "open",
	"creat64":             "creat",
	"stat64":              "stat",
	"statx":               "stat",
	"newfstatat":          "stat",
	"fstatat":             "stat",
	"lstat64":             "lstat",
	"fstat64":             "fstat",
	"pread64":             "pread",
	"pwrite64":            "pwrite",
	"preadv":              "pread",
	"pwritev":             "pwrite",
	"readv":               "read",
	"writev":              "write",
	"lseek64":             "lseek",
	"llseek":              "lseek",
	"_llseek":             "lseek",
	"truncate64":          "truncate",
	"ftruncate64":         "ftruncate",
	"mkdirat":             "mkdir",
	"unlinkat":            "unlink",
	"renameat":            "rename",
	"renameat2":           "rename",
	"linkat":              "link",
	"symlinkat":           "symlink",
	"readlinkat":          "readlink",
	"faccessat":           "access",
	"fchmodat":            "chmod",
	"fchownat":            "chown",
	"lchown":              "chown",
	"fchown":              "chown_fd",
	"utimensat":           "utimes",
	"futimes":             "utimes_fd",
	"utime":               "utimes",
	"getdents64":          "getdents",
	"getdirentries":       "getdents",
	"getdirentries64":     "getdents",
	"statfs64":            "statfs",
	"fstatfs64":           "fstatfs",
	"posix_fadvise":       "fadvise",
	"fadvise64":           "fadvise",
	"posix_fallocate":     "fallocate",
	"mmap2":               "mmap",
	"extattr_get_file":    "getxattr",
	"extattr_set_file":    "setxattr",
	"extattr_list_file":   "listxattr",
	"extattr_delete_file": "removexattr",
	"aio_read64":          "aio_read",
	"aio_write64":         "aio_write",
	"exchangedata64":      "exchangedata",
}

// Canonical returns the canonical name for a traced call.
func Canonical(call string) string {
	if c, ok := aliases[call]; ok {
		return c
	}
	return call
}

// Op is the dense opcode of a canonical call. The replayer resolves each
// distinct traced call name to its Op once, before replay starts, so
// dispatch, the native/emulated decision and the per-call statistics
// index arrays instead of hashing the name on every record.
type Op uint8

// Opcodes, one per canonical call; OpNone is a call outside the model.
const (
	OpNone Op = iota
	OpOpen
	OpCreat
	OpClose
	OpRead
	OpWrite
	OpPread
	OpPwrite
	OpLseek
	OpFsync
	OpFdatasync
	OpSync
	OpDup
	OpDup2
	OpFcntl
	OpFtruncate
	OpTruncate
	OpFadvise
	OpFallocate
	OpMmap
	OpMunmap
	OpMsync
	OpStat
	OpLstat
	OpFstat
	OpAccess
	OpMkdir
	OpRmdir
	OpUnlink
	OpRename
	OpLink
	OpSymlink
	OpReadlink
	OpChmod
	OpFchmod
	OpChown
	OpChownFD
	OpUtimes
	OpUtimesFD
	OpChdir
	OpFchdir
	OpGetdents
	OpStatfs
	OpFstatfs
	OpGetxattr
	OpLgetxattr
	OpSetxattr
	OpLsetxattr
	OpListxattr
	OpLlistxattr
	OpRemovexattr
	OpLremovexattr
	OpFgetxattr
	OpFsetxattr
	OpFlistxattr
	OpFremovexattr
	OpGetattrlist
	OpSetattrlist
	OpGetdirentriesattr
	OpExchangedata
	OpFsctl
	OpSearchfs
	OpVfsconf
	OpAioRead
	OpAioWrite
	OpAioError
	OpAioReturn
	OpAioSuspend

	numOps
)

// opNames maps each opcode to its canonical call name.
var opNames = [numOps]string{
	OpOpen:              "open",
	OpCreat:             "creat",
	OpClose:             "close",
	OpRead:              "read",
	OpWrite:             "write",
	OpPread:             "pread",
	OpPwrite:            "pwrite",
	OpLseek:             "lseek",
	OpFsync:             "fsync",
	OpFdatasync:         "fdatasync",
	OpSync:              "sync",
	OpDup:               "dup",
	OpDup2:              "dup2",
	OpFcntl:             "fcntl",
	OpFtruncate:         "ftruncate",
	OpTruncate:          "truncate",
	OpFadvise:           "fadvise",
	OpFallocate:         "fallocate",
	OpMmap:              "mmap",
	OpMunmap:            "munmap",
	OpMsync:             "msync",
	OpStat:              "stat",
	OpLstat:             "lstat",
	OpFstat:             "fstat",
	OpAccess:            "access",
	OpMkdir:             "mkdir",
	OpRmdir:             "rmdir",
	OpUnlink:            "unlink",
	OpRename:            "rename",
	OpLink:              "link",
	OpSymlink:           "symlink",
	OpReadlink:          "readlink",
	OpChmod:             "chmod",
	OpFchmod:            "fchmod",
	OpChown:             "chown",
	OpChownFD:           "chown_fd",
	OpUtimes:            "utimes",
	OpUtimesFD:          "utimes_fd",
	OpChdir:             "chdir",
	OpFchdir:            "fchdir",
	OpGetdents:          "getdents",
	OpStatfs:            "statfs",
	OpFstatfs:           "fstatfs",
	OpGetxattr:          "getxattr",
	OpLgetxattr:         "lgetxattr",
	OpSetxattr:          "setxattr",
	OpLsetxattr:         "lsetxattr",
	OpListxattr:         "listxattr",
	OpLlistxattr:        "llistxattr",
	OpRemovexattr:       "removexattr",
	OpLremovexattr:      "lremovexattr",
	OpFgetxattr:         "fgetxattr",
	OpFsetxattr:         "fsetxattr",
	OpFlistxattr:        "flistxattr",
	OpFremovexattr:      "fremovexattr",
	OpGetattrlist:       "getattrlist",
	OpSetattrlist:       "setattrlist",
	OpGetdirentriesattr: "getdirentriesattr",
	OpExchangedata:      "exchangedata",
	OpFsctl:             "fsctl",
	OpSearchfs:          "searchfs",
	OpVfsconf:           "vfsconf",
	OpAioRead:           "aio_read",
	OpAioWrite:          "aio_write",
	OpAioError:          "aio_error",
	OpAioReturn:         "aio_return",
	OpAioSuspend:        "aio_suspend",
}

// opByName resolves canonical names and their aliases to opcodes.
var opByName = func() map[string]Op {
	m := make(map[string]Op, int(numOps)+len(aliases))
	for op := OpNone + 1; op < numOps; op++ {
		m[opNames[op]] = op
	}
	for alias, canon := range aliases {
		m[alias] = m[canon]
	}
	return m
}()

// OpOf returns the opcode of a (possibly aliased) traced call name, or
// OpNone if the model does not implement it.
func OpOf(call string) Op { return opByName[call] }

// Native reports whether the call is part of the platform's native
// syscall surface; non-native calls must be emulated by the replayer
// (§4.3.4). A call outside the model counts as native: the replayer hands
// it to Apply, which answers ENOTSUP.
func Native(p Platform, op Op) bool {
	switch op {
	case OpGetattrlist, OpSetattrlist, OpGetdirentriesattr, OpExchangedata,
		OpFsctl, OpSearchfs, OpVfsconf:
		// The OS X-only surface.
		return p == OSX
	case OpFallocate:
		return p == Linux
	case OpFadvise:
		return p == Linux || p == FreeBSD || p == Illumos
	case OpGetxattr, OpLgetxattr, OpSetxattr, OpLsetxattr, OpListxattr,
		OpLlistxattr, OpRemovexattr, OpLremovexattr, OpFgetxattr,
		OpFsetxattr, OpFlistxattr, OpFremovexattr:
		// FreeBSD uses extattr_*; Illumos has no flat xattr calls.
		return p == Linux || p == OSX || p == FreeBSD
	}
	return true
}

// Redirect holds the arguments a replayer substitutes for the traced
// ones: paths (canonical, under the replay prefix) and the identifiers the
// target's kernel hands out (descriptor, AIO control block). They travel
// beside the record because the record itself is shared by every replay
// of its benchmark and must not be written.
type Redirect struct {
	Path, Path2 string
	FD, AIO     int64
}

// Apply executes call op against the system on behalf of thread t,
// returning the result: a's arguments where the replayer redirects them,
// rec's for the rest. rec.Call is not consulted.
func (s *System) Apply(t *sim.Thread, op Op, rec *trace.Record, a *Redirect) (int64, vfs.Errno) {
	switch op {
	case OpOpen:
		return s.Open(t, a.Path, rec.Flags, rec.Mode)
	case OpCreat:
		return s.Creat(t, a.Path, rec.Mode)
	case OpClose:
		return s.Close(t, a.FD)
	case OpRead:
		return s.Read(t, a.FD, rec.Size)
	case OpWrite:
		return s.Write(t, a.FD, rec.Size)
	case OpPread:
		return s.Pread(t, a.FD, rec.Size, rec.Offset)
	case OpPwrite:
		return s.Pwrite(t, a.FD, rec.Size, rec.Offset)
	case OpLseek:
		return s.Lseek(t, a.FD, rec.Offset, rec.Whence)
	case OpFsync:
		return s.Fsync(t, a.FD)
	case OpFdatasync:
		return s.Fdatasync(t, a.FD)
	case OpSync:
		return s.SyncSys(t)
	case OpDup:
		return s.Dup(t, a.FD)
	case OpDup2:
		return s.Dup2(t, a.FD, rec.FD2)
	case OpFcntl:
		return s.Fcntl(t, a.FD, rec.Name, rec.Offset)
	case OpFtruncate:
		return s.Ftruncate(t, a.FD, rec.Size)
	case OpTruncate:
		return s.Truncate(t, a.Path, rec.Size)
	case OpFadvise:
		return s.Fadvise(t, a.FD, rec.Offset, rec.Size, rec.Name)
	case OpFallocate:
		return s.Fallocate(t, a.FD, rec.Offset, rec.Size)
	case OpMmap:
		return s.Mmap(t, a.FD, rec.Offset, rec.Size)
	case OpMunmap:
		return s.Munmap(t, rec.Offset, rec.Size)
	case OpMsync:
		return s.Msync(t, rec.Offset, rec.Size)
	case OpStat:
		return s.Stat(t, a.Path)
	case OpLstat:
		return s.Lstat(t, a.Path)
	case OpFstat:
		return s.Fstat(t, a.FD)
	case OpAccess:
		return s.Access(t, a.Path, rec.Mode)
	case OpMkdir:
		return s.Mkdir(t, a.Path, rec.Mode)
	case OpRmdir:
		return s.Rmdir(t, a.Path)
	case OpUnlink:
		return s.Unlink(t, a.Path)
	case OpRename:
		return s.Rename(t, a.Path, a.Path2)
	case OpLink:
		return s.Link(t, a.Path, a.Path2)
	case OpSymlink:
		return s.Symlink(t, a.Path, a.Path2)
	case OpReadlink:
		return s.Readlink(t, a.Path)
	case OpChmod:
		return s.Chmod(t, a.Path, rec.Mode)
	case OpFchmod:
		return s.Fchmod(t, a.FD, rec.Mode)
	case OpChown:
		return s.Chown(t, a.Path)
	case OpChownFD:
		if _, err := s.fd(a.FD); err != vfs.OK {
			return -1, err
		}
		return 0, vfs.OK
	case OpUtimes:
		return s.Utimes(t, a.Path)
	case OpUtimesFD:
		if _, err := s.fd(a.FD); err != vfs.OK {
			return -1, err
		}
		return 0, vfs.OK
	case OpChdir:
		return s.Chdir(t, a.Path)
	case OpFchdir:
		return s.Fchdir(t, a.FD)
	case OpGetdents:
		return s.Getdents(t, a.FD, rec.Size)
	case OpStatfs:
		return s.Statfs(t, a.Path)
	case OpFstatfs:
		return s.Fstatfs(t, a.FD)
	case OpGetxattr:
		return s.Getxattr(t, a.Path, rec.Name, true)
	case OpLgetxattr:
		return s.Getxattr(t, a.Path, rec.Name, false)
	case OpSetxattr:
		return s.Setxattr(t, a.Path, rec.Name, rec.Size, true)
	case OpLsetxattr:
		return s.Setxattr(t, a.Path, rec.Name, rec.Size, false)
	case OpListxattr:
		return s.Listxattr(t, a.Path, true)
	case OpLlistxattr:
		return s.Listxattr(t, a.Path, false)
	case OpRemovexattr:
		return s.Removexattr(t, a.Path, rec.Name, true)
	case OpLremovexattr:
		return s.Removexattr(t, a.Path, rec.Name, false)
	case OpFgetxattr:
		return s.Fgetxattr(t, a.FD, rec.Name)
	case OpFsetxattr:
		return s.Fsetxattr(t, a.FD, rec.Name, rec.Size)
	case OpFlistxattr:
		return s.Flistxattr(t, a.FD)
	case OpFremovexattr:
		return s.Fremovexattr(t, a.FD, rec.Name)
	case OpGetattrlist:
		return s.Getattrlist(t, a.Path, rec.Name)
	case OpSetattrlist:
		return s.Setattrlist(t, a.Path, rec.Name)
	case OpGetdirentriesattr:
		return s.Getdirentriesattr(t, a.FD, rec.Size)
	case OpExchangedata:
		return s.Exchangedata(t, a.Path, a.Path2)
	case OpFsctl:
		return s.Fsctl(t, a.Path)
	case OpSearchfs:
		return s.Searchfs(t, a.Path)
	case OpVfsconf:
		return s.Vfsconf(t, a.Path)
	case OpAioRead:
		return s.AioRead(t, a.FD, rec.Size, rec.Offset)
	case OpAioWrite:
		return s.AioWrite(t, a.FD, rec.Size, rec.Offset)
	case OpAioError:
		return s.AioError(t, a.AIO)
	case OpAioReturn:
		return s.AioReturn(t, a.AIO)
	case OpAioSuspend:
		return s.AioSuspend(t, a.AIO)
	default:
		return -1, vfs.ENOTSUP
	}
}
