package stack

import (
	"time"

	"rootreplay/internal/cache"
	"rootreplay/internal/sim"
	"rootreplay/internal/storage"
	"rootreplay/internal/trace"
	"rootreplay/internal/vfs"
)

// SpecialKind selects the behaviour of a special file (device node).
type SpecialKind int

// Special-file behaviours.
const (
	// SpecialNull completes reads and writes instantly (/dev/null).
	SpecialNull SpecialKind = iota
	// SpecialURandom is a fast nonblocking byte source (/dev/urandom,
	// and /dev/random on Mac OS X).
	SpecialURandom
	// SpecialRandomBlocking models Linux /dev/random with a depleted
	// entropy pool: reads are pathologically slow (the paper observed
	// tens of seconds for under a hundred bytes).
	SpecialRandomBlocking
)

// perByteCost returns the virtual time to read one byte.
func (k SpecialKind) perByteCost() time.Duration {
	switch k {
	case SpecialURandom:
		return 200 * time.Nanosecond
	case SpecialRandomBlocking:
		return 200 * time.Millisecond
	default:
		return 0
	}
}

// specialKinds is keyed by inode; set via SetupSpecial.
func (s *System) specialKind(ino *vfs.Inode) (SpecialKind, bool) {
	k, ok := ino.Sys.(SpecialKind)
	return k, ok
}

// Open opens path with flags, returning a new descriptor number.
func (s *System) Open(t *sim.Thread, path string, flags trace.OpenFlag, mode uint32) (int64, vfs.Errno) {
	enter := s.enter(t, OpOpen)
	rec := &trace.Record{Path: s.str(path), Flags: flags, Mode: mode}
	t.Sleep(s.Conf.Profile.MetaCPU)

	var ino *vfs.Inode
	var err vfs.Errno
	if flags&trace.OCreat != 0 {
		ino, _, err = s.FS.Create(s.cwd, path, mode, flags&trace.OExcl != 0)
	} else {
		ino, err = s.FS.Resolve(s.cwd, path)
	}
	if err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	if ino.IsDir() && flags.Access() != trace.ORdonly {
		return s.record(t, enter, rec, -1, vfs.EISDIR)
	}
	if flags&trace.ODir != 0 && !ino.IsDir() {
		return s.record(t, enter, rec, -1, vfs.ENOTDIR)
	}
	s.touchMeta(t, ino)
	if flags&trace.OTrunc != 0 && ino.Type == vfs.TypeRegular {
		s.FS.TruncateInode(ino, 0)
		s.Cache.Drop(cache.FileID(ino.Ino))
	}
	f := s.allocFD(ino, flags)
	f.isDir = ino.IsDir()
	return s.record(t, enter, rec, f.num, vfs.OK)
}

// Creat is open(path, O_WRONLY|O_CREAT|O_TRUNC, mode).
func (s *System) Creat(t *sim.Thread, path string, mode uint32) (int64, vfs.Errno) {
	return s.Open(t, path, trace.OWronly|trace.OCreat|trace.OTrunc, mode)
}

// Close closes a descriptor.
func (s *System) Close(t *sim.Thread, fd int64) (int64, vfs.Errno) {
	enter := s.enter(t, OpClose)
	rec := &trace.Record{FD: fd}
	if _, err := s.fd(fd); err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	s.closeFD(fd)
	return s.record(t, enter, rec, 0, vfs.OK)
}

// readCommon performs the data-path work shared by read/pread/aio reads:
// clamping to EOF, readahead, and blocking on the page cache. It returns
// the byte count actually read.
func (s *System) readCommon(t *sim.Thread, f *fdesc, off, size int64) int64 {
	ino := f.ino
	if kind, ok := s.specialKind(ino); ok {
		t.Sleep(time.Duration(size) * kind.perByteCost())
		return size
	}
	if off >= ino.Size {
		return 0
	}
	if off+size > ino.Size {
		size = ino.Size - off
	}
	if size <= 0 {
		return 0
	}
	startPage := off / storage.BlockSize
	endPage := (off + size - 1) / storage.BlockSize
	// Sequential detection doubles the readahead window up to the max;
	// a random access resets it.
	if startPage == f.lastPage || startPage == f.lastPage+1 {
		if f.raWindow == 0 {
			f.raWindow = 4
		} else {
			f.raWindow *= 2
			if f.raWindow > maxReadahead {
				f.raWindow = maxReadahead
			}
		}
	} else {
		f.raWindow = 0
	}
	f.lastPage = endPage
	// Fetch only when a requested page misses; then pull the readahead
	// window along in the same request. Fetching on every call would
	// degenerate streaming reads into one-page-ahead device requests.
	miss := false
	for i := startPage; i <= endPage; i++ {
		if !s.Cache.Contains(cache.FileID(ino.Ino), i) {
			miss = true
			break
		}
	}
	if miss {
		lastFilePage := (ino.Size - 1) / storage.BlockSize
		raEnd := endPage + f.raWindow
		if raEnd > lastFilePage {
			raEnd = lastFilePage
		}
		n := raEnd - startPage + 1
		m := s.mapperFor(ino, raEnd+1)
		s.Cache.Read(t, cache.FileID(ino.Ino), m, startPage, n)
	}
	t.Sleep(cache.HitLatency * time.Duration((endPage-startPage)+1))
	return size
}

// Read reads size bytes at the descriptor's offset.
func (s *System) Read(t *sim.Thread, fd, size int64) (int64, vfs.Errno) {
	enter := s.enter(t, OpRead)
	rec := &trace.Record{FD: fd, Size: size}
	f, err := s.fd(fd)
	if err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	if f.isDir {
		return s.record(t, enter, rec, -1, vfs.EISDIR)
	}
	f.refs++ // readCommon may block, and a close meanwhile must not recycle f
	n := s.readCommon(t, f, f.off, size)
	f.off += n
	s.releaseDesc(f)
	return s.record(t, enter, rec, n, vfs.OK)
}

// Pread reads size bytes at an explicit offset.
func (s *System) Pread(t *sim.Thread, fd, size, off int64) (int64, vfs.Errno) {
	enter := s.enter(t, OpPread)
	rec := &trace.Record{FD: fd, Size: size, Offset: off}
	f, err := s.fd(fd)
	if err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	if f.isDir {
		return s.record(t, enter, rec, -1, vfs.EISDIR)
	}
	if off < 0 {
		return s.record(t, enter, rec, -1, vfs.EINVAL)
	}
	n := s.readCommon(t, f, off, size)
	return s.record(t, enter, rec, n, vfs.OK)
}

// writeCommon dirties the affected pages and extends the file.
func (s *System) writeCommon(t *sim.Thread, f *fdesc, off, size int64) int64 {
	ino := f.ino
	if kind, ok := s.specialKind(ino); ok {
		_ = kind
		return size
	}
	if size <= 0 {
		return 0
	}
	startPage := off / storage.BlockSize
	endPage := (off + size - 1) / storage.BlockSize
	m := s.mapperFor(ino, endPage+1)
	s.Cache.Write(t, cache.FileID(ino.Ino), m, startPage, endPage-startPage+1)
	if off+size > ino.Size {
		ino.Size = off + size
	}
	t.Sleep(cache.HitLatency * time.Duration(endPage-startPage+1))
	return size
}

// Write writes size bytes at the descriptor's offset (or EOF with
// O_APPEND).
func (s *System) Write(t *sim.Thread, fd, size int64) (int64, vfs.Errno) {
	enter := s.enter(t, OpWrite)
	rec := &trace.Record{FD: fd, Size: size}
	f, err := s.fd(fd)
	if err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	if f.isDir {
		return s.record(t, enter, rec, -1, vfs.EISDIR)
	}
	if f.flags&trace.OAppend != 0 {
		f.off = f.ino.Size
	}
	f.refs++ // as in Read
	n := s.writeCommon(t, f, f.off, size)
	f.off += n
	s.releaseDesc(f)
	return s.record(t, enter, rec, n, vfs.OK)
}

// Pwrite writes size bytes at an explicit offset.
func (s *System) Pwrite(t *sim.Thread, fd, size, off int64) (int64, vfs.Errno) {
	enter := s.enter(t, OpPwrite)
	rec := &trace.Record{FD: fd, Size: size, Offset: off}
	f, err := s.fd(fd)
	if err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	if f.isDir {
		return s.record(t, enter, rec, -1, vfs.EISDIR)
	}
	if off < 0 {
		return s.record(t, enter, rec, -1, vfs.EINVAL)
	}
	n := s.writeCommon(t, f, off, size)
	return s.record(t, enter, rec, n, vfs.OK)
}

// Lseek whence values.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// Lseek repositions a descriptor's offset.
func (s *System) Lseek(t *sim.Thread, fd, off int64, whence int) (int64, vfs.Errno) {
	enter := s.enter(t, OpLseek)
	rec := &trace.Record{FD: fd, Offset: off, Whence: int32(whence)}
	f, err := s.fd(fd)
	if err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	var pos int64
	switch whence {
	case SeekSet:
		pos = off
	case SeekCur:
		pos = f.off + off
	case SeekEnd:
		pos = f.ino.Size + off
	default:
		return s.record(t, enter, rec, -1, vfs.EINVAL)
	}
	if pos < 0 {
		return s.record(t, enter, rec, -1, vfs.EINVAL)
	}
	f.off = pos
	return s.record(t, enter, rec, pos, vfs.OK)
}

// fsyncCommon implements the platform- and profile-dependent fsync data
// path. full forces a media barrier even on non-barrier (OS X) profiles.
func (s *System) fsyncCommon(t *sim.Thread, f *fdesc, full bool) {
	if s.Conf.Profile.OrderedData {
		s.Cache.SyncAll(t)
	} else {
		s.Cache.Sync(t, cache.FileID(f.ino.Ino))
	}
	if s.Conf.Profile.FsyncIsBarrier || full {
		s.journalCommit(t)
	}
}

// Fsync flushes a file's dirty pages. On Linux-semantics profiles this
// includes a journal commit (media barrier); on OS X the data merely
// reaches the device cache (§4.3.4).
func (s *System) Fsync(t *sim.Thread, fd int64) (int64, vfs.Errno) {
	enter := s.enter(t, OpFsync)
	rec := &trace.Record{FD: fd}
	f, err := s.fd(fd)
	if err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	s.fsyncCommon(t, f, false)
	return s.record(t, enter, rec, 0, vfs.OK)
}

// Fdatasync is fsync without the metadata commit cost.
func (s *System) Fdatasync(t *sim.Thread, fd int64) (int64, vfs.Errno) {
	enter := s.enter(t, OpFdatasync)
	rec := &trace.Record{FD: fd}
	f, err := s.fd(fd)
	if err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	if s.Conf.Profile.OrderedData {
		s.Cache.SyncAll(t)
	} else {
		s.Cache.Sync(t, cache.FileID(f.ino.Ino))
	}
	return s.record(t, enter, rec, 0, vfs.OK)
}

// SyncSys flushes the whole cache (sync(2)).
func (s *System) SyncSys(t *sim.Thread) (int64, vfs.Errno) {
	enter := s.enter(t, OpSync)
	rec := &trace.Record{}
	s.Cache.SyncAll(t)
	s.journalCommit(t)
	return s.record(t, enter, rec, 0, vfs.OK)
}

// Dup duplicates a descriptor to the lowest free number. The two
// numbers share one open file description (one offset), per POSIX.
func (s *System) Dup(t *sim.Thread, fd int64) (int64, vfs.Errno) {
	enter := s.enter(t, OpDup)
	rec := &trace.Record{FD: fd}
	f, err := s.fd(fd)
	if err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	n := s.lowestFreeFD()
	s.installFD(n, f)
	return s.record(t, enter, rec, n, vfs.OK)
}

// Dup2 duplicates fd onto fd2, closing fd2 first if open.
func (s *System) Dup2(t *sim.Thread, fd, fd2 int64) (int64, vfs.Errno) {
	enter := s.enter(t, OpDup2)
	rec := &trace.Record{FD: fd, FD2: fd2}
	f, err := s.fd(fd)
	if err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	if fd2 < 0 || fd2 >= maxFD {
		return s.record(t, enter, rec, -1, vfs.EBADF)
	}
	if fd == fd2 {
		return s.record(t, enter, rec, fd2, vfs.OK)
	}
	if _, open := s.fd(fd2); open == vfs.OK {
		s.closeFD(fd2)
	}
	s.installFD(fd2, f)
	return s.record(t, enter, rec, fd2, vfs.OK)
}

// Ftruncate sets the size of an open file.
func (s *System) Ftruncate(t *sim.Thread, fd, size int64) (int64, vfs.Errno) {
	enter := s.enter(t, OpFtruncate)
	rec := &trace.Record{FD: fd, Size: size}
	f, err := s.fd(fd)
	if err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	if e := s.FS.TruncateInode(f.ino, size); e != vfs.OK {
		return s.record(t, enter, rec, -1, e)
	}
	return s.record(t, enter, rec, 0, vfs.OK)
}

// Truncate sets the size of the file at path.
func (s *System) Truncate(t *sim.Thread, path string, size int64) (int64, vfs.Errno) {
	enter := s.enter(t, OpTruncate)
	rec := &trace.Record{Path: s.str(path), Size: size}
	t.Sleep(s.Conf.Profile.MetaCPU)
	if e := s.FS.Truncate(s.cwd, path, size); e != vfs.OK {
		return s.record(t, enter, rec, -1, e)
	}
	return s.record(t, enter, rec, 0, vfs.OK)
}

// Fcntl performs the descriptor controls the traces contain. op is the
// symbolic command name; the semantic subset the model implements:
// F_FULLFSYNC (OS X barrier), F_DUPFD, F_NOCACHE, F_RDADVISE,
// F_PREALLOCATE, F_GETFL/F_SETFL (no-ops).
func (s *System) Fcntl(t *sim.Thread, fd int64, op string, arg int64) (int64, vfs.Errno) {
	enter := s.enter(t, OpFcntl)
	rec := &trace.Record{FD: fd, Name: s.str(op), Offset: arg}
	f, err := s.fd(fd)
	if err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	switch op {
	case "F_FULLFSYNC":
		s.fsyncCommon(t, f, true)
		return s.record(t, enter, rec, 0, vfs.OK)
	case "F_DUPFD":
		n := s.lowestFreeFD()
		s.installFD(n, f)
		return s.record(t, enter, rec, n, vfs.OK)
	case "F_RDADVISE":
		// Prefetch hint: pull arg bytes from the current offset into the
		// cache asynchronously (modelled as charging nothing and warming
		// the pages in the background).
		s.prefetch(f, f.off, arg)
		return s.record(t, enter, rec, 0, vfs.OK)
	case "F_PREALLOCATE":
		pages := (arg + storage.BlockSize - 1) / storage.BlockSize
		s.placementOf(f.ino, pages)
		return s.record(t, enter, rec, 0, vfs.OK)
	case "F_NOCACHE", "F_GETFL", "F_SETFL", "F_GETFD", "F_SETFD", "F_GETLK", "F_SETLK", "F_GETPATH":
		return s.record(t, enter, rec, 0, vfs.OK)
	default:
		return s.record(t, enter, rec, -1, vfs.EINVAL)
	}
}

// prefetch warms pages [off, off+bytes) of f's file in the background.
func (s *System) prefetch(f *fdesc, off, bytes int64) {
	ino := f.ino
	if ino.Size == 0 || bytes <= 0 {
		return
	}
	if off >= ino.Size {
		return
	}
	if off+bytes > ino.Size {
		bytes = ino.Size - off
	}
	start := off / storage.BlockSize
	end := (off + bytes - 1) / storage.BlockSize
	m := s.mapperFor(ino, end+1)
	s.K.Spawn("prefetch", func(pt *sim.Thread) {
		s.Cache.Read(pt, cache.FileID(ino.Ino), m, start, end-start+1)
	})
}

// Fadvise implements posix_fadvise; WILLNEED prefetches, others are
// accepted and ignored.
func (s *System) Fadvise(t *sim.Thread, fd, off, length int64, advice string) (int64, vfs.Errno) {
	enter := s.enter(t, OpFadvise)
	rec := &trace.Record{FD: fd, Offset: off, Size: length, Name: s.str(advice)}
	f, err := s.fd(fd)
	if err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	if advice == "POSIX_FADV_WILLNEED" {
		s.prefetch(f, off, length)
	}
	return s.record(t, enter, rec, 0, vfs.OK)
}

// Fallocate preallocates blocks for an open file and extends its size.
func (s *System) Fallocate(t *sim.Thread, fd, off, length int64) (int64, vfs.Errno) {
	enter := s.enter(t, OpFallocate)
	rec := &trace.Record{FD: fd, Offset: off, Size: length}
	f, err := s.fd(fd)
	if err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	if off < 0 || length <= 0 {
		return s.record(t, enter, rec, -1, vfs.EINVAL)
	}
	pages := (off + length + storage.BlockSize - 1) / storage.BlockSize
	s.placementOf(f.ino, pages)
	if off+length > f.ino.Size {
		f.ino.Size = off + length
	}
	return s.record(t, enter, rec, 0, vfs.OK)
}

// Mmap models a file-backed mapping by faulting the mapped range into
// the cache. It returns a fake address (the aio/mapping counter).
func (s *System) Mmap(t *sim.Thread, fd, off, length int64) (int64, vfs.Errno) {
	enter := s.enter(t, OpMmap)
	rec := &trace.Record{FD: fd, Offset: off, Size: length}
	f, err := s.fd(fd)
	if err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	n := s.readCommon(t, f, off, length)
	_ = n
	s.nextAIO++
	return s.record(t, enter, rec, s.nextAIO, vfs.OK)
}

// Munmap unmaps (a no-op in the model beyond its CPU charge).
func (s *System) Munmap(t *sim.Thread, addr, length int64) (int64, vfs.Errno) {
	enter := s.enter(t, OpMunmap)
	rec := &trace.Record{Offset: addr, Size: length}
	return s.record(t, enter, rec, 0, vfs.OK)
}

// Msync flushes the whole cache for the mapped file; without tracking
// mappings the model conservatively syncs everything dirty.
func (s *System) Msync(t *sim.Thread, addr, length int64) (int64, vfs.Errno) {
	enter := s.enter(t, OpMsync)
	rec := &trace.Record{Offset: addr, Size: length}
	s.Cache.SyncAll(t)
	return s.record(t, enter, rec, 0, vfs.OK)
}
