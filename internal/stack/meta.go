package stack

import (
	"rootreplay/internal/sim"
	"rootreplay/internal/trace"
	"rootreplay/internal/vfs"
)

// statCommon resolves path (optionally without following a final
// symlink), touching the inode's metadata block.
func (s *System) statCommon(t *sim.Thread, path string, follow bool) (*vfs.Inode, vfs.Errno) {
	t.Sleep(s.Conf.Profile.MetaCPU)
	var ino *vfs.Inode
	var err vfs.Errno
	if follow {
		ino, err = s.FS.Resolve(s.cwd, path)
	} else {
		ino, err = s.FS.ResolveNoFollow(s.cwd, path)
	}
	if err != vfs.OK {
		return nil, err
	}
	s.touchMeta(t, ino)
	return ino, vfs.OK
}

// Stat returns the size of the file at path (the model's stat result).
func (s *System) Stat(t *sim.Thread, path string) (int64, vfs.Errno) {
	enter := s.enter(t, OpStat)
	rec := &trace.Record{Path: path}
	ino, err := s.statCommon(t, path, true)
	if err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	return s.record(t, enter, rec, ino.Size, vfs.OK)
}

// Lstat is Stat without following a final symlink.
func (s *System) Lstat(t *sim.Thread, path string) (int64, vfs.Errno) {
	enter := s.enter(t, OpLstat)
	rec := &trace.Record{Path: path}
	ino, err := s.statCommon(t, path, false)
	if err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	return s.record(t, enter, rec, ino.Size, vfs.OK)
}

// Fstat stats an open descriptor.
func (s *System) Fstat(t *sim.Thread, fd int64) (int64, vfs.Errno) {
	enter := s.enter(t, OpFstat)
	rec := &trace.Record{FD: fd}
	f, err := s.fd(fd)
	if err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	return s.record(t, enter, rec, f.ino.Size, vfs.OK)
}

// Access checks for the existence of path (permission bits are not
// modelled, so any existing path is accessible).
func (s *System) Access(t *sim.Thread, path string, mode uint32) (int64, vfs.Errno) {
	enter := s.enter(t, OpAccess)
	rec := &trace.Record{Path: path, Mode: mode}
	if _, err := s.statCommon(t, path, true); err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	return s.record(t, enter, rec, 0, vfs.OK)
}

// Mkdir creates a directory.
func (s *System) Mkdir(t *sim.Thread, path string, mode uint32) (int64, vfs.Errno) {
	enter := s.enter(t, OpMkdir)
	rec := &trace.Record{Path: path, Mode: mode}
	t.Sleep(s.Conf.Profile.MetaCPU)
	if _, err := s.FS.Mkdir(s.cwd, path, mode); err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	return s.record(t, enter, rec, 0, vfs.OK)
}

// Rmdir removes an empty directory.
func (s *System) Rmdir(t *sim.Thread, path string) (int64, vfs.Errno) {
	enter := s.enter(t, OpRmdir)
	rec := &trace.Record{Path: path}
	t.Sleep(s.Conf.Profile.MetaCPU)
	if err := s.FS.Rmdir(s.cwd, path); err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	return s.record(t, enter, rec, 0, vfs.OK)
}

// Unlink removes a file name.
func (s *System) Unlink(t *sim.Thread, path string) (int64, vfs.Errno) {
	enter := s.enter(t, OpUnlink)
	rec := &trace.Record{Path: path}
	t.Sleep(s.Conf.Profile.MetaCPU)
	ino, _ := s.FS.ResolveNoFollow(s.cwd, path)
	if err := s.FS.Unlink(s.cwd, path); err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	if ino != nil && ino.Nlink == 0 && s.openCount[ino] == 0 {
		s.Cache.Drop(cacheID(ino))
	}
	return s.record(t, enter, rec, 0, vfs.OK)
}

// Rename moves a name, replacing any existing target.
func (s *System) Rename(t *sim.Thread, oldPath, newPath string) (int64, vfs.Errno) {
	enter := s.enter(t, OpRename)
	rec := &trace.Record{Path: oldPath, Path2: newPath}
	t.Sleep(s.Conf.Profile.MetaCPU)
	if err := s.FS.Rename(s.cwd, oldPath, newPath); err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	return s.record(t, enter, rec, 0, vfs.OK)
}

// Link creates a hard link.
func (s *System) Link(t *sim.Thread, oldPath, newPath string) (int64, vfs.Errno) {
	enter := s.enter(t, OpLink)
	rec := &trace.Record{Path: oldPath, Path2: newPath}
	t.Sleep(s.Conf.Profile.MetaCPU)
	if err := s.FS.Link(s.cwd, oldPath, newPath); err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	return s.record(t, enter, rec, 0, vfs.OK)
}

// Symlink creates a symbolic link at linkPath pointing to target.
func (s *System) Symlink(t *sim.Thread, target, linkPath string) (int64, vfs.Errno) {
	enter := s.enter(t, OpSymlink)
	rec := &trace.Record{Path: target, Path2: linkPath}
	t.Sleep(s.Conf.Profile.MetaCPU)
	if _, err := s.FS.Symlink(s.cwd, target, linkPath); err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	return s.record(t, enter, rec, 0, vfs.OK)
}

// Readlink reads a symlink target, returning its length.
func (s *System) Readlink(t *sim.Thread, path string) (int64, vfs.Errno) {
	enter := s.enter(t, OpReadlink)
	rec := &trace.Record{Path: path}
	t.Sleep(s.Conf.Profile.MetaCPU)
	target, err := s.FS.Readlink(s.cwd, path)
	if err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	return s.record(t, enter, rec, int64(len(target)), vfs.OK)
}

// Chmod sets permission bits.
func (s *System) Chmod(t *sim.Thread, path string, mode uint32) (int64, vfs.Errno) {
	enter := s.enter(t, OpChmod)
	rec := &trace.Record{Path: path, Mode: mode}
	ino, err := s.statCommon(t, path, true)
	if err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	ino.Mode = mode
	return s.record(t, enter, rec, 0, vfs.OK)
}

// Fchmod sets permission bits on an open descriptor.
func (s *System) Fchmod(t *sim.Thread, fd int64, mode uint32) (int64, vfs.Errno) {
	enter := s.enter(t, OpFchmod)
	rec := &trace.Record{FD: fd, Mode: mode}
	f, err := s.fd(fd)
	if err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	f.ino.Mode = mode
	return s.record(t, enter, rec, 0, vfs.OK)
}

// Chown is accepted and ignored (ownership is not modelled).
func (s *System) Chown(t *sim.Thread, path string) (int64, vfs.Errno) {
	enter := s.enter(t, OpChown)
	rec := &trace.Record{Path: path}
	if _, err := s.statCommon(t, path, true); err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	return s.record(t, enter, rec, 0, vfs.OK)
}

// Utimes is accepted and ignored (timestamps are not modelled).
func (s *System) Utimes(t *sim.Thread, path string) (int64, vfs.Errno) {
	enter := s.enter(t, OpUtimes)
	rec := &trace.Record{Path: path}
	if _, err := s.statCommon(t, path, true); err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	return s.record(t, enter, rec, 0, vfs.OK)
}

// Chdir changes the working directory.
func (s *System) Chdir(t *sim.Thread, path string) (int64, vfs.Errno) {
	enter := s.enter(t, OpChdir)
	rec := &trace.Record{Path: path}
	ino, err := s.statCommon(t, path, true)
	if err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	if !ino.IsDir() {
		return s.record(t, enter, rec, -1, vfs.ENOTDIR)
	}
	s.cwd = ino
	return s.record(t, enter, rec, 0, vfs.OK)
}

// Fchdir changes the working directory to an open descriptor's.
func (s *System) Fchdir(t *sim.Thread, fd int64) (int64, vfs.Errno) {
	enter := s.enter(t, OpFchdir)
	rec := &trace.Record{FD: fd}
	f, err := s.fd(fd)
	if err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	if !f.ino.IsDir() {
		return s.record(t, enter, rec, -1, vfs.ENOTDIR)
	}
	s.cwd = f.ino
	return s.record(t, enter, rec, 0, vfs.OK)
}

// Getdents reads up to count directory entries from an open directory
// descriptor, returning the number of entries delivered (0 at end).
func (s *System) Getdents(t *sim.Thread, fd, count int64) (int64, vfs.Errno) {
	enter := s.enter(t, OpGetdents)
	rec := &trace.Record{FD: fd, Size: count}
	f, err := s.fd(fd)
	if err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	if !f.isDir {
		return s.record(t, enter, rec, -1, vfs.ENOTDIR)
	}
	names := f.ino.Children()
	if f.dirPos >= len(names) {
		return s.record(t, enter, rec, 0, vfs.OK)
	}
	n := int(count)
	if n <= 0 || n > len(names)-f.dirPos {
		n = len(names) - f.dirPos
	}
	// Directory data costs one metadata block per 128 entries.
	blocks := int64(n/128 + 1)
	f.refs++ // the read may block, and a close meanwhile must not recycle f
	s.Cache.Read(t, 0, metaMapper, int64(f.ino.Ino), blocks)
	f.dirPos += n
	s.releaseDesc(f)
	return s.record(t, enter, rec, int64(n), vfs.OK)
}

// Statfs reports file-system information for path (modelled as a cheap
// metadata call).
func (s *System) Statfs(t *sim.Thread, path string) (int64, vfs.Errno) {
	enter := s.enter(t, OpStatfs)
	rec := &trace.Record{Path: path}
	if _, err := s.statCommon(t, path, true); err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	return s.record(t, enter, rec, 0, vfs.OK)
}

// Fstatfs is Statfs on an open descriptor.
func (s *System) Fstatfs(t *sim.Thread, fd int64) (int64, vfs.Errno) {
	enter := s.enter(t, OpFstatfs)
	rec := &trace.Record{FD: fd}
	if _, err := s.fd(fd); err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	return s.record(t, enter, rec, 0, vfs.OK)
}

// Getxattr reads an extended attribute, returning its length.
func (s *System) Getxattr(t *sim.Thread, path, name string, follow bool) (int64, vfs.Errno) {
	op := OpGetxattr
	if !follow {
		op = OpLgetxattr
	}
	enter := s.enter(t, op)
	rec := &trace.Record{Path: path, Name: name}
	ino, err := s.statCommon(t, path, follow)
	if err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	v, ok := ino.Xattrs[name]
	if !ok {
		return s.record(t, enter, rec, -1, vfs.ENODATA)
	}
	return s.record(t, enter, rec, int64(len(v)), vfs.OK)
}

// Setxattr writes an extended attribute of the given size.
func (s *System) Setxattr(t *sim.Thread, path, name string, size int64, follow bool) (int64, vfs.Errno) {
	op := OpSetxattr
	if !follow {
		op = OpLsetxattr
	}
	enter := s.enter(t, op)
	rec := &trace.Record{Path: path, Name: name, Size: size}
	ino, err := s.statCommon(t, path, follow)
	if err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	if ino.Xattrs == nil {
		ino.Xattrs = make(map[string][]byte)
	}
	ino.Xattrs[name] = make([]byte, size)
	return s.record(t, enter, rec, 0, vfs.OK)
}

// Listxattr lists attribute names, returning the byte length of the
// name list.
func (s *System) Listxattr(t *sim.Thread, path string, follow bool) (int64, vfs.Errno) {
	op := OpListxattr
	if !follow {
		op = OpLlistxattr
	}
	enter := s.enter(t, op)
	rec := &trace.Record{Path: path}
	ino, err := s.statCommon(t, path, follow)
	if err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	total := int64(0)
	for n := range ino.Xattrs {
		total += int64(len(n)) + 1
	}
	return s.record(t, enter, rec, total, vfs.OK)
}

// Removexattr removes an extended attribute.
func (s *System) Removexattr(t *sim.Thread, path, name string, follow bool) (int64, vfs.Errno) {
	op := OpRemovexattr
	if !follow {
		op = OpLremovexattr
	}
	enter := s.enter(t, op)
	rec := &trace.Record{Path: path, Name: name}
	ino, err := s.statCommon(t, path, follow)
	if err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	if _, ok := ino.Xattrs[name]; !ok {
		return s.record(t, enter, rec, -1, vfs.ENODATA)
	}
	delete(ino.Xattrs, name)
	return s.record(t, enter, rec, 0, vfs.OK)
}

// Fgetxattr / Fsetxattr / Flistxattr / Fremovexattr operate on an open
// descriptor.
func (s *System) Fgetxattr(t *sim.Thread, fd int64, name string) (int64, vfs.Errno) {
	enter := s.enter(t, OpFgetxattr)
	rec := &trace.Record{FD: fd, Name: name}
	f, err := s.fd(fd)
	if err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	v, ok := f.ino.Xattrs[name]
	if !ok {
		return s.record(t, enter, rec, -1, vfs.ENODATA)
	}
	return s.record(t, enter, rec, int64(len(v)), vfs.OK)
}

// Fsetxattr sets an attribute on an open descriptor.
func (s *System) Fsetxattr(t *sim.Thread, fd int64, name string, size int64) (int64, vfs.Errno) {
	enter := s.enter(t, OpFsetxattr)
	rec := &trace.Record{FD: fd, Name: name, Size: size}
	f, err := s.fd(fd)
	if err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	if f.ino.Xattrs == nil {
		f.ino.Xattrs = make(map[string][]byte)
	}
	f.ino.Xattrs[name] = make([]byte, size)
	return s.record(t, enter, rec, 0, vfs.OK)
}

// Flistxattr lists attributes on an open descriptor.
func (s *System) Flistxattr(t *sim.Thread, fd int64) (int64, vfs.Errno) {
	enter := s.enter(t, OpFlistxattr)
	rec := &trace.Record{FD: fd}
	f, err := s.fd(fd)
	if err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	total := int64(0)
	for n := range f.ino.Xattrs {
		total += int64(len(n)) + 1
	}
	return s.record(t, enter, rec, total, vfs.OK)
}

// Fremovexattr removes an attribute on an open descriptor.
func (s *System) Fremovexattr(t *sim.Thread, fd int64, name string) (int64, vfs.Errno) {
	enter := s.enter(t, OpFremovexattr)
	rec := &trace.Record{FD: fd, Name: name}
	f, err := s.fd(fd)
	if err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	if _, ok := f.ino.Xattrs[name]; !ok {
		return s.record(t, enter, rec, -1, vfs.ENODATA)
	}
	delete(f.ino.Xattrs, name)
	return s.record(t, enter, rec, 0, vfs.OK)
}

// Getattrlist is OS X's bulk metadata read (§4.3.4 counts it among the
// special metadata-access APIs). The model charges a stat.
func (s *System) Getattrlist(t *sim.Thread, path, attrs string) (int64, vfs.Errno) {
	enter := s.enter(t, OpGetattrlist)
	rec := &trace.Record{Path: path, Name: attrs}
	if _, err := s.statCommon(t, path, true); err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	return s.record(t, enter, rec, 0, vfs.OK)
}

// Setattrlist is OS X's bulk metadata write.
func (s *System) Setattrlist(t *sim.Thread, path, attrs string) (int64, vfs.Errno) {
	enter := s.enter(t, OpSetattrlist)
	rec := &trace.Record{Path: path, Name: attrs}
	if _, err := s.statCommon(t, path, true); err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	return s.record(t, enter, rec, 0, vfs.OK)
}

// Getdirentriesattr is OS X's combined readdir+getattrlist.
func (s *System) Getdirentriesattr(t *sim.Thread, fd, count int64) (int64, vfs.Errno) {
	enter := s.enter(t, OpGetdirentriesattr)
	rec := &trace.Record{FD: fd, Size: count}
	f, err := s.fd(fd)
	if err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	if !f.isDir {
		return s.record(t, enter, rec, -1, vfs.ENOTDIR)
	}
	names := f.ino.Children()
	if f.dirPos >= len(names) {
		return s.record(t, enter, rec, 0, vfs.OK)
	}
	n := int(count)
	if n <= 0 || n > len(names)-f.dirPos {
		n = len(names) - f.dirPos
	}
	// Bulk attr read touches each child's metadata block.
	f.refs++ // as in Getdents
	for _, name := range names[f.dirPos : f.dirPos+n] {
		child := f.ino.Lookup(name)
		if child != nil {
			s.touchMeta(t, child)
		}
	}
	f.dirPos += n
	s.releaseDesc(f)
	return s.record(t, enter, rec, int64(n), vfs.OK)
}

// Exchangedata is OS X's atomic file-content swap (§4.3.4).
func (s *System) Exchangedata(t *sim.Thread, pathA, pathB string) (int64, vfs.Errno) {
	enter := s.enter(t, OpExchangedata)
	rec := &trace.Record{Path: pathA, Path2: pathB}
	t.Sleep(s.Conf.Profile.MetaCPU)
	if err := s.FS.Exchange(s.cwd, pathA, pathB); err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	return s.record(t, enter, rec, 0, vfs.OK)
}

// Fsctl, Searchfs and Vfsconf model the three obscure, undocumented
// Mac OS X calls the paper emulates with small metadata accesses.
func (s *System) Fsctl(t *sim.Thread, path string) (int64, vfs.Errno) {
	enter := s.enter(t, OpFsctl)
	rec := &trace.Record{Path: path}
	if _, err := s.statCommon(t, path, true); err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	return s.record(t, enter, rec, 0, vfs.OK)
}

// Searchfs models OS X's catalog-search call as a directory metadata
// scan.
func (s *System) Searchfs(t *sim.Thread, path string) (int64, vfs.Errno) {
	enter := s.enter(t, OpSearchfs)
	rec := &trace.Record{Path: path}
	ino, err := s.statCommon(t, path, true)
	if err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	if ino.IsDir() {
		for _, name := range ino.Children() {
			if c := ino.Lookup(name); c != nil {
				s.touchMeta(t, c)
			}
		}
	}
	return s.record(t, enter, rec, 0, vfs.OK)
}

// Vfsconf models an undocumented metadata query as a cheap stat.
func (s *System) Vfsconf(t *sim.Thread, path string) (int64, vfs.Errno) {
	enter := s.enter(t, OpVfsconf)
	rec := &trace.Record{Path: path}
	if _, err := s.statCommon(t, path, true); err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	return s.record(t, enter, rec, 0, vfs.OK)
}
