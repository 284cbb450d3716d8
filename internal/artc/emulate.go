package artc

import (
	"rootreplay/internal/sim"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
	"rootreplay/internal/vfs"
)

// applyWithEmulation executes one record, with the replayer's redirected
// arguments, on the target system, emulating source-platform calls the target lacks with the
// closest available equivalents (§4.3.4). It returns the primary
// operation's result and whether emulation was used.
//
// The emulation table covers the paper's 19 cases:
//
//   - 11 special metadata-access APIs: getattrlist, setattrlist,
//     getdirentriesattr and the OS X xattr forms on targets without them;
//     the flat xattr family (getxattr/setxattr/listxattr/removexattr and
//     l-variants) emulated as plain metadata accesses on Illumos;
//   - 3 file-system hints: fadvise (prefetch), fallocate (preallocation),
//     and fcntl cache hints, mapped between posix_fadvise /
//     F_RDADVISE / F_PREALLOCATE / F_NOCACHE or dropped on FreeBSD;
//   - 3 obscure undocumented OS X calls (fsctl, searchfs, vfsconf),
//     emulated with small metadata accesses;
//   - fsync semantics: replaying a Linux trace on OS X optionally issues
//     fcntl(F_FULLFSYNC) for true durability;
//   - exchangedata: emulated with a link and two renames on non-OS X
//     targets.
func (rs *replayState) applyWithEmulation(t *sim.Thread, ha *hotAction, op stack.Op, rec *trace.Record, a *stack.Redirect) (int64, vfs.Errno, bool) {
	sys := rs.sys
	target := sys.Conf.Platform

	// dup2 always needs rewriting: the traced target number may collide
	// with a remapped descriptor, so duplicate onto a fresh number and
	// retire the old generation explicitly.
	if op == stack.OpDup2 {
		return rs.emulateDup2(t, ha, a)
	}

	// fsync semantics across platforms.
	if op == stack.OpFsync && target == stack.OSX && rs.b.Platform != string(stack.OSX) && rs.opts.FullFsyncOnOSX {
		ret, err := sys.Fcntl(t, a.FD, "F_FULLFSYNC", 0)
		return ret, err, true
	}

	if rs.native[ha.call] {
		ret, err := sys.Apply(t, op, rec, a)
		return ret, err, false
	}

	switch op {
	case stack.OpExchangedata:
		// No atomic equivalent: a link and two renames.
		tmp := a.Path + ".xchg"
		if _, err := sys.Link(t, a.Path, tmp); err != vfs.OK {
			return -1, err, true
		}
		if _, err := sys.Rename(t, a.Path2, a.Path); err != vfs.OK {
			sys.Unlink(t, tmp)
			return -1, err, true
		}
		if _, err := sys.Rename(t, tmp, a.Path2); err != vfs.OK {
			return -1, err, true
		}
		return 0, vfs.OK, true
	case stack.OpGetattrlist, stack.OpFsctl, stack.OpVfsconf:
		ret, err := sys.Stat(t, a.Path)
		if err == vfs.OK {
			ret = 0
		}
		return ret, err, true
	case stack.OpSetattrlist:
		// Bulk attribute write: the nearest equivalent is touching the
		// metadata (utimes-style).
		ret, err := sys.Utimes(t, a.Path)
		return ret, err, true
	case stack.OpSearchfs:
		// Catalog search becomes a directory scan.
		fd, err := sys.Open(t, a.Path, trace.ORdonly|trace.ODir, 0)
		if err != vfs.OK {
			// Non-directories degrade to a stat.
			ret, serr := sys.Stat(t, a.Path)
			if serr == vfs.OK {
				ret = 0
			}
			return ret, serr, true
		}
		for {
			n, derr := sys.Getdents(t, fd, 128)
			if derr != vfs.OK || n == 0 {
				break
			}
		}
		sys.Close(t, fd)
		return 0, vfs.OK, true
	case stack.OpGetdirentriesattr:
		ret, err := sys.Getdents(t, a.FD, rec.Size)
		return ret, err, true
	case stack.OpFallocate:
		// OS X spells preallocation fcntl(F_PREALLOCATE); FreeBSD and
		// Illumos approximate with an extending truncate when needed.
		if target == stack.OSX {
			ret, err := sys.Fcntl(t, a.FD, "F_PREALLOCATE", rec.Offset+rec.Size)
			return ret, err, true
		}
		ret, err := sys.Ftruncate(t, a.FD, rec.Offset+rec.Size)
		return ret, err, true
	case stack.OpFadvise:
		if target == stack.OSX {
			if a.Name == "POSIX_FADV_WILLNEED" {
				ret, err := sys.Fcntl(t, a.FD, "F_RDADVISE", rec.Size)
				return ret, err, true
			}
			// Other advice has no OS X equivalent; accept and ignore.
			if _, err := sys.Fstat(t, a.FD); err != vfs.OK {
				return -1, err, true
			}
			return 0, vfs.OK, true
		}
		// FreeBSD lacks some hints entirely: ignored (§4.3.4).
		return 0, vfs.OK, true
	case stack.OpGetxattr, stack.OpLgetxattr, stack.OpListxattr, stack.OpLlistxattr:
		// Illumos target: no flat xattr calls; emulate with a metadata
		// access and report the attribute missing.
		if _, err := sys.Stat(t, a.Path); err != vfs.OK {
			return -1, err, true
		}
		return -1, vfs.ENODATA, true
	case stack.OpSetxattr, stack.OpLsetxattr, stack.OpRemovexattr, stack.OpLremovexattr:
		if _, err := sys.Stat(t, a.Path); err != vfs.OK {
			return -1, err, true
		}
		return 0, vfs.OK, true
	case stack.OpFgetxattr, stack.OpFlistxattr:
		if _, err := sys.Fstat(t, a.FD); err != vfs.OK {
			return -1, err, true
		}
		return -1, vfs.ENODATA, true
	case stack.OpFsetxattr, stack.OpFremovexattr:
		if _, err := sys.Fstat(t, a.FD); err != vfs.OK {
			return -1, err, true
		}
		return 0, vfs.OK, true
	default:
		// Unknown on this target and no emulation: execute directly (the
		// model implements all canonical calls) and count it as emulated.
		ret, err := sys.Apply(t, op, rec, a)
		return ret, err, true
	}
}

// emulateDup2 replays dup2 onto a fresh descriptor number, explicitly
// retiring the descriptor generation dup2 implicitly closed.
func (rs *replayState) emulateDup2(t *sim.Thread, ha *hotAction, a *stack.Redirect) (int64, vfs.Errno, bool) {
	// Close the old generation of the target number, if it was open.
	if ha.fdDelete >= 0 {
		if actual := rs.remap[ha.fdDelete]; actual != unmapped {
			rs.sys.Close(t, actual)
		}
	}
	ret, err := rs.sys.Dup(t, a.FD)
	return ret, err, false
}
