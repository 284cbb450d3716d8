package stack

import (
	"fmt"
	"path"
	"time"

	"rootreplay/internal/cache"
	"rootreplay/internal/sim"
	"rootreplay/internal/storage"
	"rootreplay/internal/vfs"
)

// Setup operations build initial file-system state outside of measured
// time (snapshot restoration, benchmark initialization). They bypass
// tracing and charge no virtual time, but they do drive the block
// allocator, so initialization order determines on-disk layout — the
// locality effect the paper notes for log-structured and aged file
// systems (§4.3.2).

// SetupMkdirAll creates a directory and any missing ancestors.
func (s *System) SetupMkdirAll(p string) error {
	if _, err := s.FS.MkdirAll(nil, p, 0o755); err != vfs.OK {
		return fmt.Errorf("setup mkdir %s: %w", p, err)
	}
	return nil
}

// SetupCreate creates a regular file of the given size (with parents),
// allocating its block placement.
func (s *System) SetupCreate(p string, size int64) error {
	dir := path.Dir(p)
	if dir != "/" && dir != "." {
		if err := s.SetupMkdirAll(dir); err != nil {
			return err
		}
	}
	ino, _, err := s.FS.Create(nil, p, 0o644, false)
	if err != vfs.OK {
		return fmt.Errorf("setup create %s: %w", p, err)
	}
	ino.Size = size
	if size > 0 {
		pages := (size + storage.BlockSize - 1) / storage.BlockSize
		s.placementOf(ino, pages)
	}
	return nil
}

// SetupSymlink creates a symlink (with parents for the link path).
func (s *System) SetupSymlink(target, linkPath string) error {
	dir := path.Dir(linkPath)
	if dir != "/" && dir != "." {
		if err := s.SetupMkdirAll(dir); err != nil {
			return err
		}
	}
	if _, err := s.FS.Symlink(nil, target, linkPath); err != vfs.OK {
		return fmt.Errorf("setup symlink %s -> %s: %w", linkPath, target, err)
	}
	return nil
}

// SetupSpecial creates a special file with the given behaviour.
func (s *System) SetupSpecial(p string, kind SpecialKind) error {
	dir := path.Dir(p)
	if dir != "/" && dir != "." {
		if err := s.SetupMkdirAll(dir); err != nil {
			return err
		}
	}
	ino, err := s.FS.Mknod(nil, p, 0o666)
	if err != vfs.OK {
		return fmt.Errorf("setup special %s: %w", p, err)
	}
	ino.Sys = kind
	return nil
}

// SetupXattr sets an extended attribute on an existing path.
func (s *System) SetupXattr(p, name string, size int64) error {
	if err := s.FS.Setxattr(nil, p, name, make([]byte, size)); err != vfs.OK {
		return fmt.Errorf("setup xattr %s %s: %w", p, name, err)
	}
	return nil
}

// SetupUnlink removes a file created earlier in setup.
func (s *System) SetupUnlink(p string) error {
	if err := s.FS.Unlink(nil, p); err != vfs.OK {
		return fmt.Errorf("setup unlink %s: %w", p, err)
	}
	return nil
}

// WarmFile faults every page of the file at p into the cache,
// simulating a benchmark whose initialization leaves the cache hot.
// It must be called from a simulated thread.
func (s *System) WarmFile(t *sim.Thread, p string) error {
	ino, err := s.FS.Resolve(nil, p)
	if err != vfs.OK {
		return fmt.Errorf("warm %s: %w", p, err)
	}
	if ino.Size == 0 || ino.Type != vfs.TypeRegular {
		return nil
	}
	pages := (ino.Size + storage.BlockSize - 1) / storage.BlockSize
	m := s.mapperFor(ino, pages)
	s.Cache.Read(t, cache.FileID(ino.Ino), m, 0, pages)
	return nil
}

// WarmAll makes every inode's metadata block and every regular file's
// data pages cache-resident in zero virtual time — a machine whose
// dentry, inode, and page caches are hot at measurement start, as
// after a pre-run tree walk plus full read pass. Setup-style instant
// operation (no thread, no I/O), unlike WarmFile. Replays that must be
// device-independent — the sliced-vs-serial differential corpora, where
// each slice replica has its own device and cache, so a cold open or a
// read of data another slice wrote would be timed by that replica's
// queue — warm every replica so those paths are pure cache hits.
func (s *System) WarmAll() {
	var walk func(ino *vfs.Inode)
	walk = func(ino *vfs.Inode) {
		s.Cache.Warm(0, metaMapper, int64(ino.Ino), 1)
		if ino.Type == vfs.TypeRegular && ino.Size > 0 {
			pages := (ino.Size + storage.BlockSize - 1) / storage.BlockSize
			s.Cache.Warm(cacheID(ino), s.mapperFor(ino, pages), 0, pages)
		}
		for _, name := range ino.Children() {
			walk(ino.Lookup(name))
		}
	}
	walk(s.FS.Root())
}

// DropCaches empties the page cache (between initialization and
// measurement).
func (s *System) DropCaches() { s.Cache.DropAll() }

// RunWorkload runs fn as the body of a fresh simulated thread on the
// system's kernel and executes the simulation to completion, returning
// the virtual time elapsed. Convenience for single-shot experiments.
func RunWorkload(sys *System, name string, fn func(t *sim.Thread)) (time.Duration, error) {
	start := sys.K.Now()
	sys.K.Spawn(name, fn)
	if err := sys.K.Run(); err != nil {
		return 0, err
	}
	return sys.K.Now() - start, nil
}

func cacheID(ino *vfs.Inode) cache.FileID { return cache.FileID(ino.Ino) }
