package stack

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"rootreplay/internal/sim"
	"rootreplay/internal/trace"
	"rootreplay/internal/vfs"
)

func TestLseekWhence(t *testing.T) {
	k, sys := newSys(nil)
	if err := sys.SetupCreate("/f", 10000); err != nil {
		t.Fatal(err)
	}
	run(t, k, func(th *sim.Thread) {
		fd, _ := sys.Open(th, "/f", trace.ORdonly, 0)
		if pos, err := sys.Lseek(th, fd, 100, SeekSet); err != vfs.OK || pos != 100 {
			t.Errorf("SEEK_SET = %d, %v", pos, err)
		}
		if pos, err := sys.Lseek(th, fd, 50, SeekCur); err != vfs.OK || pos != 150 {
			t.Errorf("SEEK_CUR = %d, %v", pos, err)
		}
		if pos, err := sys.Lseek(th, fd, -1000, SeekEnd); err != vfs.OK || pos != 9000 {
			t.Errorf("SEEK_END = %d, %v", pos, err)
		}
		if _, err := sys.Lseek(th, fd, -99999, SeekCur); err != vfs.EINVAL {
			t.Errorf("negative position = %v, want EINVAL", err)
		}
		if _, err := sys.Lseek(th, fd, 0, 42); err != vfs.EINVAL {
			t.Errorf("bad whence = %v", err)
		}
		if _, err := sys.Lseek(th, 99, 0, SeekSet); err != vfs.EBADF {
			t.Errorf("bad fd = %v", err)
		}
	})
}

func TestReadAtSeekPosition(t *testing.T) {
	k, sys := newSys(nil)
	if err := sys.SetupCreate("/f", 100); err != nil {
		t.Fatal(err)
	}
	run(t, k, func(th *sim.Thread) {
		fd, _ := sys.Open(th, "/f", trace.ORdonly, 0)
		sys.Lseek(th, fd, 90, SeekSet)
		if n, err := sys.Read(th, fd, 100); err != vfs.OK || n != 10 {
			t.Errorf("read after seek = %d, %v", n, err)
		}
	})
}

func TestOAppendWrites(t *testing.T) {
	k, sys := newSys(nil)
	if err := sys.SetupCreate("/log", 1000); err != nil {
		t.Fatal(err)
	}
	run(t, k, func(th *sim.Thread) {
		fd, _ := sys.Open(th, "/log", trace.OWronly|trace.OAppend, 0)
		sys.Write(th, fd, 500)
		ino, _ := sys.FS.Resolve(nil, "/log")
		if ino.Size != 1500 {
			t.Errorf("size after append = %d, want 1500", ino.Size)
		}
		// Second append lands at the new EOF.
		sys.Write(th, fd, 100)
		if ino.Size != 1600 {
			t.Errorf("size after second append = %d", ino.Size)
		}
	})
}

func TestOTruncResetsFile(t *testing.T) {
	k, sys := newSys(nil)
	if err := sys.SetupCreate("/f", 8192); err != nil {
		t.Fatal(err)
	}
	run(t, k, func(th *sim.Thread) {
		fd, _ := sys.Open(th, "/f", trace.OWronly|trace.OTrunc, 0)
		ino, _ := sys.FS.Resolve(nil, "/f")
		if ino.Size != 0 {
			t.Errorf("size after O_TRUNC = %d", ino.Size)
		}
		sys.Close(th, fd)
	})
}

func TestFallocateExtends(t *testing.T) {
	k, sys := newSys(nil)
	run(t, k, func(th *sim.Thread) {
		fd, _ := sys.Open(th, "/f", trace.OWronly|trace.OCreat, 0o644)
		if _, err := sys.Fallocate(th, fd, 0, 1<<20); err != vfs.OK {
			t.Errorf("fallocate: %v", err)
		}
		ino, _ := sys.FS.Resolve(nil, "/f")
		if ino.Size != 1<<20 {
			t.Errorf("size = %d", ino.Size)
		}
		if _, err := sys.Fallocate(th, fd, -1, 100); err != vfs.EINVAL {
			t.Errorf("negative offset = %v", err)
		}
	})
}

func TestFadviseWillneedPrefetches(t *testing.T) {
	k, sys := newSys(nil)
	if err := sys.SetupCreate("/f", 1<<20); err != nil {
		t.Fatal(err)
	}
	run(t, k, func(th *sim.Thread) {
		fd, _ := sys.Open(th, "/f", trace.ORdonly, 0)
		if _, err := sys.Fadvise(th, fd, 0, 64<<10, "POSIX_FADV_WILLNEED"); err != vfs.OK {
			t.Errorf("fadvise: %v", err)
		}
		// Let the background prefetch finish.
		th.Sleep(time.Second)
		start := k.Now()
		sys.Pread(th, fd, 4096, 0)
		if d := k.Now() - start; d > 100*time.Microsecond {
			t.Errorf("read after WILLNEED took %v; not prefetched", d)
		}
	})
}

func TestMmapFaultsPages(t *testing.T) {
	k, sys := newSys(nil)
	if err := sys.SetupCreate("/f", 1<<20); err != nil {
		t.Fatal(err)
	}
	run(t, k, func(th *sim.Thread) {
		fd, _ := sys.Open(th, "/f", trace.ORdonly, 0)
		if _, err := sys.Mmap(th, fd, 0, 128<<10); err != vfs.OK {
			t.Errorf("mmap: %v", err)
		}
		// Mapped pages are resident: re-reads are cache hits.
		start := k.Now()
		sys.Pread(th, fd, 4096, 64<<10)
		if d := k.Now() - start; d > 100*time.Microsecond {
			t.Errorf("read of mapped page took %v", d)
		}
		if _, err := sys.Munmap(th, 0, 128<<10); err != vfs.OK {
			t.Errorf("munmap: %v", err)
		}
	})
}

func TestMsyncFlushesDirty(t *testing.T) {
	k, sys := newSys(nil)
	run(t, k, func(th *sim.Thread) {
		fd, _ := sys.Open(th, "/f", trace.ORdwr|trace.OCreat, 0o644)
		sys.Write(th, fd, 8192)
		before := sys.Dev.Stats().Writes
		if _, err := sys.Msync(th, 0, 8192); err != vfs.OK {
			t.Errorf("msync: %v", err)
		}
		if sys.Dev.Stats().Writes == before {
			t.Error("msync flushed nothing")
		}
	})
}

func TestStatfsAndFstatfs(t *testing.T) {
	k, sys := newSys(nil)
	if err := sys.SetupCreate("/f", 100); err != nil {
		t.Fatal(err)
	}
	run(t, k, func(th *sim.Thread) {
		if _, err := sys.Statfs(th, "/f"); err != vfs.OK {
			t.Errorf("statfs: %v", err)
		}
		if _, err := sys.Statfs(th, "/nope"); err != vfs.ENOENT {
			t.Errorf("statfs missing: %v", err)
		}
		fd, _ := sys.Open(th, "/f", trace.ORdonly, 0)
		if _, err := sys.Fstatfs(th, fd); err != vfs.OK {
			t.Errorf("fstatfs: %v", err)
		}
		if _, err := sys.Fstatfs(th, 99); err != vfs.EBADF {
			t.Errorf("fstatfs bad fd: %v", err)
		}
	})
}

func TestChdirRelativeResolution(t *testing.T) {
	k, sys := newSys(nil)
	if err := sys.SetupCreate("/a/b/file", 100); err != nil {
		t.Fatal(err)
	}
	run(t, k, func(th *sim.Thread) {
		if _, err := sys.Chdir(th, "/a/b"); err != vfs.OK {
			t.Errorf("chdir: %v", err)
		}
		if _, err := sys.Stat(th, "file"); err != vfs.OK {
			t.Errorf("relative stat after chdir: %v", err)
		}
		if _, err := sys.Chdir(th, "/a/b/file"); err != vfs.ENOTDIR {
			t.Errorf("chdir to file: %v", err)
		}
		// fchdir via an open directory descriptor.
		fd, _ := sys.Open(th, "/a", trace.ORdonly|trace.ODir, 0)
		if _, err := sys.Fchdir(th, fd); err != vfs.OK {
			t.Errorf("fchdir: %v", err)
		}
		if _, err := sys.Stat(th, "b/file"); err != vfs.OK {
			t.Errorf("relative stat after fchdir: %v", err)
		}
	})
}

func TestLinkReadlinkSymlinkCalls(t *testing.T) {
	k, sys := newSys(nil)
	if err := sys.SetupCreate("/orig", 64); err != nil {
		t.Fatal(err)
	}
	run(t, k, func(th *sim.Thread) {
		if _, err := sys.Link(th, "/orig", "/hard"); err != vfs.OK {
			t.Errorf("link: %v", err)
		}
		if _, err := sys.Symlink(th, "/orig", "/soft"); err != vfs.OK {
			t.Errorf("symlink: %v", err)
		}
		n, err := sys.Readlink(th, "/soft")
		if err != vfs.OK || n != 5 {
			t.Errorf("readlink = %d, %v", n, err)
		}
		if _, err := sys.Readlink(th, "/hard"); err != vfs.EINVAL {
			t.Errorf("readlink on hard link: %v", err)
		}
		// All three names resolve to same size.
		s1, _ := sys.Stat(th, "/orig")
		s2, _ := sys.Stat(th, "/hard")
		s3, _ := sys.Stat(th, "/soft")
		if s1 != 64 || s2 != 64 || s3 != 64 {
			t.Errorf("sizes = %d %d %d", s1, s2, s3)
		}
	})
}

func TestChmodChownUtimes(t *testing.T) {
	k, sys := newSys(nil)
	if err := sys.SetupCreate("/f", 0); err != nil {
		t.Fatal(err)
	}
	run(t, k, func(th *sim.Thread) {
		if _, err := sys.Chmod(th, "/f", 0o600); err != vfs.OK {
			t.Errorf("chmod: %v", err)
		}
		ino, _ := sys.FS.Resolve(nil, "/f")
		if ino.Mode != 0o600 {
			t.Errorf("mode = %o", ino.Mode)
		}
		fd, _ := sys.Open(th, "/f", trace.ORdonly, 0)
		if _, err := sys.Fchmod(th, fd, 0o644); err != vfs.OK {
			t.Errorf("fchmod: %v", err)
		}
		if ino.Mode != 0o644 {
			t.Errorf("mode after fchmod = %o", ino.Mode)
		}
		if _, err := sys.Chown(th, "/f"); err != vfs.OK {
			t.Errorf("chown: %v", err)
		}
		if _, err := sys.Utimes(th, "/f"); err != vfs.OK {
			t.Errorf("utimes: %v", err)
		}
		if _, err := sys.Utimes(th, "/missing"); err != vfs.ENOENT {
			t.Errorf("utimes missing: %v", err)
		}
	})
}

func TestGetdirentriesattrTouchesChildren(t *testing.T) {
	k, sys := newSys(func(c *Config) { c.Platform = OSX; c.Profile = HFSPlus })
	for _, p := range []string{"/d/a", "/d/b", "/d/c", "/d/e"} {
		if err := sys.SetupCreate(p, 10); err != nil {
			t.Fatal(err)
		}
	}
	run(t, k, func(th *sim.Thread) {
		fd, _ := sys.Open(th, "/d", trace.ORdonly|trace.ODir, 0)
		n1, err := sys.Getdirentriesattr(th, fd, 3)
		if err != vfs.OK || n1 != 3 {
			t.Errorf("first batch = %d, %v", n1, err)
		}
		n2, _ := sys.Getdirentriesattr(th, fd, 10)
		if n2 != 1 {
			t.Errorf("second batch = %d", n2)
		}
		if _, err := sys.Getdirentriesattr(th, 99, 1); err != vfs.EBADF {
			t.Errorf("bad fd: %v", err)
		}
	})
}

func TestSearchfsScansDirectory(t *testing.T) {
	k, sys := newSys(func(c *Config) { c.Platform = OSX; c.Profile = HFSPlus })
	for _, p := range []string{"/lib/x", "/lib/y"} {
		if err := sys.SetupCreate(p, 10); err != nil {
			t.Fatal(err)
		}
	}
	run(t, k, func(th *sim.Thread) {
		if _, err := sys.Searchfs(th, "/lib"); err != vfs.OK {
			t.Errorf("searchfs: %v", err)
		}
		if _, err := sys.Searchfs(th, "/missing"); err != vfs.ENOENT {
			t.Errorf("searchfs missing: %v", err)
		}
	})
}

func TestSyncFlushesEverything(t *testing.T) {
	k, sys := newSys(nil)
	run(t, k, func(th *sim.Thread) {
		f1, _ := sys.Open(th, "/a", trace.OWronly|trace.OCreat, 0o644)
		f2, _ := sys.Open(th, "/b", trace.OWronly|trace.OCreat, 0o644)
		sys.Write(th, f1, 4096)
		sys.Write(th, f2, 4096)
		before := sys.Dev.Stats().BlocksWrite
		if _, err := sys.SyncSys(th); err != vfs.OK {
			t.Errorf("sync: %v", err)
		}
		if sys.Dev.Stats().BlocksWrite-before < 2 {
			t.Error("sync flushed fewer than 2 blocks")
		}
	})
}

func TestFcntlOps(t *testing.T) {
	k, sys := newSys(nil)
	if err := sys.SetupCreate("/f", 1<<20); err != nil {
		t.Fatal(err)
	}
	run(t, k, func(th *sim.Thread) {
		fd, _ := sys.Open(th, "/f", trace.ORdonly, 0)
		nfd, err := sys.Fcntl(th, fd, "F_DUPFD", 0)
		if err != vfs.OK || nfd == fd {
			t.Errorf("F_DUPFD = %d, %v", nfd, err)
		}
		if _, err := sys.Fstat(th, nfd); err != vfs.OK {
			t.Errorf("dup'd fd unusable: %v", err)
		}
		for _, op := range []string{"F_NOCACHE", "F_GETFL", "F_SETFL", "F_GETPATH"} {
			if _, err := sys.Fcntl(th, fd, op, 0); err != vfs.OK {
				t.Errorf("%s: %v", op, err)
			}
		}
		if _, err := sys.Fcntl(th, fd, "F_BOGUS", 0); err != vfs.EINVAL {
			t.Errorf("unknown op: %v", err)
		}
		if _, err := sys.Fcntl(th, fd, "F_RDADVISE", 64<<10); err != vfs.OK {
			t.Errorf("F_RDADVISE: %v", err)
		}
		if _, err := sys.Fcntl(th, fd, "F_PREALLOCATE", 2<<20); err != vfs.OK {
			t.Errorf("F_PREALLOCATE: %v", err)
		}
	})
}

func TestTruncateCalls(t *testing.T) {
	k, sys := newSys(nil)
	if err := sys.SetupCreate("/f", 8192); err != nil {
		t.Fatal(err)
	}
	run(t, k, func(th *sim.Thread) {
		if _, err := sys.Truncate(th, "/f", 100); err != vfs.OK {
			t.Errorf("truncate: %v", err)
		}
		ino, _ := sys.FS.Resolve(nil, "/f")
		if ino.Size != 100 {
			t.Errorf("size = %d", ino.Size)
		}
		fd, _ := sys.Open(th, "/f", trace.ORdwr, 0)
		if _, err := sys.Ftruncate(th, fd, 50); err != vfs.OK {
			t.Errorf("ftruncate: %v", err)
		}
		if ino.Size != 50 {
			t.Errorf("size after ftruncate = %d", ino.Size)
		}
		if _, err := sys.Truncate(th, "/missing", 0); err != vfs.ENOENT {
			t.Errorf("truncate missing: %v", err)
		}
	})
}

func TestDirOpenSemantics(t *testing.T) {
	k, sys := newSys(nil)
	if err := sys.SetupMkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetupCreate("/f", 0); err != nil {
		t.Fatal(err)
	}
	run(t, k, func(th *sim.Thread) {
		if _, err := sys.Open(th, "/d", trace.OWronly, 0); err != vfs.EISDIR {
			t.Errorf("open dir for write: %v", err)
		}
		if _, err := sys.Open(th, "/f", trace.ORdonly|trace.ODir, 0); err != vfs.ENOTDIR {
			t.Errorf("O_DIRECTORY on file: %v", err)
		}
		fd, err := sys.Open(th, "/d", trace.ORdonly, 0)
		if err != vfs.OK {
			t.Errorf("open dir read-only: %v", err)
		}
		if _, err := sys.Write(th, fd, 10); err != vfs.EISDIR {
			t.Errorf("write to dir fd: %v", err)
		}
		if _, err := sys.Getdents(th, 99, 10); err != vfs.EBADF {
			t.Errorf("getdents bad fd: %v", err)
		}
		ffd, _ := sys.Open(th, "/f", trace.ORdonly, 0)
		if _, err := sys.Getdents(th, ffd, 10); err != vfs.ENOTDIR {
			t.Errorf("getdents on file: %v", err)
		}
	})
}

func TestMetadataColdVsWarm(t *testing.T) {
	k, sys := newSys(nil)
	if err := sys.SetupCreate("/f", 100); err != nil {
		t.Fatal(err)
	}
	run(t, k, func(th *sim.Thread) {
		start := k.Now()
		sys.Stat(th, "/f")
		cold := k.Now() - start
		start = k.Now()
		sys.Stat(th, "/f")
		warm := k.Now() - start
		if cold <= warm {
			t.Errorf("cold stat (%v) not slower than warm (%v)", cold, warm)
		}
		if warm > 100*time.Microsecond {
			t.Errorf("warm stat took %v", warm)
		}
	})
}

func TestExt3VsExt4FsyncCost(t *testing.T) {
	cost := func(prof FSProfile) int64 {
		k, sys := newSys(func(c *Config) { c.Profile = prof })
		var blocks int64
		run(t, k, func(th *sim.Thread) {
			// Unrelated dirty data.
			other, _ := sys.Open(th, "/other", trace.OWronly|trace.OCreat, 0o644)
			for i := 0; i < 32; i++ {
				sys.Write(th, other, 4096)
			}
			fd, _ := sys.Open(th, "/f", trace.OWronly|trace.OCreat, 0o644)
			sys.Write(th, fd, 4096)
			before := sys.Dev.Stats().BlocksWrite
			sys.Fsync(th, fd)
			blocks = sys.Dev.Stats().BlocksWrite - before
		})
		return blocks
	}
	e4 := cost(Ext4)
	e3 := cost(Ext3)
	if e3 <= e4 {
		t.Fatalf("ext3 fsync wrote %d blocks, ext4 %d; ordered mode missing", e3, e4)
	}
}

func TestBackgroundWriteback(t *testing.T) {
	k, sys := newSys(func(c *Config) { c.WritebackDelay = 50 * time.Millisecond })
	run(t, k, func(th *sim.Thread) {
		fd, _ := sys.Open(th, "/f", trace.OWronly|trace.OCreat, 0o644)
		sys.Write(th, fd, 16384)
		if sys.Dev.Stats().Writes != 0 {
			t.Error("write reached device before the writeback delay")
		}
		th.Sleep(100 * time.Millisecond)
		if sys.Dev.Stats().Writes == 0 {
			t.Error("background writeback never ran")
		}
		if sys.Cache.DirtyCount() != 0 {
			t.Errorf("dirty pages remain: %d", sys.Cache.DirtyCount())
		}
		// Re-dirtying re-arms the flusher.
		sys.Write(th, fd, 4096)
		th.Sleep(100 * time.Millisecond)
		if sys.Cache.DirtyCount() != 0 {
			t.Error("second writeback round never ran")
		}
		sys.Close(th, fd)
	})
	// The simulation terminated (run returned): the flusher does not
	// keep the kernel alive once everything is clean.
	if k.Live() != 0 {
		t.Fatalf("live threads remain: %d", k.Live())
	}
}

func TestNoWritebackWhenDisabled(t *testing.T) {
	k, sys := newSys(nil) // WritebackDelay zero
	run(t, k, func(th *sim.Thread) {
		fd, _ := sys.Open(th, "/f", trace.OWronly|trace.OCreat, 0o644)
		sys.Write(th, fd, 16384)
		th.Sleep(5 * time.Second)
		if sys.Dev.Stats().Writes != 0 {
			t.Error("writes reached device without fsync while writeback disabled")
		}
		sys.Fsync(th, fd)
		if sys.Dev.Stats().Writes == 0 {
			t.Error("fsync wrote nothing")
		}
	})
}

func TestDeadlineSchedulerConfig(t *testing.T) {
	k, sys := newSys(func(c *Config) { c.Scheduler = SchedDeadline })
	if err := sys.SetupCreate("/f", 8<<20); err != nil {
		t.Fatal(err)
	}
	run(t, k, func(th *sim.Thread) {
		fd, _ := sys.Open(th, "/f", trace.ORdonly, 0)
		for i := 0; i < 50; i++ {
			off := (int64(i)*982451653 + 7) % (7 << 20)
			if n, err := sys.Pread(th, fd, 4096, off); err != vfs.OK || n != 4096 {
				t.Errorf("pread = %d, %v", n, err)
			}
		}
		sys.Close(th, fd)
	})
}

// Aged layout: a file written on a fragmented file system reads back
// slower sequentially than on a fresh, contiguous layout (§4.3.2's
// aging-aware initialization).
func TestAgedLayoutSlowsSequentialReads(t *testing.T) {
	seqRead := func(aging float64) time.Duration {
		k, sys := newSys(func(c *Config) { c.Aging = aging; c.Scheduler = SchedNoop })
		if err := sys.SetupCreate("/big", 16<<20); err != nil {
			t.Fatal(err)
		}
		var d time.Duration
		run(t, k, func(th *sim.Thread) {
			fd, _ := sys.Open(th, "/big", trace.ORdonly, 0)
			start := k.Now()
			for i := 0; i < 4096; i++ {
				sys.Read(th, fd, 4096)
			}
			d = k.Now() - start
		})
		return d
	}
	fresh := seqRead(0)
	aged := seqRead(1.0)
	if float64(aged) < 1.5*float64(fresh) {
		t.Fatalf("aged sequential read (%v) not much slower than fresh (%v)", aged, fresh)
	}
}

// BenchmarkWarmAll warms a freshly built machine, as every replica of a
// warmed replay does before its first action: a thousand files of one
// page to 2 MiB, about a hundred thousand pages. It reports host time
// and heap bytes per page left resident; TestWarmAllocsPerPage in
// internal/artc holds the allocation count down.
func BenchmarkWarmAll(b *testing.B) {
	var pages int64
	var bytes uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		_, sys := newSys(nil)
		for f := 0; f < 1024; f++ {
			if err := sys.SetupCreate(fmt.Sprintf("/lib/%02d/%02d", f/32, f%32), 4096<<(f%10)); err != nil {
				b.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.StartTimer()
		sys.WarmAll()
		b.StopTimer()
		runtime.ReadMemStats(&after)
		pages += sys.Cache.Resident()
		bytes += after.TotalAlloc - before.TotalAlloc
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pages), "ns/page")
	b.ReportMetric(float64(bytes)/float64(pages), "B/page")
}
