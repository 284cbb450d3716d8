package stack

import (
	"testing"
	"time"

	"rootreplay/internal/sim"
	"rootreplay/internal/trace"
	"rootreplay/internal/vfs"
)

// newSys builds a System on a fresh kernel with the given config tweaks.
func newSys(mutate func(*Config)) (*sim.Kernel, *System) {
	k := sim.NewKernel()
	conf := DefaultConfig()
	if mutate != nil {
		mutate(&conf)
	}
	return k, New(k, conf)
}

// run executes fn in a sim thread and finishes the simulation.
func run(t *testing.T, k *sim.Kernel, fn func(th *sim.Thread)) {
	t.Helper()
	k.Spawn("test", fn)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenReadCloseLifecycle(t *testing.T) {
	k, sys := newSys(nil)
	if err := sys.SetupCreate("/data/file", 1<<20); err != nil {
		t.Fatal(err)
	}
	run(t, k, func(th *sim.Thread) {
		fd, err := sys.Open(th, "/data/file", trace.ORdonly, 0)
		if err != vfs.OK {
			t.Errorf("open: %v", err)
			return
		}
		n, err := sys.Read(th, fd, 4096)
		if err != vfs.OK || n != 4096 {
			t.Errorf("read = %d, %v", n, err)
		}
		n, err = sys.Read(th, fd, 4096)
		if err != vfs.OK || n != 4096 {
			t.Errorf("second read = %d, %v", n, err)
		}
		if _, err := sys.Close(th, fd); err != vfs.OK {
			t.Errorf("close: %v", err)
		}
		if _, err := sys.Read(th, fd, 10); err != vfs.EBADF {
			t.Errorf("read after close = %v, want EBADF", err)
		}
	})
}

func TestReadPastEOF(t *testing.T) {
	k, sys := newSys(nil)
	if err := sys.SetupCreate("/f", 100); err != nil {
		t.Fatal(err)
	}
	run(t, k, func(th *sim.Thread) {
		fd, _ := sys.Open(th, "/f", trace.ORdonly, 0)
		n, err := sys.Read(th, fd, 4096)
		if err != vfs.OK || n != 100 {
			t.Errorf("short read = %d, %v", n, err)
		}
		n, err = sys.Read(th, fd, 4096)
		if err != vfs.OK || n != 0 {
			t.Errorf("read at EOF = %d, %v", n, err)
		}
	})
}

func TestWriteExtendsFileAndFsyncFlushes(t *testing.T) {
	k, sys := newSys(nil)
	run(t, k, func(th *sim.Thread) {
		fd, err := sys.Open(th, "/new", trace.OWronly|trace.OCreat, 0o644)
		if err != vfs.OK {
			t.Errorf("open: %v", err)
			return
		}
		for i := 0; i < 4; i++ {
			if n, err := sys.Write(th, fd, 4096); err != vfs.OK || n != 4096 {
				t.Errorf("write = %d, %v", n, err)
			}
		}
		ino, _ := sys.FS.Resolve(nil, "/new")
		if ino.Size != 16384 {
			t.Errorf("size = %d", ino.Size)
		}
		before := sys.Dev.Stats().Writes
		if _, err := sys.Fsync(th, fd); err != vfs.OK {
			t.Errorf("fsync: %v", err)
		}
		after := sys.Dev.Stats().Writes
		if after <= before {
			t.Error("fsync issued no device writes")
		}
	})
}

func TestFsyncTimingLinuxVsOSX(t *testing.T) {
	elapsed := func(mutate func(*Config)) time.Duration {
		k, sys := newSys(mutate)
		var d time.Duration
		run(t, k, func(th *sim.Thread) {
			fd, _ := sys.Open(th, "/f", trace.OWronly|trace.OCreat, 0o644)
			sys.Write(th, fd, 4096)
			start := k.Now()
			sys.Fsync(th, fd)
			d = k.Now() - start
		})
		return d
	}
	linux := elapsed(nil)
	osx := elapsed(func(c *Config) { c.Platform = OSX; c.Profile = HFSPlus })
	if osx >= linux {
		t.Fatalf("OS X fsync (%v) should be cheaper than Linux (%v): no journal barrier", osx, linux)
	}
}

func TestFullFsyncForcesBarrierOnOSX(t *testing.T) {
	k, sys := newSys(func(c *Config) { c.Platform = OSX; c.Profile = HFSPlus })
	run(t, k, func(th *sim.Thread) {
		fd, _ := sys.Open(th, "/f", trace.OWronly|trace.OCreat, 0o644)
		sys.Write(th, fd, 4096)
		before := sys.Dev.Stats().Writes
		sys.Fsync(th, fd)
		fsyncWrites := sys.Dev.Stats().Writes - before
		sys.Write(th, fd, 4096)
		before = sys.Dev.Stats().Writes
		if _, err := sys.Fcntl(th, fd, "F_FULLFSYNC", 0); err != vfs.OK {
			t.Errorf("F_FULLFSYNC: %v", err)
		}
		fullWrites := sys.Dev.Stats().Writes - before
		// OS X fsync flushes data only; F_FULLFSYNC adds the journal
		// barrier, so it must issue strictly more device writes.
		if fsyncWrites != 1 {
			t.Errorf("osx fsync issued %d writes, want 1 (no barrier)", fsyncWrites)
		}
		if fullWrites <= fsyncWrites {
			t.Errorf("F_FULLFSYNC writes = %d, fsync writes = %d", fullWrites, fsyncWrites)
		}
	})
}

func TestExt3OrderedDataFsync(t *testing.T) {
	// On ext3, fsync of one file drags another file's dirty data along.
	k, sys := newSys(func(c *Config) { c.Profile = Ext3 })
	run(t, k, func(th *sim.Thread) {
		fd1, _ := sys.Open(th, "/a", trace.OWronly|trace.OCreat, 0o644)
		fd2, _ := sys.Open(th, "/b", trace.OWronly|trace.OCreat, 0o644)
		for i := 0; i < 64; i++ {
			sys.Write(th, fd2, 4096)
		}
		sys.Write(th, fd1, 4096)
		before := sys.Dev.Stats().BlocksWrite
		sys.Fsync(th, fd1)
		delta := sys.Dev.Stats().BlocksWrite - before
		if delta < 65 {
			t.Errorf("ext3 fsync wrote %d blocks; want >= 65 (ordered data)", delta)
		}
	})
}

func TestSequentialReadUsesReadahead(t *testing.T) {
	k, sys := newSys(nil)
	if err := sys.SetupCreate("/big", 4<<20); err != nil {
		t.Fatal(err)
	}
	run(t, k, func(th *sim.Thread) {
		fd, _ := sys.Open(th, "/big", trace.ORdonly, 0)
		for i := 0; i < 256; i++ {
			sys.Read(th, fd, 4096)
		}
	})
	// With readahead, far fewer device reads than pages.
	reads := sys.Dev.Stats().Reads
	if reads >= 128 {
		t.Fatalf("sequential read of 256 pages issued %d device reads; readahead broken", reads)
	}
}

func TestRandomVsSequentialReadTime(t *testing.T) {
	elapsed := func(random bool) time.Duration {
		k, sys := newSys(nil)
		if err := sys.SetupCreate("/big", 64<<20); err != nil {
			t.Fatal(err)
		}
		var d time.Duration
		run(t, k, func(th *sim.Thread) {
			fd, _ := sys.Open(th, "/big", trace.ORdonly, 0)
			start := k.Now()
			for i := 0; i < 100; i++ {
				if random {
					off := (int64(i)*7919003 + 13) % (63 << 20)
					sys.Pread(th, fd, 4096, off)
				} else {
					sys.Read(th, fd, 4096)
				}
			}
			d = k.Now() - start
		})
		return d
	}
	seq := elapsed(false)
	rnd := elapsed(true)
	if seq*5 > rnd {
		t.Fatalf("sequential (%v) should be much faster than random (%v)", seq, rnd)
	}
}

func TestCacheHitFastPath(t *testing.T) {
	k, sys := newSys(nil)
	if err := sys.SetupCreate("/f", 1<<20); err != nil {
		t.Fatal(err)
	}
	run(t, k, func(th *sim.Thread) {
		fd, _ := sys.Open(th, "/f", trace.ORdonly, 0)
		sys.Read(th, fd, 4096)
		sys.Lseek(th, fd, 0, SeekSet)
		start := k.Now()
		sys.Read(th, fd, 4096)
		hit := k.Now() - start
		if hit > 100*time.Microsecond {
			t.Errorf("cached read took %v", hit)
		}
	})
}

func TestSSDFasterThanHDDStack(t *testing.T) {
	elapsed := func(dev DeviceKind) time.Duration {
		k, sys := newSys(func(c *Config) { c.Device = dev; c.Scheduler = SchedNoop })
		if err := sys.SetupCreate("/f", 64<<20); err != nil {
			t.Fatal(err)
		}
		var d time.Duration
		run(t, k, func(th *sim.Thread) {
			fd, _ := sys.Open(th, "/f", trace.ORdonly, 0)
			start := k.Now()
			for i := 0; i < 200; i++ {
				off := (int64(i)*7919003 + 13) % (63 << 20)
				sys.Pread(th, fd, 4096, off)
			}
			d = k.Now() - start
		})
		return d
	}
	hdd := elapsed(DeviceHDD)
	ssd := elapsed(DeviceSSD)
	if ssd*10 > hdd {
		t.Fatalf("SSD (%v) not much faster than HDD (%v)", ssd, hdd)
	}
}

func TestDupSharesOffsetDup2Replaces(t *testing.T) {
	k, sys := newSys(nil)
	if err := sys.SetupCreate("/f", 1<<20); err != nil {
		t.Fatal(err)
	}
	run(t, k, func(th *sim.Thread) {
		fd, _ := sys.Open(th, "/f", trace.ORdonly, 0)
		sys.Read(th, fd, 4096)
		nfd, err := sys.Dup(th, fd)
		if err != vfs.OK {
			t.Errorf("dup: %v", err)
		}
		// POSIX: dup'd numbers share one open file description, so the
		// offset is shared in both directions.
		pos, _ := sys.Lseek(th, nfd, 0, SeekCur)
		if pos != 4096 {
			t.Errorf("dup offset = %d", pos)
		}
		sys.Read(th, nfd, 4096)
		pos, _ = sys.Lseek(th, fd, 0, SeekCur)
		if pos != 8192 {
			t.Errorf("offset not shared through dup: %d", pos)
		}
		if ret, err := sys.Dup2(th, fd, 9); err != vfs.OK || ret != 9 {
			t.Errorf("dup2 = %d, %v", ret, err)
		}
		if _, err := sys.Fstat(th, 9); err != vfs.OK {
			t.Errorf("fstat dup2 target: %v", err)
		}
	})
}

func TestUnlinkWhileOpen(t *testing.T) {
	k, sys := newSys(nil)
	if err := sys.SetupCreate("/f", 8192); err != nil {
		t.Fatal(err)
	}
	run(t, k, func(th *sim.Thread) {
		fd, _ := sys.Open(th, "/f", trace.ORdonly, 0)
		if _, err := sys.Unlink(th, "/f"); err != vfs.OK {
			t.Errorf("unlink: %v", err)
		}
		// Reads through the open fd still work.
		if n, err := sys.Read(th, fd, 4096); err != vfs.OK || n != 4096 {
			t.Errorf("read after unlink = %d, %v", n, err)
		}
		if _, err := sys.Stat(th, "/f"); err != vfs.ENOENT {
			t.Errorf("stat after unlink = %v", err)
		}
		sys.Close(th, fd)
	})
}

func TestSpecialFileLatency(t *testing.T) {
	k, sys := newSys(nil)
	if err := sys.SetupSpecial("/dev/random", SpecialRandomBlocking); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetupSpecial("/dev/urandom", SpecialURandom); err != nil {
		t.Fatal(err)
	}
	run(t, k, func(th *sim.Thread) {
		fd, _ := sys.Open(th, "/dev/random", trace.ORdonly, 0)
		start := k.Now()
		sys.Read(th, fd, 16)
		slow := k.Now() - start
		if slow < time.Second {
			t.Errorf("/dev/random read of 16 bytes took only %v", slow)
		}
		fd2, _ := sys.Open(th, "/dev/urandom", trace.ORdonly, 0)
		start = k.Now()
		sys.Read(th, fd2, 16)
		fast := k.Now() - start
		if fast > time.Millisecond {
			t.Errorf("/dev/urandom read took %v", fast)
		}
	})
}

func TestSymlinkedDevRandomTrick(t *testing.T) {
	// The paper's fix: /dev/random as a symlink to /dev/urandom.
	k, sys := newSys(nil)
	if err := sys.SetupSpecial("/dev/urandom", SpecialURandom); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetupSymlink("/dev/urandom", "/dev/random"); err != nil {
		t.Fatal(err)
	}
	run(t, k, func(th *sim.Thread) {
		fd, err := sys.Open(th, "/dev/random", trace.ORdonly, 0)
		if err != vfs.OK {
			t.Errorf("open: %v", err)
			return
		}
		start := k.Now()
		sys.Read(th, fd, 100)
		if d := k.Now() - start; d > time.Millisecond {
			t.Errorf("symlinked /dev/random still slow: %v", d)
		}
	})
}

func TestTracerRecordsCalls(t *testing.T) {
	k, sys := newSys(nil)
	if err := sys.SetupCreate("/f", 8192); err != nil {
		t.Fatal(err)
	}
	var recs []*trace.Record
	sys.SetTracer(func(r *trace.Record) { recs = append(recs, r) })
	run(t, k, func(th *sim.Thread) {
		fd, _ := sys.Open(th, "/f", trace.ORdonly, 0)
		sys.Read(th, fd, 4096)
		sys.Close(th, fd)
		sys.Stat(th, "/missing")
	})
	if len(recs) != 4 {
		t.Fatalf("traced %d records, want 4", len(recs))
	}
	if recs[0].Call != "open" || recs[0].Ret != 3 || recs[0].Path != "/f" {
		t.Errorf("open record = %+v", recs[0])
	}
	if recs[1].Call != "read" || recs[1].Ret != 4096 {
		t.Errorf("read record = %+v", recs[1])
	}
	if recs[3].Err != "ENOENT" || recs[3].Ret != -1 {
		t.Errorf("failed stat record = %+v", recs[3])
	}
	for i, r := range recs {
		if r.Seq != int64(i) {
			t.Errorf("seq[%d] = %d", i, r.Seq)
		}
		if r.End < r.Start {
			t.Errorf("record %d: End < Start", i)
		}
	}
}

func TestGetdents(t *testing.T) {
	k, sys := newSys(nil)
	for _, p := range []string{"/d/a", "/d/b", "/d/c"} {
		if err := sys.SetupCreate(p, 0); err != nil {
			t.Fatal(err)
		}
	}
	run(t, k, func(th *sim.Thread) {
		fd, err := sys.Open(th, "/d", trace.ORdonly|trace.ODir, 0)
		if err != vfs.OK {
			t.Errorf("open dir: %v", err)
			return
		}
		n1, _ := sys.Getdents(th, fd, 2)
		n2, _ := sys.Getdents(th, fd, 100)
		n3, _ := sys.Getdents(th, fd, 100)
		if n1 != 2 || n2 != 1 || n3 != 0 {
			t.Errorf("getdents = %d, %d, %d; want 2, 1, 0", n1, n2, n3)
		}
	})
}

func TestXattrRoundtrip(t *testing.T) {
	k, sys := newSys(nil)
	if err := sys.SetupCreate("/f", 0); err != nil {
		t.Fatal(err)
	}
	run(t, k, func(th *sim.Thread) {
		if _, err := sys.Getxattr(th, "/f", "user.k", true); err != vfs.ENODATA {
			t.Errorf("getxattr missing = %v", err)
		}
		if _, err := sys.Setxattr(th, "/f", "user.k", 32, true); err != vfs.OK {
			t.Errorf("setxattr: %v", err)
		}
		n, err := sys.Getxattr(th, "/f", "user.k", true)
		if err != vfs.OK || n != 32 {
			t.Errorf("getxattr = %d, %v", n, err)
		}
		if _, err := sys.Removexattr(th, "/f", "user.k", true); err != vfs.OK {
			t.Errorf("removexattr: %v", err)
		}
	})
}

func TestExchangedata(t *testing.T) {
	k, sys := newSys(func(c *Config) { c.Platform = OSX; c.Profile = HFSPlus })
	sys.SetupCreate("/a", 100)
	sys.SetupCreate("/b", 200)
	run(t, k, func(th *sim.Thread) {
		if _, err := sys.Exchangedata(th, "/a", "/b"); err != vfs.OK {
			t.Errorf("exchangedata: %v", err)
		}
		na, _ := sys.Stat(th, "/a")
		nb, _ := sys.Stat(th, "/b")
		if na != 200 || nb != 100 {
			t.Errorf("sizes after exchange = %d, %d", na, nb)
		}
	})
}

func TestAIOLifecycle(t *testing.T) {
	k, sys := newSys(nil)
	if err := sys.SetupCreate("/f", 1<<20); err != nil {
		t.Fatal(err)
	}
	run(t, k, func(th *sim.Thread) {
		fd, _ := sys.Open(th, "/f", trace.ORdonly, 0)
		id, err := sys.AioRead(th, fd, 4096, 0)
		if err != vfs.OK {
			t.Errorf("aio_read: %v", err)
			return
		}
		// Immediately after submission the operation is in progress.
		st, _ := sys.AioError(th, id)
		if st != 115 {
			t.Errorf("aio_error right after submit = %d, want EINPROGRESS(115)", st)
		}
		if _, err := sys.AioSuspend(th, id); err != vfs.OK {
			t.Errorf("aio_suspend: %v", err)
		}
		st, _ = sys.AioError(th, id)
		if st != 0 {
			t.Errorf("aio_error after completion = %d", st)
		}
		n, err := sys.AioReturn(th, id)
		if err != vfs.OK || n != 4096 {
			t.Errorf("aio_return = %d, %v", n, err)
		}
		if _, err := sys.AioReturn(th, id); err != vfs.EINVAL {
			t.Errorf("double aio_return = %v", err)
		}
	})
}

func TestApplyDispatch(t *testing.T) {
	k, sys := newSys(nil)
	if err := sys.SetupCreate("/f", 8192); err != nil {
		t.Fatal(err)
	}
	run(t, k, func(th *sim.Thread) {
		ret, err := sys.Apply(th, OpOf("open"), &trace.Record{Flags: trace.ORdonly}, &Redirect{Path: "/f"})
		if err != vfs.OK || ret != 3 {
			t.Errorf("apply open = %d, %v", ret, err)
		}
		ret, err = sys.Apply(th, OpOf("pread64"), &trace.Record{Size: 4096, Offset: 4096}, &Redirect{FD: 3})
		if err != vfs.OK || ret != 4096 {
			t.Errorf("apply pread64 = %d, %v", ret, err)
		}
		if _, err = sys.Apply(th, OpOf("bogus_call"), &trace.Record{}, &Redirect{}); err != vfs.ENOTSUP {
			t.Errorf("apply unknown = %v", err)
		}
	})
}

func TestSupportedCallSurface(t *testing.T) {
	if n := len(opByName); n < 80 {
		t.Fatalf("supported call count = %d, want >= 80", n)
	}
	for _, call := range []string{"open", "stat64", "getdirentries64", "exchangedata"} {
		if OpOf(call) == OpNone {
			t.Errorf("%s unsupported", call)
		}
	}
	if OpOf("clone3") != OpNone {
		t.Error("clone3 claimed supported")
	}
}

func TestNativeSurfaces(t *testing.T) {
	cases := []struct {
		p    Platform
		call string
		want bool
	}{
		{Linux, "open", true},
		{Linux, "exchangedata", false},
		{OSX, "exchangedata", true},
		{Linux, "fallocate", true},
		{OSX, "fallocate", false},
		{FreeBSD, "fadvise", true},
		{OSX, "fadvise", false},
		{Illumos, "getxattr", false},
		{FreeBSD, "getxattr", true},
		{OSX, "getattrlist", true},
		{Illumos, "getattrlist", false},
	}
	for _, c := range cases {
		if got := Native(c.p, OpOf(c.call)); got != c.want {
			t.Errorf("Native(%s, %s) = %v, want %v", c.p, c.call, got, c.want)
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	k, sys := newSys(nil)
	if err := sys.SetupCreate("/f", 1<<20); err != nil {
		t.Fatal(err)
	}
	run(t, k, func(th *sim.Thread) {
		fd, _ := sys.Open(th, "/f", trace.ORdonly, 0)
		sys.Read(th, fd, 4096)
		sys.Read(th, fd, 4096)
		sys.Stat(th, "/missing")
	})
	st := sys.Stats()
	if st.CallCount["read"] != 2 || st.CallCount["open"] != 1 {
		t.Fatalf("counts = %v", st.CallCount)
	}
	if st.Errors != 1 {
		t.Fatalf("errors = %d", st.Errors)
	}
	if st.CallTime["read"] <= 0 || st.ThreadTime <= 0 {
		t.Fatal("no time accumulated")
	}
}

func TestConcurrentThreadsShareFDTable(t *testing.T) {
	k, sys := newSys(nil)
	if err := sys.SetupCreate("/f", 1<<20); err != nil {
		t.Fatal(err)
	}
	var fd int64 = -1
	opened := sim.NewCond(k)
	k.Spawn("opener", func(th *sim.Thread) {
		fd, _ = sys.Open(th, "/f", trace.ORdonly, 0)
		opened.Broadcast()
	})
	var n int64
	k.Spawn("reader", func(th *sim.Thread) {
		for fd == -1 {
			opened.Wait(th, "open")
		}
		n, _ = sys.Pread(th, fd, 4096, 0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 4096 {
		t.Fatalf("cross-thread read = %d", n)
	}
}

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

func TestRunWorkloadHelper(t *testing.T) {
	k, sys := newSys(nil)
	_ = k
	d, err := RunWorkload(sys, "w", func(th *sim.Thread) { th.Sleep(5 * time.Millisecond) })
	if err != nil {
		t.Fatal(err)
	}
	if d != 5*time.Millisecond {
		t.Fatalf("elapsed = %v", d)
	}
}

func TestProfileByName(t *testing.T) {
	if p, ok := ProfileByName("ext4"); !ok || p.Name != "ext4" {
		t.Fatal("ext4 lookup failed")
	}
	if _, ok := ProfileByName("zfs"); ok {
		t.Fatal("zfs should be unknown")
	}
}
