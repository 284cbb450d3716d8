// Package stack binds the simulation substrates into a simulated
// operating system: a vfs.FS for namespace semantics, a page cache, an
// I/O scheduler, and a block device, exposed to simulated threads
// through a UNIX system-call API of 80+ calls with per-platform
// surfaces.
//
// A System is both the machine a traced workload originally ran on and
// the machine ARTC replays onto; tracing is a hook that records every
// call into a trace.Trace.
package stack

import (
	"fmt"
	"sort"
	"time"

	"rootreplay/internal/cache"
	"rootreplay/internal/fault"
	"rootreplay/internal/sched"
	"rootreplay/internal/sim"
	"rootreplay/internal/storage"
	"rootreplay/internal/trace"
	"rootreplay/internal/vfs"
)

// DeviceKind selects the block device model for a Config.
type DeviceKind string

// Device kinds for Config.
const (
	DeviceHDD  DeviceKind = "hdd"
	DeviceRAID DeviceKind = "raid0" // two HDDs, 512 KiB chunk
	DeviceSSD  DeviceKind = "ssd"
)

// SchedulerKind selects the I/O scheduler for a Config.
type SchedulerKind string

// Scheduler kinds for Config.
const (
	SchedNoop     SchedulerKind = "noop"
	SchedCFQ      SchedulerKind = "cfq"
	SchedDeadline SchedulerKind = "deadline"
)

// Config describes a simulated machine. It is the unit of the paper's
// source/target matrix: trace on one Config, replay on another.
type Config struct {
	Name       string
	Platform   Platform
	Profile    FSProfile
	Device     DeviceKind
	Scheduler  SchedulerKind
	SliceSync  time.Duration // CFQ slice_sync; zero = default 100ms
	CachePages int64         // page-cache capacity; zero = 1 GiB worth
	SyscallCPU time.Duration // base CPU charge per syscall; zero = 1µs
	// WritebackDelay enables a pdflush-style background flusher: dirty
	// pages are written to the device this long after the first dirty
	// page appears, and periodically thereafter while dirty pages
	// remain. Zero disables background writeback (dirty data reaches the
	// device only through fsync/sync/eviction), which is the
	// configuration the calibrated experiments use.
	WritebackDelay time.Duration
	// Aging fragments file layout, modelling a file system aged by
	// real-world use (the initialization extension §4.3.2 suggests):
	// 0 is a fresh, contiguous layout; 1 splits every allocation into
	// scattered small extents. Sequential reads on an aged layout cost
	// seeks, as on a real aged disk.
	Aging float64
	// Faults, when non-nil, injects storage faults per the injector's
	// plan: each leaf device (RAID members individually) is wrapped so
	// transient errors and tail-latency spikes hit at completion time,
	// below the I/O scheduler. The injector is bound to this machine's
	// kernel; do not share one across concurrently running kernels. Nil
	// leaves the devices untouched (zero overhead).
	Faults *fault.Injector
}

// DefaultConfig returns a Linux/ext4/HDD/CFQ machine with a 1 GiB cache.
func DefaultConfig() Config {
	return Config{
		Name:      "linux-ext4-hdd",
		Platform:  Linux,
		Profile:   Ext4,
		Device:    DeviceHDD,
		Scheduler: SchedCFQ,
	}
}

// extent maps a contiguous range of file pages to device blocks.
type extent struct {
	firstPage int64
	lba       int64
	blocks    int64
}

// placement is the per-inode block layout, stored in vfs.Inode.Sys.
type placement struct {
	extents []extent
	// mapper is lbaOf bound once, so handing the cache a Mapper does not
	// allocate a method value per call.
	mapper cache.Mapper
}

// lbaOf returns the device block holding the given file page; the page
// must be covered by the placement.
func (p *placement) lbaOf(page int64) int64 {
	i := sort.Search(len(p.extents), func(i int) bool {
		e := p.extents[i]
		return page < e.firstPage+e.blocks
	})
	e := p.extents[i]
	return e.lba + (page - e.firstPage)
}

func (p *placement) coveredPages() int64 {
	if len(p.extents) == 0 {
		return 0
	}
	last := p.extents[len(p.extents)-1]
	return last.firstPage + last.blocks
}

// fdesc is an open file description. Its structs are recycled through
// System.freeDesc, so refs counts everything that may still write through
// the pointer: each descriptor number installed on it (dup shares one
// description) and each call that holds it across a blocking step.
type fdesc struct {
	refs     int
	nextFree *fdesc

	num    int64
	ino    *vfs.Inode
	flags  trace.OpenFlag
	off    int64
	isDir  bool
	dirPos int

	// Readahead state.
	lastPage int64
	raWindow int64
}

// aioState tracks an asynchronous I/O control block.
type aioState struct {
	id     int64
	fd     int64
	done   bool
	ret    int64
	err    vfs.Errno
	cond   *sim.Cond
	reaped bool
}

// Stats aggregates per-call timing, used for the thread-time breakdowns
// of Figure 10. The system accumulates by opcode; System.Stats renders
// this form.
type Stats struct {
	// CallTime sums in-call virtual time by call name.
	CallTime map[string]time.Duration
	// CallCount counts calls by name.
	CallCount map[string]int64
	// Errors counts calls that returned an error.
	Errors int64
	// ThreadTime sums in-call time across all threads.
	ThreadTime time.Duration
}

// System is a simulated machine: kernel + device + scheduler + cache +
// file system + descriptor table, with an optional tracer.
type System struct {
	K      *sim.Kernel
	Conf   Config
	FS     *vfs.FS
	Cache  *cache.Cache
	Sched  sched.Scheduler
	Dev    storage.Device
	tracer *trace.Trace

	// fds is the descriptor table, indexed by descriptor number (nil =
	// free). Every number in [3, minFree) is in use, so allocation starts
	// looking at minFree and an open costs the same however many
	// descriptors are held; fdProbes counts the slots it examined.
	fds      []*fdesc
	minFree  int64
	fdProbes int64
	freeDesc *fdesc
	cwd      *vfs.Inode
	aiocbs   map[int64]*aioState
	nextAIO  int64

	// Block allocator state. Metadata lives at low LBAs, the journal in
	// a fixed region, data beyond it.
	nextData   int64
	journalLBA int64
	journalOff int64

	openCount map[*vfs.Inode]int // open descriptors per inode, for deferred frees

	// agingRNG drives deterministic layout scatter when Conf.Aging > 0.
	agingRNG uint64

	traceStart time.Duration
	seq        int64

	// Per-call accounting by opcode (see Stats).
	callCount  [numOps]int64
	callTime   [numOps]time.Duration
	callErrors int64
	threadTime time.Duration

	// writebackArmed guards against double-scheduling the background
	// flusher.
	writebackArmed bool
}

const (
	metaRegionBlocks    = 1 << 20 // 4 GiB of model metadata space
	journalRegionBlocks = 1 << 15 // 128 MiB journal
	pageBlocks          = 1       // one cache page = one device block
	maxReadahead        = 32      // 128 KiB, the Linux default
)

// New builds a System from a Config on a fresh kernel-bound device
// chain.
func New(k *sim.Kernel, conf Config) *System {
	// leaf applies the fault plan to a leaf device (identity when no
	// injector is configured), so RAID members get per-device rates.
	leaf := func(d storage.Device) storage.Device {
		if conf.Faults == nil {
			return d
		}
		return conf.Faults.WrapDevice(k, d)
	}
	var dev storage.Device
	switch conf.Device {
	case DeviceSSD:
		dev = leaf(storage.NewSSD(k, conf.Name+"/ssd", storage.DefaultSSD()))
	case DeviceRAID:
		m0 := leaf(storage.NewHDD(k, conf.Name+"/hdd0", storage.DefaultHDD()))
		m1 := leaf(storage.NewHDD(k, conf.Name+"/hdd1", storage.DefaultHDD()))
		dev = storage.NewRAID0(conf.Name+"/raid0", 128, m0, m1)
	default:
		dev = leaf(storage.NewHDD(k, conf.Name+"/hdd", storage.DefaultHDD()))
	}
	var s sched.Scheduler
	switch conf.Scheduler {
	case SchedNoop:
		s = sched.NewNoop(dev)
	case SchedDeadline:
		s = sched.NewDeadline(k, dev, sched.DefaultDeadline())
	default:
		p := sched.DefaultCFQ()
		if conf.SliceSync > 0 {
			p.SliceSync = conf.SliceSync
		}
		s = sched.NewCFQ(k, dev, p)
	}
	pages := conf.CachePages
	if pages <= 0 {
		pages = 1 << 18 // 1 GiB
	}
	if conf.SyscallCPU <= 0 {
		conf.SyscallCPU = time.Microsecond
	}
	sys := &System{
		K:          k,
		Conf:       conf,
		FS:         vfs.New(),
		Cache:      cache.New(k, s, pages),
		Sched:      s,
		Dev:        dev,
		minFree:    firstFD,
		aiocbs:     make(map[int64]*aioState),
		nextAIO:    1,
		nextData:   metaRegionBlocks + journalRegionBlocks,
		journalLBA: metaRegionBlocks,
		openCount:  make(map[*vfs.Inode]int),
	}
	sys.cwd = sys.FS.Root()
	sys.FS.OnFree(func(ino *vfs.Inode) {
		if sys.openCount[ino] == 0 {
			sys.Cache.Drop(cache.FileID(ino.Ino))
		}
	})
	if conf.WritebackDelay > 0 {
		sys.Cache.OnFirstDirty(sys.armWriteback)
	}
	return sys
}

// armWriteback schedules a background flush WritebackDelay after the
// cache first becomes dirty (the pdflush model). The flush runs in its
// own short-lived simulated thread; if new pages were dirtied while it
// ran, another round is scheduled, and otherwise the next 0->1 dirty
// transition re-arms the timer. Because flushes are armed only while
// dirty data exists, the simulation still terminates when the workload
// does.
func (s *System) armWriteback() {
	if s.writebackArmed {
		return
	}
	s.writebackArmed = true
	s.K.After(s.Conf.WritebackDelay, func() {
		s.K.Spawn("writeback", func(t *sim.Thread) {
			s.Cache.SyncAll(t)
			s.writebackArmed = false
			if s.Cache.DirtyCount() > 0 {
				s.armWriteback()
			}
		})
	})
}

// SetTracer appends a Record for every syscall to tr, interning its
// strings into tr's table; nil stops tracing. Timestamps are relative to
// the moment the tracer is set.
func (s *System) SetTracer(tr *trace.Trace) {
	s.tracer = tr
	s.traceStart = s.K.Now()
	s.seq = 0
}

// str names v in the tracer's string table for an entry point's Record
// literal: the zero Str when nothing is traced, so an untraced call
// hashes no string.
func (s *System) str(v string) trace.Str {
	if s.tracer == nil {
		return 0
	}
	return s.tracer.Intern(v)
}

// Stats returns a snapshot of the accumulated per-call statistics, keyed
// by canonical call name; calls never made have no entry.
func (s *System) Stats() *Stats {
	st := &Stats{
		CallTime:   make(map[string]time.Duration),
		CallCount:  make(map[string]int64),
		Errors:     s.callErrors,
		ThreadTime: s.threadTime,
	}
	for op, n := range s.callCount {
		if n > 0 {
			st.CallCount[opNames[op]] = n
			st.CallTime[opNames[op]] = s.callTime[op]
		}
	}
	return st
}

// placementOf returns (allocating if needed) the block placement of ino,
// covering at least pages pages. With Conf.Aging > 0 allocations are
// split into scattered extents, modelling a fragmented, aged file
// system.
func (s *System) placementOf(ino *vfs.Inode, pages int64) *placement {
	p, _ := ino.Sys.(*placement)
	if p == nil {
		p = &placement{}
		p.mapper = p.lbaOf
		ino.Sys = p
	}
	covered := p.coveredPages()
	if pages <= covered {
		return p
	}
	need := pages - covered
	if need < 64 {
		need = 64 // allocate in 256 KiB chunks to bound extent count
	}
	if s.Conf.Aging <= 0 {
		lba := s.nextData
		s.nextData += need + s.Conf.Profile.AllocGapBlocks
		if len(p.extents) > 0 {
			last := &p.extents[len(p.extents)-1]
			if last.lba+last.blocks == lba {
				last.blocks += need
				return p
			}
		}
		p.extents = append(p.extents, extent{firstPage: covered, lba: lba, blocks: need})
		return p
	}
	// Aged layout: carve the allocation into small extents, each placed
	// after a pseudorandom gap proportional to the aging factor.
	first := covered
	for need > 0 {
		chunk := int64(16) // 64 KiB fragments
		if chunk > need {
			chunk = need
		}
		gap := int64(float64(s.nextRand()%4096) * s.Conf.Aging)
		lba := s.nextData + gap
		s.nextData = lba + chunk + s.Conf.Profile.AllocGapBlocks
		p.extents = append(p.extents, extent{firstPage: first, lba: lba, blocks: chunk})
		first += chunk
		need -= chunk
	}
	return p
}

// nextRand is a small deterministic xorshift for layout scatter.
func (s *System) nextRand() uint64 {
	if s.agingRNG == 0 {
		s.agingRNG = 0x9E3779B97F4A7C15
	}
	x := s.agingRNG
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.agingRNG = x
	return x
}

// mapperFor returns a cache.Mapper for ino covering at least pages.
func (s *System) mapperFor(ino *vfs.Inode, pages int64) cache.Mapper {
	return s.placementOf(ino, pages).mapper
}

// metaMapper maps the per-inode metadata blocks (FileID 0).
func metaMapper(page int64) int64 { return page % metaRegionBlocks }

// touchMeta charges a metadata-block read for ino (cold metadata causes
// device I/O; warm metadata is a cache hit).
func (s *System) touchMeta(t *sim.Thread, ino *vfs.Inode) {
	s.Cache.Read(t, 0, metaMapper, int64(ino.Ino), 1)
}

// journalCommit writes a journal transaction and charges its CPU cost.
// It is the media barrier of an fsync on Linux-semantics file systems.
func (s *System) journalCommit(t *sim.Thread) {
	prof := s.Conf.Profile
	if prof.JournalBlocks <= 0 {
		return
	}
	t.Sleep(prof.JournalCPU)
	lba := s.journalLBA + s.journalOff
	s.journalOff = (s.journalOff + int64(prof.JournalBlocks)) % journalRegionBlocks
	done := false
	c := sim.NewCond(s.K)
	s.Sched.Submit(&storage.Request{
		Kind: storage.Write, LBA: lba, Blocks: prof.JournalBlocks, Owner: t.ID(),
	}, func() {
		done = true
		c.Broadcast()
	})
	for !done {
		c.Wait(t, "journal commit")
	}
}

// callEntry is what a syscall entry point hands to record when the call
// returns: which call it is and when it was entered.
type callEntry struct {
	op Op
	at time.Duration
}

// enter charges the base syscall CPU cost and notes the entry time.
func (s *System) enter(t *sim.Thread, op Op) callEntry {
	start := s.K.Now()
	t.Sleep(s.Conf.SyscallCPU)
	return callEntry{op: op, at: start}
}

// record accounts one completed call and, when a tracer is attached,
// traces it. args holds the call's arguments; it is copied into the
// tracer's records, so the entry points' Record literals stay on their
// stacks (scripts/ci.sh allocs checks that they do).
func (s *System) record(t *sim.Thread, enter callEntry, args *trace.Record, ret int64, err vfs.Errno) (int64, vfs.Errno) {
	now := s.K.Now()
	s.callCount[enter.op]++
	s.callTime[enter.op] += now - enter.at
	s.threadTime += now - enter.at
	if err != vfs.OK {
		s.callErrors++
		ret = -1
	}
	if tr := s.tracer; tr != nil {
		rec := *args
		rec.Call = tr.Intern(opNames[enter.op])
		rec.Seq = s.seq
		s.seq++
		rec.TID = int32(t.ID())
		rec.Start = enter.at - s.traceStart
		rec.End = now - s.traceStart
		rec.Ret = ret
		if err != vfs.OK {
			rec.Err = tr.Intern(err.String())
		}
		tr.Records = append(tr.Records, rec)
	}
	return ret, err
}

// firstFD is the lowest number open and dup hand out; maxFD bounds the
// table the way RLIMIT_NOFILE does, so dup2 onto an absurd number is
// EBADF rather than a table of that size.
const (
	firstFD = 3
	maxFD   = 1 << 20
)

// fd looks up an open descriptor.
func (s *System) fd(n int64) (*fdesc, vfs.Errno) {
	if n < 0 || n >= int64(len(s.fds)) || s.fds[n] == nil {
		return nil, vfs.EBADF
	}
	return s.fds[n], vfs.OK
}

// lowestFreeFD returns the lowest unused descriptor number >= firstFD.
func (s *System) lowestFreeFD() int64 {
	n := s.minFree
	for n < int64(len(s.fds)) && s.fds[n] != nil {
		s.fdProbes++
		n++
	}
	return n
}

// installFD makes number n (free, or beyond the table) refer to f. A
// description installed under a second number is POSIX dup: both numbers
// share one file offset (and readahead state).
func (s *System) installFD(n int64, f *fdesc) {
	for int64(len(s.fds)) <= n {
		s.fds = append(s.fds, nil)
	}
	s.fds[n] = f
	if n == s.minFree {
		s.minFree = n + 1
	}
	f.refs++
	s.openCount[f.ino]++
}

// allocFD installs a new open file description at the lowest free
// number >= firstFD.
func (s *System) allocFD(ino *vfs.Inode, flags trace.OpenFlag) *fdesc {
	f := s.freeDesc
	if f != nil {
		s.freeDesc = f.nextFree
	} else {
		f = new(fdesc)
	}
	*f = fdesc{num: s.lowestFreeFD(), ino: ino, flags: flags, lastPage: -2}
	s.installFD(f.num, f)
	return f
}

// closeFD retires open descriptor number n: the number becomes free, and
// the last reference to an unlinked file releases the file.
func (s *System) closeFD(n int64) {
	f := s.fds[n]
	s.fds[n] = nil
	if n >= firstFD && n < s.minFree {
		s.minFree = n
	}
	s.openCount[f.ino]--
	if s.openCount[f.ino] == 0 {
		delete(s.openCount, f.ino)
		if f.ino.Nlink == 0 {
			s.Cache.Drop(cache.FileID(f.ino.Ino))
			s.FS.Release(f.ino)
		}
	}
	s.releaseDesc(f)
}

// releaseDesc drops one reference to f and recycles the struct once no
// number and no in-flight call refers to it.
func (s *System) releaseDesc(f *fdesc) {
	f.refs--
	if f.refs == 0 {
		*f = fdesc{nextFree: s.freeDesc}
		s.freeDesc = f
	}
}

func (s *System) String() string {
	return fmt.Sprintf("System(%s: %s/%s/%s/%s)", s.Conf.Name, s.Conf.Platform,
		s.Conf.Profile.Name, s.Conf.Device, s.Conf.Scheduler)
}
