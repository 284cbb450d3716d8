// Package cache implements the simulated kernel's unified page cache.
//
// Pages are keyed by (file, page-index) and managed with LRU
// replacement. Reads that miss block the calling simulated thread while
// the backing blocks are fetched through the I/O scheduler; writes dirty
// pages in memory and are flushed on Sync (fsync) or when eviction needs
// a dirty victim. Resident pages are records of a pointer-free slab,
// found through a page table per file and listed per file with the dirty
// ones apart, so building a warm cache costs the host little per page
// and fsync, sync and unlink cost what they touch, not what is resident
// (DESIGN.md, Page cache). The cache's capacity is a first-class
// experimental parameter: the paper's §5.2.1 "Cache size" experiment
// traces on a 4 GB machine and replays on 1.5 GB (and vice versa).
package cache

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"rootreplay/internal/sched"
	"rootreplay/internal/sim"
	"rootreplay/internal/storage"
)

// FileID identifies a cached file. The stack uses vfs inode numbers.
type FileID uint64

// Mapper translates a file page index to a device LBA. The storage stack
// provides one per file based on its allocation policy.
type Mapper func(page int64) int64

// Stats counts cache activity.
type Stats struct {
	Hits       int64
	Misses     int64
	Writes     int64 // pages dirtied
	Writebacks int64 // pages written to the device
	Evictions  int64
}

// pageKey names a page in Cache.reading.
type pageKey struct {
	file FileID
	idx  int64
}

const (
	chunkBits = 10 // slab chunk: 1024 records, 48 KiB
	leafBits  = 9  // page-table leaf: 512 slots
)

// page is one record of the slab: 48 bytes and no pointers, so the
// collector never scans resident pages. Records refer to each other by
// slot number; slot 0 is never handed out and means "none".
type page struct {
	file FileID
	idx  int64
	lba  int64 // placement recorded at insert, used for writeback
	// gen is drawn from Cache.gen when the page becomes resident and is 0
	// while the slot is free. Slots are reused, so it takes (slot, gen) to
	// tell whether the page seen before a blocking call is still there.
	gen uint64
	// newer and older link the page into the cache's recency list, from
	// Cache.mru (older) and Cache.lru (newer); 0 at the respective end. A
	// free slot's older is the next free slot.
	newer, older int32
	fpos         int32 // position in fileIndex.pages
	dpos         int32 // position in fileIndex.dirty; -1 while clean
}

// fileIndex is one file's page table plus the lists of its resident and
// of its dirty pages, so a look-up hashes nothing per page and Sync and
// Drop cost what that file holds rather than what the cache holds. The
// table is leaves of 512 slots keyed by idx>>leafBits (the outline of
// Linux's per-inode i_pages): a page at offset 1 TiB costs one leaf, not
// a dense table. cur remembers the last leaf used. Both lists are
// unordered (removal swaps the last entry in); writePages imposes the
// order. An index exists only while its file has a resident page and a
// leaf only while it holds one: a *fileIndex does not survive evicting
// (the victim may be its last page) nor a call that can block (Drop runs
// on another simulated thread), which are evictFor when it returns true,
// writePages and the waits in Read. Look it up again after those.
type fileIndex struct {
	leaves map[int64]*leaf
	cur    *leaf
	curKey int64
	pages  []int32
	dirty  []int32
	qpos   int // position in Cache.dirtyFiles; -1 while dirty is empty
}

type leaf struct {
	slots [1 << leafBits]int32
	n     int // slots in use
}

// leaf returns the leaf keyed key, nil if there is none.
func (fi *fileIndex) leaf(key int64) *leaf {
	if fi.cur == nil || fi.curKey != key {
		l := fi.leaves[key]
		if l == nil {
			return nil
		}
		fi.cur, fi.curKey = l, key
	}
	return fi.cur
}

// lookup returns the slot of page idx, 0 if it is not resident. A nil
// index is that of a file with no resident page.
func (fi *fileIndex) lookup(idx int64) int32 {
	if fi == nil {
		return 0
	}
	if l := fi.leaf(idx >> leafBits); l != nil {
		return l.slots[idx&(1<<leafBits-1)]
	}
	return 0
}

// set enters page idx, not resident so far, at slot s.
func (fi *fileIndex) set(idx int64, s int32) {
	key := idx >> leafBits
	l := fi.leaf(key)
	if l == nil {
		if fi.leaves == nil {
			fi.leaves = make(map[int64]*leaf)
		}
		l = new(leaf)
		fi.leaves[key] = l
		fi.cur, fi.curKey = l, key
	}
	l.slots[idx&(1<<leafBits-1)] = s
	l.n++
}

// clear takes resident page idx out of the table, and its leaf with it
// when that was the leaf's last.
func (fi *fileIndex) clear(idx int64) {
	key := idx >> leafBits
	l := fi.leaf(key)
	l.slots[idx&(1<<leafBits-1)] = 0
	if l.n--; l.n == 0 {
		delete(fi.leaves, key)
		fi.cur = nil
	}
}

// readOp is the record of one Read that missed or found a page being
// fetched: the runs it fetches and the fetches of other readers it waits
// on. Other readers of a page it fetches find it in Cache.reading and
// wait on its cond. holds counts the threads that may still look at it,
// its own reader and each sharer, and the last to let go puts it back on
// Cache.readFree, so a reused record's cond, runs and wait reasons cost
// nothing (DESIGN.md, "I/O completion records").
type readOp struct {
	c         *Cache
	file      FileID
	m         Mapper
	runs      []*readRun // runs[:nruns] are this Read's
	nruns     int
	remaining int  // runs not yet completed
	done      bool // every run completed
	holds     int
	cond      *sim.Cond
	shared    []*readOp // fetches of others this Read waits on, one per page

	// readReason and sharedReason describe the two waits for a deadlock
	// report, bound once so a wait formats nothing.
	readReason, sharedReason func() string
}

// readRun is one contiguous fetch of a readOp: its request and the
// completion handed to the scheduler, bound once.
type readRun struct {
	op           *readOp
	first, count int64
	req          storage.Request
	fire         func()
}

// writeOp is the record of one writePages call: the slots it writes
// (Sync and SyncAll copy theirs here, so the sort does not reorder an
// index slice), one run per coalesced request, and the cond its thread
// waits on. Only that thread waits, so the record goes back on
// Cache.writeFree when the wait ends.
type writeOp struct {
	slots     []int32
	runs      []*writeRun // runs[:nruns] are this call's
	nruns     int
	remaining int
	cond      *sim.Cond
}

// writeRun is one coalesced write request of a writeOp and its
// completion, bound once.
type writeRun struct {
	op   *writeOp
	req  storage.Request
	fire func()
}

// Cache is the page cache. It is used only from simulated threads and
// kernel callbacks; like the rest of the simulation it needs no locking.
type Cache struct {
	k     *sim.Kernel
	sched sched.Scheduler

	capacity int64 // max resident pages; <=0 means unbounded
	resident int64

	// slab holds the page records in chunks that are never moved or
	// given back, so growth copies nothing, a *page stays valid across
	// inserts and every slot ever handed out stays addressable. Slots
	// below next have been handed out; free heads the list of those that
	// hold no page now. gen counts the pages ever made resident.
	slab       []*[1 << chunkBits]page
	next, free int32
	gen        uint64

	mru, lru int32 // ends of the recency list threaded through the pages
	reading  map[pageKey]*readOp

	// readFree and writeFree hold the idle I/O records. The cache is
	// used from one kernel only, so they need no lock.
	readFree  []*readOp
	writeFree []*writeOp

	// files indexes pages by file; dirtyFiles lists the indexes whose
	// dirty slice is non-empty, which is all SyncAll has to visit.
	files      map[FileID]*fileIndex
	dirtyFiles []*fileIndex

	// dirty counts dirty resident pages.
	dirty int

	stats Stats
}

// New constructs a cache of capacityPages pages in front of s.
func New(k *sim.Kernel, s sched.Scheduler, capacityPages int64) *Cache {
	return &Cache{
		k:        k,
		sched:    s,
		capacity: capacityPages,
		next:     1,
		reading:  make(map[pageKey]*readOp),
		files:    make(map[FileID]*fileIndex),
	}
}

// Stats returns a snapshot of activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// Resident reports the number of pages currently cached.
func (c *Cache) Resident() int64 { return c.resident }

// at returns the record in slot s.
func (c *Cache) at(s int32) *page { return &c.slab[s>>chunkBits][s&(1<<chunkBits-1)] }

// touch moves a page to the MRU position.
func (c *Cache) touch(s int32) {
	if c.mru != s {
		c.unlink(s)
		c.linkMRU(s)
	}
}

// linkMRU puts an unlinked page at the MRU end of the recency list.
func (c *Cache) linkMRU(s int32) {
	p := c.at(s)
	p.newer, p.older = 0, c.mru
	if c.mru != 0 {
		c.at(c.mru).newer = s
	} else {
		c.lru = s
	}
	c.mru = s
}

// unlink takes a page out of the recency list.
func (c *Cache) unlink(s int32) {
	p := c.at(s)
	if p.newer != 0 {
		c.at(p.newer).older = p.older
	} else {
		c.mru = p.older
	}
	if p.older != 0 {
		c.at(p.older).newer = p.newer
	} else {
		c.lru = p.newer
	}
	p.newer, p.older = 0, 0
}

// index returns file's index, creating it for a caller about to add a
// page to it.
func (c *Cache) index(file FileID) *fileIndex {
	fi := c.files[file]
	if fi == nil {
		fi = &fileIndex{qpos: -1}
		c.files[file] = fi
	}
	return fi
}

// add makes a clean page of fi's file resident at the MRU position, in
// a free slot or else a fresh one, and returns the slot.
func (c *Cache) add(fi *fileIndex, file FileID, idx, lba int64) int32 {
	s := c.free
	if s != 0 {
		c.free = c.at(s).older
	} else {
		if c.next == math.MaxInt32 {
			panic("cache: out of page slots")
		}
		if int(c.next>>chunkBits) == len(c.slab) {
			c.slab = append(c.slab, new([1 << chunkBits]page))
		}
		s = c.next
		c.next++
	}
	c.gen++
	*c.at(s) = page{file: file, idx: idx, lba: lba, gen: c.gen, fpos: int32(len(fi.pages)), dpos: -1}
	fi.pages = append(fi.pages, s)
	fi.set(idx, s)
	c.linkMRU(s)
	c.resident++
	return s
}

// release returns the slot of a page that is off the recency list to
// the free list.
func (c *Cache) release(s int32) {
	*c.at(s) = page{older: c.free}
	c.free = s
	c.resident--
}

// remove makes a resident page non-resident without writeback.
func (c *Cache) remove(s int32) {
	p := c.at(s)
	fi := c.files[p.file]
	c.markClean(fi, s)
	var moved int32
	fi.pages, moved = swapOut(fi.pages, int(p.fpos))
	c.at(moved).fpos = p.fpos
	fi.clear(p.idx)
	if len(fi.pages) == 0 {
		delete(c.files, p.file)
	}
	c.unlink(s)
	c.release(s)
}

// markDirty transitions a clean page of fi to dirty, maintaining the
// index and the count and firing the writeback trigger on the first
// dirty page.
func (c *Cache) markDirty(fi *fileIndex, s int32) {
	if len(fi.dirty) == 0 {
		fi.qpos = len(c.dirtyFiles)
		c.dirtyFiles = append(c.dirtyFiles, fi)
	}
	c.at(s).dpos = int32(len(fi.dirty))
	fi.dirty = append(fi.dirty, s)
	c.dirty++
}

// markClean is markDirty's inverse; a clean page is left alone.
func (c *Cache) markClean(fi *fileIndex, s int32) {
	p := c.at(s)
	if p.dpos < 0 {
		return
	}
	var moved int32
	fi.dirty, moved = swapOut(fi.dirty, int(p.dpos))
	c.at(moved).dpos = p.dpos
	p.dpos = -1
	if len(fi.dirty) == 0 {
		c.unlistDirty(fi)
	}
	c.dirty--
}

// unlistDirty takes fi, whose last dirty page just went, off dirtyFiles.
func (c *Cache) unlistDirty(fi *fileIndex) {
	var moved *fileIndex
	c.dirtyFiles, moved = swapOut(c.dirtyFiles, fi.qpos)
	moved.qpos = fi.qpos
	fi.qpos = -1
}

// swapOut removes s[i] by moving the last element into its place. It
// returns that element (s[i] itself when i was last) for the caller to
// record its new position i.
func swapOut[T any](s []T, i int) ([]T, T) {
	var zero T
	last := len(s) - 1
	moved := s[last]
	s[i] = moved
	s[last] = zero
	return s[:last], moved
}

// evictFor makes room for n new pages. Clean victims are dropped; dirty
// victims are written back synchronously by the calling thread. It
// reports whether it evicted anything.
func (c *Cache) evictFor(t *sim.Thread, n int64) (evicted bool) {
	if c.capacity <= 0 {
		return false
	}
	for c.resident+n > c.capacity && c.lru != 0 {
		victim := c.lru
		p := c.at(victim)
		gen := p.gen
		if p.dpos >= 0 {
			o := c.writeOp()
			o.slots = append(o.slots, victim)
			c.writePages(t, o)
		}
		// The victim may have left while t waited (its file was dropped,
		// or the whole cache) and its slot may hold another page by now.
		if p.gen == gen {
			c.remove(victim)
		}
		c.stats.Evictions++
		evicted = true
	}
	return evicted
}

// Read ensures pages [start, start+n) of file are resident, blocking t
// until any missing pages have been fetched. Contiguous missing runs are
// fetched in single device requests. The mapper supplies placement.
func (c *Cache) Read(t *sim.Thread, file FileID, m Mapper, start, n int64) {
	var o *readOp // taken at the first page that is not resident
	fi := c.files[file]
	for i := start; i < start+n; i++ {
		if s := fi.lookup(i); s != 0 {
			c.stats.Hits++
			c.touch(s)
			continue
		}
		if o == nil {
			o = c.readOp(file, m)
		}
		if len(c.reading) > 0 {
			if inf, ok := c.reading[pageKey{file, i}]; ok {
				// Someone else is fetching this page.
				c.stats.Hits++
				inf.holds++
				o.shared = append(o.shared, inf)
				continue
			}
		}
		c.stats.Misses++
		if o.nruns > 0 {
			last := o.runs[o.nruns-1]
			if last.first+last.count == i && m(i) == m(i-1)+1 {
				last.count++
				continue
			}
		}
		o.addRun(i)
	}
	if o == nil {
		return
	}
	o.remaining = o.nruns
	for _, r := range o.runs[:o.nruns] {
		for i := r.first; i < r.first+r.count; i++ {
			c.reading[pageKey{file, i}] = o
		}
		r.req = storage.Request{
			Kind:   storage.Read,
			LBA:    m(r.first),
			Blocks: int(r.count),
			Owner:  t.ID(),
		}
		c.sched.Submit(&r.req, r.fire)
	}
	for o.remaining > 0 {
		o.cond.WaitFn(t, o.readReason)
	}
	for _, w := range o.shared {
		for !w.done {
			w.cond.WaitFn(t, o.sharedReason)
		}
	}
	// Every wait is over: let go of o, then of the fetches it shared.
	// Nothing runs in between, so o's list of them is still intact even
	// if o is back on the free list.
	o.release()
	for _, w := range o.shared {
		w.release()
	}
	// Completion callbacks inserted pages without evicting; trim back to
	// capacity now that we are in thread context.
	c.evictFor(t, 0)
}

// readOp takes an idle read record, or makes one, for a Read of file
// through m held by its caller.
func (c *Cache) readOp(file FileID, m Mapper) *readOp {
	var o *readOp
	if n := len(c.readFree); n > 0 {
		o, c.readFree = c.readFree[n-1], c.readFree[:n-1]
	} else {
		o = &readOp{c: c, cond: sim.NewCond(c.k)}
		o.readReason, o.sharedReason = o.describeRead, o.describeShared
	}
	o.file, o.m, o.holds, o.shared = file, m, 1, o.shared[:0]
	return o
}

func (o *readOp) describeRead() string {
	return fmt.Sprintf("page read file=%d", o.file)
}

func (o *readOp) describeShared() string {
	return fmt.Sprintf("shared page read file=%d", o.file)
}

// addRun starts a run of one page at first.
func (o *readOp) addRun(first int64) {
	if o.nruns == len(o.runs) {
		r := &readRun{op: o}
		r.fire = r.complete
		o.runs = append(o.runs, r)
	}
	r := o.runs[o.nruns]
	r.first, r.count = first, 1
	o.nruns++
}

// complete runs in kernel context when the run's request is done. It
// inserts without evicting; the waiting thread trims the cache after it
// wakes.
func (r *readRun) complete() {
	o := r.op
	c := o.c
	fi := c.index(o.file)
	for i := r.first; i < r.first+r.count; i++ {
		delete(c.reading, pageKey{o.file, i})
		if s := fi.lookup(i); s != 0 {
			c.touch(s)
		} else {
			c.add(fi, o.file, i, o.m(i))
		}
	}
	o.remaining--
	if o.remaining == 0 {
		o.done = true
		o.cond.Broadcast()
	}
}

// release lets go of one hold on o. The last hold is let go only after
// every run has completed (its reader waited for that) and no thread
// waits on o any more, so o can go back on the free list.
func (o *readOp) release() {
	if o.holds--; o.holds > 0 {
		return
	}
	o.m, o.nruns, o.done = nil, 0, false
	o.c.readFree = append(o.c.readFree, o)
}

// Warm makes pages [start, start+n) of file resident and clean in zero
// virtual time: the instant-setup analogue of Read, for constructing a
// machine whose caches are hot at measurement start. Stats stay
// untouched — warming happens outside the measured run — and warming
// stops at capacity rather than evicting resident state.
func (c *Cache) Warm(file FileID, m Mapper, start, n int64) {
	room := n
	if c.capacity > 0 {
		room = min(n, c.capacity-c.resident)
	}
	if room <= 0 {
		return
	}
	// A new index gets its first page below: none of the file's is
	// resident and there is room for one.
	fi := c.index(file)
	fi.pages = slices.Grow(fi.pages, int(room))
	for i := start; i < start+n && room > 0; i++ {
		if fi.lookup(i) == 0 {
			c.add(fi, file, i, m(i))
			room--
		}
	}
}

// Write dirties pages [start, start+n) of file in memory. It returns
// immediately in virtual time except when eviction forces writeback.
// The calling thread t performs any synchronous writeback eviction
// requires (write throttling).
func (c *Cache) Write(t *sim.Thread, file FileID, m Mapper, start, n int64) {
	fi := c.files[file]
	for i := start; i < start+n; i++ {
		s := fi.lookup(i)
		if s == 0 && c.evictFor(t, 1) {
			// The index may be gone or, if t waited on the device, the
			// page brought in.
			fi = c.files[file]
			s = fi.lookup(i)
		}
		if s != 0 {
			c.touch(s)
		} else {
			if fi == nil {
				fi = c.index(file)
			}
			s = c.add(fi, file, i, m(i))
		}
		if c.at(s).dpos < 0 {
			c.stats.Writes++
			c.markDirty(fi, s)
		}
	}
}

// Sync writes back every dirty page of file, blocking t until the device
// has them. It returns the number of pages written.
func (c *Cache) Sync(t *sim.Thread, file FileID) int {
	fi := c.files[file]
	if fi == nil || len(fi.dirty) == 0 {
		return 0
	}
	o := c.writeOp()
	o.slots = append(o.slots, fi.dirty...)
	n := len(o.slots)
	c.writePages(t, o)
	return n
}

// SyncAll writes back every dirty page in the cache (the sync(2) call).
func (c *Cache) SyncAll(t *sim.Thread) int {
	if c.dirty == 0 {
		return 0
	}
	o := c.writeOp()
	for _, fi := range c.dirtyFiles {
		o.slots = append(o.slots, fi.dirty...)
	}
	n := len(o.slots)
	c.writePages(t, o)
	return n
}

// writeOp takes an idle write record, or makes one, with no slots.
func (c *Cache) writeOp() *writeOp {
	if n := len(c.writeFree); n > 0 {
		o := c.writeFree[n-1]
		c.writeFree = c.writeFree[:n-1]
		return o
	}
	return &writeOp{cond: sim.NewCond(c.k)}
}

// writePages issues write requests for the pages in o's slots
// (coalescing contiguous LBAs) and blocks t until all complete, then
// puts o back on the free list. Pages are marked clean when the writes
// are issued; the model does not redirty mid-write.
func (c *Cache) writePages(t *sim.Thread, o *writeOp) {
	// (lba, file, idx) is a total order over resident pages, so the
	// request sequence does not depend on the order the caller collected
	// them in, even when two files map onto the same LBA.
	slices.SortFunc(o.slots, func(a, b int32) int {
		p, q := c.at(a), c.at(b)
		return cmp.Or(
			cmp.Compare(p.lba, q.lba),
			cmp.Compare(p.file, q.file),
			cmp.Compare(p.idx, q.idx),
		)
	})
	var last *storage.Request
	for _, s := range o.slots {
		p := c.at(s)
		c.markClean(c.files[p.file], s)
		c.stats.Writebacks++
		if last != nil && last.End() == p.lba {
			last.Blocks++
			continue
		}
		if o.nruns == len(o.runs) {
			r := &writeRun{op: o}
			r.fire = r.complete
			o.runs = append(o.runs, r)
		}
		last = &o.runs[o.nruns].req
		*last = storage.Request{Kind: storage.Write, LBA: p.lba, Blocks: 1, Owner: t.ID()}
		o.nruns++
	}
	o.remaining = o.nruns
	for _, r := range o.runs[:o.nruns] {
		c.sched.Submit(&r.req, r.fire)
	}
	for o.remaining > 0 {
		o.cond.Wait(t, "writeback")
	}
	// Every completion has run and only t waited: o is idle.
	o.slots, o.nruns = o.slots[:0], 0
	c.writeFree = append(c.writeFree, o)
}

// complete runs in kernel context when the run's request is done.
func (r *writeRun) complete() {
	o := r.op
	if o.remaining--; o.remaining == 0 {
		o.cond.Broadcast()
	}
}

// Contains reports whether the page is resident (for tests).
func (c *Cache) Contains(file FileID, idx int64) bool {
	return c.files[file].lookup(idx) != 0
}

// Drop removes all pages of file without writeback (used when a deleted
// file's last reference goes away; dirty pages of an unlinked file need
// not reach the device).
func (c *Cache) Drop(file FileID) {
	fi := c.files[file]
	if fi == nil {
		return
	}
	for _, s := range fi.pages {
		c.unlink(s)
		c.release(s)
	}
	if len(fi.dirty) > 0 {
		c.dirty -= len(fi.dirty)
		c.unlistDirty(fi)
	}
	delete(c.files, file)
}

// DropAll empties the cache without writeback (echo 3 >
// /proc/sys/vm/drop_caches between benchmark phases). Every slot goes
// through release, so no generation outlives it.
func (c *Cache) DropAll() {
	for s := c.mru; s != 0; {
		older := c.at(s).older
		c.release(s)
		s = older
	}
	c.mru, c.lru = 0, 0
	c.files = make(map[FileID]*fileIndex)
	c.dirtyFiles = nil
	c.dirty = 0
}

// HitLatency is the virtual CPU time charged by the stack for a page
// already in cache; exported for the stack's latency model.
const HitLatency = 2 * time.Microsecond
