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

// inflight tracks a page read that has been issued but not completed, so
// concurrent readers of the same page wait instead of duplicating I/O.
type inflight struct {
	cond *sim.Cond
	done bool
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
	reading  map[pageKey]*inflight

	// files indexes pages by file; dirtyFiles lists the indexes whose
	// dirty slice is non-empty, which is all SyncAll has to visit.
	files      map[FileID]*fileIndex
	dirtyFiles []*fileIndex

	// dirty counts dirty resident pages; onFirstDirty fires on each
	// 0 -> 1 transition (the background-writeback trigger).
	dirty        int
	onFirstDirty func()

	stats Stats
}

// New constructs a cache of capacityPages pages in front of s.
func New(k *sim.Kernel, s sched.Scheduler, capacityPages int64) *Cache {
	return &Cache{
		k:        k,
		sched:    s,
		capacity: capacityPages,
		next:     1,
		reading:  make(map[pageKey]*inflight),
		files:    make(map[FileID]*fileIndex),
	}
}

// Stats returns a snapshot of activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// Resident reports the number of pages currently cached.
func (c *Cache) Resident() int64 { return c.resident }

// Capacity returns the configured capacity in pages.
func (c *Cache) Capacity() int64 { return c.capacity }

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
	if c.dirty == 1 && c.onFirstDirty != nil {
		c.onFirstDirty()
	}
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

// OnFirstDirty registers fn to run whenever the cache transitions from
// no dirty pages to one; the storage stack uses it to arm background
// writeback.
func (c *Cache) OnFirstDirty(fn func()) { c.onFirstDirty = fn }

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
			c.writePages(t, []int32{victim})
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
	if n <= 0 {
		return
	}
	type run struct{ first, count int64 }
	var runs []run
	var waits []*inflight
	fi := c.files[file]
	for i := start; i < start+n; i++ {
		if s := fi.lookup(i); s != 0 {
			c.stats.Hits++
			c.touch(s)
			continue
		}
		if len(c.reading) > 0 {
			if inf, ok := c.reading[pageKey{file, i}]; ok {
				// Someone else is fetching this page.
				c.stats.Hits++
				waits = append(waits, inf)
				continue
			}
		}
		c.stats.Misses++
		if len(runs) > 0 {
			last := &runs[len(runs)-1]
			if last.first+last.count == i && m(i) == m(i-1)+1 {
				last.count++
				continue
			}
		}
		runs = append(runs, run{i, 1})
	}
	if len(runs) == 0 && len(waits) == 0 {
		return
	}
	remaining := len(runs)
	myWait := &inflight{cond: sim.NewCond(c.k)}
	for _, r := range runs {
		for i := r.first; i < r.first+r.count; i++ {
			c.reading[pageKey{file, i}] = myWait
		}
		r := r
		req := &storage.Request{
			Kind:   storage.Read,
			LBA:    m(r.first),
			Blocks: int(r.count),
			Owner:  t.ID(),
		}
		c.sched.Submit(req, func() {
			// Kernel context: insert without evicting; the waiting
			// thread trims the cache after it wakes.
			fi := c.index(file)
			for i := r.first; i < r.first+r.count; i++ {
				delete(c.reading, pageKey{file, i})
				if s := fi.lookup(i); s != 0 {
					c.touch(s)
				} else {
					c.add(fi, file, i, m(i))
				}
			}
			remaining--
			if remaining == 0 {
				myWait.done = true
				myWait.cond.Broadcast()
			}
		})
	}
	for remaining > 0 {
		myWait.cond.Wait(t, fmt.Sprintf("page read file=%d", file))
	}
	for _, w := range waits {
		for !w.done {
			w.cond.Wait(t, fmt.Sprintf("shared page read file=%d", file))
		}
	}
	// Completion callbacks inserted pages without evicting; trim back to
	// capacity now that we are in thread context.
	c.evictFor(t, 0)
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
	dirty := slices.Clone(fi.dirty)
	c.writePages(t, dirty)
	return len(dirty)
}

// SyncAll writes back every dirty page in the cache (the sync(2) call).
func (c *Cache) SyncAll(t *sim.Thread) int {
	if c.dirty == 0 {
		return 0
	}
	dirty := make([]int32, 0, c.dirty)
	for _, fi := range c.dirtyFiles {
		dirty = append(dirty, fi.dirty...)
	}
	c.writePages(t, dirty)
	return len(dirty)
}

// writePages issues write requests for the pages in the given slots
// (coalescing contiguous LBAs) and blocks t until all complete. Pages
// are marked clean when the writes are issued; the model does not
// redirty mid-write. It reorders slots, which must not alias an index
// slice.
func (c *Cache) writePages(t *sim.Thread, slots []int32) {
	// (lba, file, idx) is a total order over resident pages, so the
	// request sequence does not depend on the order the caller collected
	// them in, even when two files map onto the same LBA.
	slices.SortFunc(slots, func(a, b int32) int {
		p, q := c.at(a), c.at(b)
		return cmp.Or(
			cmp.Compare(p.lba, q.lba),
			cmp.Compare(p.file, q.file),
			cmp.Compare(p.idx, q.idx),
		)
	})
	type run struct {
		lba    int64
		blocks int
	}
	var runs []run
	for _, s := range slots {
		p := c.at(s)
		c.markClean(c.files[p.file], s)
		c.stats.Writebacks++
		if len(runs) > 0 && runs[len(runs)-1].lba+int64(runs[len(runs)-1].blocks) == p.lba {
			runs[len(runs)-1].blocks++
			continue
		}
		runs = append(runs, run{p.lba, 1})
	}
	remaining := len(runs)
	cond := sim.NewCond(c.k)
	for _, r := range runs {
		req := &storage.Request{Kind: storage.Write, LBA: r.lba, Blocks: r.blocks, Owner: t.ID()}
		c.sched.Submit(req, func() {
			remaining--
			if remaining == 0 {
				cond.Broadcast()
			}
		})
	}
	for remaining > 0 {
		cond.Wait(t, "writeback")
	}
}

// Contains reports whether the page is resident (for tests).
func (c *Cache) Contains(file FileID, idx int64) bool {
	return c.files[file].lookup(idx) != 0
}

// DirtyCount reports the number of dirty resident pages.
func (c *Cache) DirtyCount() int { return c.dirty }

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
