// Package cache implements the simulated kernel's unified page cache.
//
// Pages are keyed by (file, page-index) and managed with LRU
// replacement. Reads that miss block the calling simulated thread while
// the backing blocks are fetched through the I/O scheduler; writes dirty
// pages in memory and are flushed on Sync (fsync) or when eviction needs
// a dirty victim. Each file's resident and dirty pages are also indexed
// per file, so fsync, sync and unlink cost the host what they touch, not
// what is resident. The cache's capacity is a first-class experimental
// parameter: the paper's §5.2.1 "Cache size" experiment traces on a 4 GB
// machine and replays on 1.5 GB (and vice versa).
package cache

import (
	"cmp"
	"fmt"
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

type pageKey struct {
	file FileID
	idx  int64
}

type page struct {
	key pageKey
	// newer and older link the page into the cache's recency list, from
	// Cache.mru (older) and Cache.lru (newer); nil at the respective end.
	newer, older *page
	lba          int64 // placement recorded at insert, used for writeback
	fpos         int   // position in fileIndex.pages
	dpos         int   // position in fileIndex.dirty; -1 while clean
}

// fileIndex lists one file's resident pages and, separately, its dirty
// ones, so Sync and Drop cost what that file holds rather than what the
// cache holds. Both slices are unordered (removal swaps the last entry
// in); writePages imposes the order. An index exists only while its
// file has a resident page.
type fileIndex struct {
	pages []*page
	dirty []*page
	qpos  int // position in Cache.dirtyFiles; -1 while dirty is empty
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
	pages    map[pageKey]*page
	mru, lru *page // ends of the recency list threaded through the pages
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
		pages:    make(map[pageKey]*page),
		reading:  make(map[pageKey]*inflight),
		files:    make(map[FileID]*fileIndex),
	}
}

// Stats returns a snapshot of activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// Resident reports the number of pages currently cached.
func (c *Cache) Resident() int64 { return int64(len(c.pages)) }

// Capacity returns the configured capacity in pages.
func (c *Cache) Capacity() int64 { return c.capacity }

// touch moves a page to the MRU position.
func (c *Cache) touch(p *page) {
	if c.mru != p {
		c.unlink(p)
		c.linkMRU(p)
	}
}

// linkMRU puts an unlinked page at the MRU end of the recency list.
func (c *Cache) linkMRU(p *page) {
	p.newer, p.older = nil, c.mru
	if c.mru != nil {
		c.mru.newer = p
	} else {
		c.lru = p
	}
	c.mru = p
}

// unlink takes a page out of the recency list.
func (c *Cache) unlink(p *page) {
	if p.newer != nil {
		p.newer.older = p.older
	} else {
		c.mru = p.older
	}
	if p.older != nil {
		p.older.newer = p.newer
	} else {
		c.lru = p.newer
	}
	p.newer, p.older = nil, nil
}

// add makes a clean page resident at the MRU position and enters it in
// its file's index.
func (c *Cache) add(key pageKey, lba int64) *page {
	fi := c.files[key.file]
	if fi == nil {
		fi = &fileIndex{qpos: -1}
		c.files[key.file] = fi
	}
	p := &page{key: key, lba: lba, fpos: len(fi.pages), dpos: -1}
	fi.pages = append(fi.pages, p)
	c.linkMRU(p)
	c.pages[key] = p
	return p
}

// remove makes a resident page non-resident without writeback. A page
// that already left (its file was dropped while an evicting thread
// waited on the device) is left alone.
func (c *Cache) remove(p *page) {
	if c.pages[p.key] != p {
		return
	}
	c.markClean(p)
	fi := c.files[p.key.file]
	var moved *page
	fi.pages, moved = swapOut(fi.pages, p.fpos)
	moved.fpos = p.fpos
	if len(fi.pages) == 0 {
		delete(c.files, p.key.file)
	}
	c.unlink(p)
	delete(c.pages, p.key)
}

// insert adds a page, evicting as needed when t is non-nil. The calling
// thread t performs any synchronous writeback eviction requires (write
// throttling). A nil t (kernel context, e.g. a read-completion callback)
// skips eviction; the waiting thread trims the cache after it wakes.
func (c *Cache) insert(t *sim.Thread, key pageKey, lba int64, dirty bool) *page {
	if p, ok := c.pages[key]; ok {
		if dirty {
			if p.dpos < 0 {
				c.stats.Writes++
				c.markDirty(p)
			}
		}
		c.touch(p)
		return p
	}
	if t != nil {
		c.evictFor(t, 1)
	}
	p := c.add(key, lba)
	if dirty {
		c.stats.Writes++
		c.markDirty(p)
	}
	return p
}

// markDirty transitions a clean page to dirty, maintaining the index
// and the count and firing the writeback trigger on the first dirty
// page.
func (c *Cache) markDirty(p *page) {
	if p.dpos >= 0 {
		return
	}
	fi := c.files[p.key.file]
	if len(fi.dirty) == 0 {
		fi.qpos = len(c.dirtyFiles)
		c.dirtyFiles = append(c.dirtyFiles, fi)
	}
	p.dpos = len(fi.dirty)
	fi.dirty = append(fi.dirty, p)
	c.dirty++
	if c.dirty == 1 && c.onFirstDirty != nil {
		c.onFirstDirty()
	}
}

// markClean is markDirty's inverse.
func (c *Cache) markClean(p *page) {
	if p.dpos < 0 {
		return
	}
	fi := c.files[p.key.file]
	var moved *page
	fi.dirty, moved = swapOut(fi.dirty, p.dpos)
	moved.dpos = p.dpos
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
func swapOut[T any](s []*T, i int) ([]*T, *T) {
	last := len(s) - 1
	moved := s[last]
	s[i] = moved
	s[last] = nil
	return s[:last], moved
}

// OnFirstDirty registers fn to run whenever the cache transitions from
// no dirty pages to one; the storage stack uses it to arm background
// writeback.
func (c *Cache) OnFirstDirty(fn func()) { c.onFirstDirty = fn }

// evictFor makes room for n new pages. Clean victims are dropped; dirty
// victims are written back synchronously by the calling thread.
func (c *Cache) evictFor(t *sim.Thread, n int64) {
	if c.capacity <= 0 {
		return
	}
	for int64(len(c.pages))+n > c.capacity {
		victim := c.lru
		if victim == nil {
			return
		}
		if victim.dpos >= 0 {
			c.writePages(t, []*page{victim})
		}
		c.remove(victim)
		c.stats.Evictions++
	}
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
	for i := start; i < start+n; i++ {
		key := pageKey{file, i}
		if p, ok := c.pages[key]; ok {
			c.stats.Hits++
			c.touch(p)
			continue
		}
		if inf, ok := c.reading[key]; ok {
			// Someone else is fetching this page.
			c.stats.Hits++
			waits = append(waits, inf)
			continue
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
			for i := r.first; i < r.first+r.count; i++ {
				key := pageKey{file, i}
				delete(c.reading, key)
				c.insert(nil, key, m(i), false)
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
	for i := start; i < start+n; i++ {
		key := pageKey{file, i}
		if _, ok := c.pages[key]; ok {
			continue
		}
		if c.capacity > 0 && int64(len(c.pages)) >= c.capacity {
			return
		}
		c.add(key, m(i))
	}
}

// Write dirties pages [start, start+n) of file in memory. It returns
// immediately in virtual time except when eviction forces writeback.
func (c *Cache) Write(t *sim.Thread, file FileID, m Mapper, start, n int64) {
	for i := start; i < start+n; i++ {
		c.insert(t, pageKey{file, i}, m(i), true)
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
	dirty := make([]*page, 0, c.dirty)
	for _, fi := range c.dirtyFiles {
		dirty = append(dirty, fi.dirty...)
	}
	c.writePages(t, dirty)
	return len(dirty)
}

// writePages issues write requests for the given pages (coalescing
// contiguous LBAs) and blocks t until all complete. Pages are marked
// clean when the writes are issued; the model does not redirty mid-write.
// It reorders pages, which must not alias an index slice.
func (c *Cache) writePages(t *sim.Thread, pages []*page) {
	// (lba, file, idx) is a total order over resident pages, so the
	// request sequence does not depend on the order the caller collected
	// them in, even when two files map onto the same LBA.
	slices.SortFunc(pages, func(a, b *page) int {
		return cmp.Or(
			cmp.Compare(a.lba, b.lba),
			cmp.Compare(a.key.file, b.key.file),
			cmp.Compare(a.key.idx, b.key.idx),
		)
	})
	type run struct {
		lba    int64
		blocks int
	}
	var runs []run
	for _, p := range pages {
		c.markClean(p)
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
	_, ok := c.pages[pageKey{file, idx}]
	return ok
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
	for _, p := range fi.pages {
		c.unlink(p)
		delete(c.pages, p.key)
	}
	if len(fi.dirty) > 0 {
		c.dirty -= len(fi.dirty)
		c.unlistDirty(fi)
	}
	delete(c.files, file)
}

// DropAll empties the cache without writeback (echo 3 >
// /proc/sys/vm/drop_caches between benchmark phases).
func (c *Cache) DropAll() {
	c.pages = make(map[pageKey]*page)
	c.mru, c.lru = nil, nil
	c.files = make(map[FileID]*fileIndex)
	c.dirtyFiles = nil
	c.dirty = 0
}

// HitLatency is the virtual CPU time charged by the stack for a page
// already in cache; exported for the stack's latency model.
const HitLatency = 2 * time.Microsecond
