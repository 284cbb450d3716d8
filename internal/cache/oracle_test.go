package cache

import (
	"container/list"
	"sort"

	"rootreplay/internal/sched"
	"rootreplay/internal/sim"
	"rootreplay/internal/storage"
)

// scanCache is the page cache as it was before the per-file indexes:
// Sync, SyncAll and Drop find their pages by walking the whole resident
// map. It is the reference the indexed Cache is tested against and
// nothing else; behaviour, statistics and request sequence must match.
// Only one simulated thread drives it, so it has no in-flight read
// sharing.
type scanCache struct {
	k     *sim.Kernel
	sched sched.Scheduler

	capacity int64
	pages    map[pageKey]*scanPage
	lru      *list.List
	dirty    int
	stats    Stats
}

type scanPage struct {
	key   pageKey
	dirty bool
	lru   *list.Element
	lba   int64
}

func newScanCache(k *sim.Kernel, s sched.Scheduler, capacityPages int64) *scanCache {
	return &scanCache{
		k:        k,
		sched:    s,
		capacity: capacityPages,
		pages:    make(map[pageKey]*scanPage),
		lru:      list.New(),
	}
}

func (c *scanCache) Stats() Stats    { return c.stats }
func (c *scanCache) Resident() int64 { return int64(len(c.pages)) }
func (c *scanCache) DirtyCount() int { return c.dirty }

func (c *scanCache) Contains(file FileID, idx int64) bool {
	_, ok := c.pages[pageKey{file, idx}]
	return ok
}

func (c *scanCache) insert(t *sim.Thread, key pageKey, lba int64, dirty bool) {
	if p, ok := c.pages[key]; ok {
		if dirty && !p.dirty {
			c.stats.Writes++
			p.dirty = true
			c.dirty++
		}
		c.lru.MoveToFront(p.lru)
		return
	}
	if t != nil {
		c.evictFor(t, 1)
	}
	p := &scanPage{key: key, lba: lba}
	p.lru = c.lru.PushFront(p)
	c.pages[key] = p
	if dirty {
		c.stats.Writes++
		p.dirty = true
		c.dirty++
	}
}

func (c *scanCache) evictFor(t *sim.Thread, n int64) {
	if c.capacity <= 0 {
		return
	}
	for int64(len(c.pages))+n > c.capacity {
		back := c.lru.Back()
		if back == nil {
			return
		}
		victim := back.Value.(*scanPage)
		if victim.dirty {
			c.writePages(t, []*scanPage{victim})
		}
		c.lru.Remove(victim.lru)
		delete(c.pages, victim.key)
		c.stats.Evictions++
	}
}

func (c *scanCache) Read(t *sim.Thread, file FileID, m Mapper, start, n int64) {
	type run struct{ first, count int64 }
	var runs []run
	for i := start; i < start+n; i++ {
		key := pageKey{file, i}
		if p, ok := c.pages[key]; ok {
			c.stats.Hits++
			c.lru.MoveToFront(p.lru)
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
	if len(runs) == 0 {
		return
	}
	remaining := len(runs)
	cond := sim.NewCond(c.k)
	for _, r := range runs {
		r := r
		req := &storage.Request{Kind: storage.Read, LBA: m(r.first), Blocks: int(r.count), Owner: t.ID()}
		c.sched.Submit(req, func() {
			for i := r.first; i < r.first+r.count; i++ {
				c.insert(nil, pageKey{file, i}, m(i), false)
			}
			remaining--
			if remaining == 0 {
				cond.Broadcast()
			}
		})
	}
	for remaining > 0 {
		cond.Wait(t, "page read")
	}
	c.evictFor(t, 0)
}

func (c *scanCache) Warm(file FileID, m Mapper, start, n int64) {
	for i := start; i < start+n; i++ {
		key := pageKey{file, i}
		if _, ok := c.pages[key]; ok {
			continue
		}
		if c.capacity > 0 && int64(len(c.pages)) >= c.capacity {
			return
		}
		p := &scanPage{key: key, lba: m(i)}
		p.lru = c.lru.PushFront(p)
		c.pages[key] = p
	}
}

func (c *scanCache) Write(t *sim.Thread, file FileID, m Mapper, start, n int64) {
	for i := start; i < start+n; i++ {
		c.insert(t, pageKey{file, i}, m(i), true)
	}
}

func (c *scanCache) Sync(t *sim.Thread, file FileID) int {
	var dirty []*scanPage
	for _, p := range c.pages {
		if p.key.file == file && p.dirty {
			dirty = append(dirty, p)
		}
	}
	if len(dirty) == 0 {
		return 0
	}
	c.writePages(t, dirty)
	return len(dirty)
}

func (c *scanCache) SyncAll(t *sim.Thread) int {
	var dirty []*scanPage
	for _, p := range c.pages {
		if p.dirty {
			dirty = append(dirty, p)
		}
	}
	if len(dirty) == 0 {
		return 0
	}
	c.writePages(t, dirty)
	return len(dirty)
}

func (c *scanCache) writePages(t *sim.Thread, pages []*scanPage) {
	sort.SliceStable(pages, func(i, j int) bool { return pages[i].lba < pages[j].lba })
	type run struct {
		lba    int64
		blocks int
	}
	var runs []run
	for _, p := range pages {
		if p.dirty {
			p.dirty = false
			c.dirty--
		}
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

func (c *scanCache) Drop(file FileID) {
	for key, p := range c.pages {
		if key.file == file {
			if p.dirty {
				c.dirty--
			}
			c.lru.Remove(p.lru)
			delete(c.pages, key)
		}
	}
}

func (c *scanCache) DropAll() {
	c.pages = make(map[pageKey]*scanPage)
	c.lru = list.New()
	c.dirty = 0
}
