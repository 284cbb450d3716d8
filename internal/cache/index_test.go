package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"rootreplay/internal/sched"
	"rootreplay/internal/sim"
	"rootreplay/internal/storage"
)

// recorder is a scheduler that notes every request on its way through.
type recorder struct {
	sched.Scheduler
	reqs []storage.Request
}

func (r *recorder) Submit(req *storage.Request, done func()) {
	r.reqs = append(r.reqs, *req)
	r.Scheduler.Submit(req, done)
}

func recordedEnv(k *sim.Kernel) *recorder {
	return &recorder{Scheduler: sched.NewNoop(storage.NewHDD(k, "d", storage.DefaultHDD()))}
}

// DirtyCount reports the number of dirty resident pages.
func (c *Cache) DirtyCount() int { return c.dirty }

// recency lists the resident pages from most to least recently used.
func (c *Cache) recency() []pageKey {
	var keys []pageKey
	for s := c.mru; s != 0; s = c.at(s).older {
		keys = append(keys, pageKey{c.at(s).file, c.at(s).idx})
	}
	return keys
}

func (c *scanCache) recency() []pageKey {
	var keys []pageKey
	for e := c.lru.Front(); e != nil; e = e.Next() {
		keys = append(keys, e.Value.(*scanPage).key)
	}
	return keys
}

// checkIndex audits the whole layout. The recency list holds every
// resident page once with its links paired; each listed page is where
// its file's page table, pages list and (when dirty) dirty list say;
// the free list holds every other slot handed out and none of them
// carries a generation; no two pages share one; every leaf counts its
// non-zero slots and none is empty, no more than any fileIndex; and the
// counters equal the sums.
func checkIndex(c *Cache) error {
	listed := make(map[int32]bool)
	gens := make(map[uint64]bool)
	pages := make(map[FileID]int)
	dirty := make(map[FileID]int)
	for s, newer := c.mru, int32(0); s != 0; s, newer = c.at(s).older, s {
		p := c.at(s)
		key := pageKey{p.file, p.idx}
		if s >= c.next || p.newer != newer || listed[s] {
			return fmt.Errorf("recency list broken at slot %d %v", s, key)
		}
		if p.older == 0 && c.lru != s {
			return fmt.Errorf("recency list ends at %v, lru is elsewhere", key)
		}
		listed[s] = true
		if p.gen == 0 || p.gen > c.gen || gens[p.gen] {
			return fmt.Errorf("page %v has generation %d of %d, or shares it", key, p.gen, c.gen)
		}
		gens[p.gen] = true
		fi := c.files[p.file]
		if fi == nil {
			return fmt.Errorf("page %v resident, file has no index", key)
		}
		if fi.lookup(p.idx) != s {
			return fmt.Errorf("page %v in slot %d, page table says %d", key, s, fi.lookup(p.idx))
		}
		if int(p.fpos) >= len(fi.pages) || fi.pages[p.fpos] != s {
			return fmt.Errorf("page %v not at fpos %d", key, p.fpos)
		}
		pages[p.file]++
		if p.dpos >= 0 {
			if int(p.dpos) >= len(fi.dirty) || fi.dirty[p.dpos] != s {
				return fmt.Errorf("dirty page %v not at dpos %d", key, p.dpos)
			}
			dirty[p.file]++
		}
	}
	if int64(len(listed)) != c.resident || (len(listed) == 0 && c.lru != 0) {
		return fmt.Errorf("recency list holds %d pages, %d resident", len(listed), c.resident)
	}
	free := 0
	for s := c.free; s != 0; s = c.at(s).older {
		if s >= c.next || listed[s] || c.at(s).gen != 0 {
			return fmt.Errorf("free list holds slot %d: beyond next %d, resident, or generation %d live", s, c.next, c.at(s).gen)
		}
		listed[s] = true
		free++
	}
	if handed := int(c.next) - 1; len(listed) != handed || handed > len(c.slab)<<chunkBits {
		return fmt.Errorf("%d slots handed out of %d chunks, %d resident + %d free", handed, len(c.slab), len(listed)-free, free)
	}
	var nPages, nDirty, nDirtyFiles int
	for file, fi := range c.files {
		if len(fi.pages) == 0 {
			return fmt.Errorf("file %d: empty index left behind", file)
		}
		if len(fi.pages) != pages[file] || len(fi.dirty) != dirty[file] {
			return fmt.Errorf("file %d: index has %d pages %d dirty, recency list has %d and %d",
				file, len(fi.pages), len(fi.dirty), pages[file], dirty[file])
		}
		inLeaves := 0
		for key, l := range fi.leaves {
			used := 0
			for _, s := range l.slots {
				if s != 0 {
					used++
				}
			}
			if used != l.n || used == 0 {
				return fmt.Errorf("file %d: leaf %d counts %d pages and holds %d", file, key, l.n, used)
			}
			inLeaves += used
		}
		if inLeaves != len(fi.pages) {
			return fmt.Errorf("file %d: page table holds %d pages, index %d", file, inLeaves, len(fi.pages))
		}
		if fi.cur != nil && fi.leaves[fi.curKey] != fi.cur {
			return fmt.Errorf("file %d: cursor on a leaf that left the table", file)
		}
		if len(fi.dirty) > 0 {
			nDirtyFiles++
			if fi.qpos >= len(c.dirtyFiles) || c.dirtyFiles[fi.qpos] != fi {
				return fmt.Errorf("file %d: not at qpos %d of dirtyFiles", file, fi.qpos)
			}
		} else if fi.qpos != -1 {
			return fmt.Errorf("file %d: clean but qpos %d", file, fi.qpos)
		}
		nPages += len(fi.pages)
		nDirty += len(fi.dirty)
	}
	if c.Resident() != int64(nPages) || c.DirtyCount() != nDirty || len(c.dirtyFiles) != nDirtyFiles {
		return fmt.Errorf("Resident %d DirtyCount %d dirtyFiles %d, indexes sum to %d, %d, %d",
			c.Resident(), c.DirtyCount(), len(c.dirtyFiles), nPages, nDirty, nDirtyFiles)
	}
	return nil
}

// pageCache is what Cache and the scanCache oracle have in common.
type pageCache interface {
	Read(*sim.Thread, FileID, Mapper, int64, int64)
	Write(*sim.Thread, FileID, Mapper, int64, int64)
	Warm(FileID, Mapper, int64, int64)
	Sync(*sim.Thread, FileID) int
	SyncAll(*sim.Thread) int
	Drop(FileID)
	DropAll()
}

// The differential harness. One stream of operations, decoded from
// bytes so that the table test and the fuzz target share it, drives the
// Cache and the scanCache oracle, each on a kernel of its own. Five
// files overlap on the device, so writeback meets equal LBAs, and the
// capacity is small enough that writes evict dirty victims. Page indexes
// come from three bands — 0 to 55, either side of the first leaf
// boundary, and either side of a leaf boundary beyond 1<<30 — so that
// leaves are created, emptied by eviction and freed, and consecutive
// operations on a file miss its cursor.
const (
	opFiles    = 5
	opCapacity = 64
)

type opKind int

const (
	opWrite opKind = iota
	opRead
	opWarm
	opSync
	opSyncAll
	opDrop
	opDropAll
)

type cacheOp struct {
	kind     opKind
	file     FileID
	start, n int64
}

// opBands are the first page indexes of the three bands.
var opBands = [3]int64{0, 1<<leafBits - 8, 1<<30 + 1<<leafBits - 8}

// decodeOps reads four bytes an operation: kind, file and band, offset
// in the band, page count.
func decodeOps(data []byte) []cacheOp {
	var ops []cacheOp
	for ; len(data) >= 4; data = data[4:] {
		op := cacheOp{file: FileID(data[1] % opFiles), n: int64(data[3]%8) + 1}
		switch k := data[0] % 32; {
		case k < 12:
			op.kind = opWrite
		case k < 18:
			op.kind = opRead
		case k < 21:
			op.kind = opWarm
		case k < 26:
			op.kind = opSync
		case k < 28:
			op.kind = opSyncAll
		case k < 31:
			op.kind = opDrop
		default:
			op.kind = opDropAll
		}
		switch band := data[1] / opFiles % 3; band {
		case 0:
			op.start = int64(data[2] % 48)
		default:
			op.start = opBands[band] + int64(data[2]%16)
		}
		ops = append(ops, op)
	}
	return ops
}

// seedOps is the byte stream of one seed of the table test.
func seedOps(seed int64) []byte {
	data := make([]byte, 4*4000)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// opMapper places file f's pages so that files, and a file's bands,
// overlap on the device.
func opMapper(f FileID) Mapper {
	return func(page int64) int64 { return int64(f)*40 + page&1023 }
}

// apply runs op on pc and returns what a Sync or SyncAll returned, else -1.
func (op cacheOp) apply(th *sim.Thread, pc pageCache) int {
	switch op.kind {
	case opWrite:
		pc.Write(th, op.file, opMapper(op.file), op.start, op.n)
	case opRead:
		pc.Read(th, op.file, opMapper(op.file), op.start, op.n)
	case opWarm:
		pc.Warm(op.file, opMapper(op.file), op.start, op.n)
	case opSync:
		return pc.Sync(th, op.file)
	case opSyncAll:
		return pc.SyncAll(th)
	case opDrop:
		pc.Drop(op.file)
	case opDropAll:
		pc.DropAll()
	}
	return -1
}

// opCoverage counts the situations a stream put the Cache in.
type opCoverage struct {
	warmFull     int // Warm with the cache at capacity
	warmPartial  int // Warm that filled the cache and left pages out
	leavesFreed  int // leaves emptied by eviction, not by Drop
	cursorMisses int // Read or Write starting off the file's cursor
	dropAlls     int
}

func (c *Cache) leaves() int {
	n := 0
	for _, fi := range c.files {
		n += len(fi.leaves)
	}
	return n
}

// diffOps runs ops on the oracle and then on the Cache. After every step
// checkIndex must pass and the step must have ended at the oracle's
// virtual time with the oracle's page count written and the oracle's
// recency order, which is the eviction order (the oracle keeps its LRU
// in a container/list, as the cache did before the list moved into the
// pages); at the end both must have sent the device the same requests
// and hold the same pages with the same statistics.
func diffOps(ops []cacheOp) (cov opCoverage, st Stats, err error) {
	kc, ko := sim.NewKernel(), sim.NewKernel()
	rc, ro := recordedEnv(kc), recordedEnv(ko)
	c, o := New(kc, rc, opCapacity), newScanCache(ko, ro, opCapacity)

	var oracleSynced []int
	var oracleTimes []time.Duration
	var oracleRecency [][]pageKey
	ko.Spawn("driver", func(th *sim.Thread) {
		for _, op := range ops {
			oracleSynced = append(oracleSynced, op.apply(th, o))
			oracleTimes = append(oracleTimes, ko.Now())
			oracleRecency = append(oracleRecency, o.recency())
		}
	})
	if err := ko.Run(); err != nil {
		return cov, st, err
	}
	var failed error
	kc.Spawn("driver", func(th *sim.Thread) {
		for step, op := range ops {
			before, leaves := c.Resident(), c.leaves()
			switch fi := c.files[op.file]; {
			case op.kind == opWarm && before == opCapacity:
				cov.warmFull++
			case op.kind == opDropAll:
				cov.dropAlls++
			case op.kind <= opRead && fi != nil && fi.cur != nil && fi.curKey != op.start>>leafBits:
				cov.cursorMisses++
			}
			synced := op.apply(th, c)
			if op.kind == opWarm && before < opCapacity && c.Resident() == opCapacity && !c.Contains(op.file, op.start+op.n-1) {
				cov.warmPartial++
			}
			if op.kind <= opWarm && c.leaves() < leaves {
				cov.leavesFreed++
			}
			if err := checkIndex(c); err != nil {
				failed = fmt.Errorf("step %d (%+v): %v", step, op, err)
			} else if synced != oracleSynced[step] || kc.Now() != oracleTimes[step] {
				failed = fmt.Errorf("step %d (%+v): synced %d at %v, oracle %d at %v",
					step, op, synced, kc.Now(), oracleSynced[step], oracleTimes[step])
			} else if !slices.Equal(c.recency(), oracleRecency[step]) {
				failed = fmt.Errorf("step %d (%+v): recency order differs from the oracle's", step, op)
			}
			if failed != nil {
				return
			}
		}
	})
	if err := kc.Run(); err != nil {
		return cov, st, err
	}
	if failed != nil {
		return cov, st, failed
	}
	if !slices.Equal(rc.reqs, ro.reqs) {
		return cov, st, fmt.Errorf("request sequences differ (%d vs oracle %d requests)", len(rc.reqs), len(ro.reqs))
	}
	if c.Stats() != o.Stats() || c.Resident() != o.Resident() || c.DirtyCount() != o.DirtyCount() {
		return cov, st, fmt.Errorf("stats %+v resident %d dirty %d, oracle %+v %d %d",
			c.Stats(), c.Resident(), c.DirtyCount(), o.Stats(), o.Resident(), o.DirtyCount())
	}
	for f := FileID(0); f < opFiles; f++ {
		for _, first := range opBands {
			for i := first; i < first+64; i++ {
				if c.Contains(f, i) != o.Contains(f, i) {
					return cov, st, fmt.Errorf("page (%d,%d) resident %v, oracle %v", f, i, c.Contains(f, i), o.Contains(f, i))
				}
			}
		}
	}
	return cov, c.Stats(), nil
}

// TestIndexMatchesScanOracle runs four seeded streams through diffOps
// and requires each to have reached every situation opCoverage counts.
func TestIndexMatchesScanOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		cov, st, err := diffOps(decodeOps(seedOps(seed)))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if st.Evictions == 0 || st.Writebacks == 0 || cov.warmFull == 0 || cov.warmPartial == 0 ||
			cov.leavesFreed == 0 || cov.cursorMisses == 0 || cov.dropAlls == 0 {
			t.Fatalf("seed %d: sequence left something out: %+v %+v", seed, st, cov)
		}
		t.Logf("seed %d: %+v %+v", seed, st, cov)
	}
}

// FuzzCacheOps feeds diffOps whatever the fuzzer makes of the table
// test's four streams, a thousand operations of each so that an
// execution takes milliseconds.
func FuzzCacheOps(f *testing.F) {
	const most = 4 * 1000
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seedOps(seed)[:most])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, _, err := diffOps(decodeOps(data[:min(len(data), most)])); err != nil {
			t.Fatal(err)
		}
	})
}

// TestOverlappingLBAsWriteInOneOrder maps two files onto overlapping
// LBAs and checks that writeback submits the same requests every run:
// the order of equal-LBA pages comes from (lba, file, idx), not from the
// order pages were collected in.
func TestOverlappingLBAsWriteInOneOrder(t *testing.T) {
	run := func() []storage.Request {
		k := sim.NewKernel()
		r := recordedEnv(k)
		c := New(k, r, 0)
		k.Spawn("w", func(th *sim.Thread) {
			c.Write(th, 2, ident(104), 0, 8)
			c.Write(th, 1, ident(100), 0, 8)
			c.SyncAll(th)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return r.reqs
	}
	want := run()
	if len(want) < 2 {
		t.Fatalf("overlap did not split the writeback: %+v", want)
	}
	for i := 0; i < 100; i++ {
		if got := run(); !slices.Equal(got, want) {
			t.Fatalf("run %d: requests %+v, first run %+v", i, got, want)
		}
	}
}

// TestDropDuringEvictionWriteback drops a file while another thread is
// blocked writing back one of its pages as an eviction victim; the
// evictor must find the page already gone and leave the indexes whole.
func TestDropDuringEvictionWriteback(t *testing.T) {
	k, c, _ := env(2)
	k.Spawn("evictor", func(th *sim.Thread) {
		c.Write(th, 1, ident(0), 0, 2)
		c.Write(th, 2, ident(100), 0, 1) // evicts dirty (1,0): blocks on the device
		if err := checkIndex(c); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("unlinker", func(th *sim.Thread) {
		th.Sleep(time.Microsecond)
		if st := c.Stats(); st.Writebacks != 1 || st.Evictions != 0 {
			t.Errorf("no eviction writeback under way to drop into: %+v", st)
		}
		c.Drop(1)
		if err := checkIndex(c); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Resident() != 1 || !c.Contains(2, 0) || c.DirtyCount() != 1 || c.Stats().Evictions != 1 {
		t.Fatalf("resident %d dirty %d evictions %d", c.Resident(), c.DirtyCount(), c.Stats().Evictions)
	}
}

// TestSlotReuseDuringEvictionWriteback has one thread blocked writing
// back its eviction victim, dirty page (1,0), while a second drops the
// page and at once makes another resident, which takes the slot just
// freed: a page of another file, then the same page (1,0) again, then a
// page after DropAll. The slot number cannot tell the evictor that its
// victim left; the generation must, so the newcomer stays. The first
// and third runs must also match scanCache at every observation. The
// second is beyond it: the oracle evicts by key and would take the
// newcomer out.
func TestSlotReuseDuringEvictionWriteback(t *testing.T) {
	type observed interface {
		pageCache
		recency() []pageKey
		Stats() Stats
		DirtyCount() int
	}
	type snap struct {
		at      time.Duration
		recency []pageKey
		stats   Stats
		dirty   int
	}
	for _, v := range []struct {
		name     string
		intrude  func(pc pageCache)
		newcomer pageKey
		oracle   bool
		want     []pageKey // MRU first, when both threads are done
	}{
		{"another file", func(pc pageCache) { pc.Drop(1); pc.Warm(3, ident(300), 0, 1) },
			pageKey{3, 0}, true, []pageKey{{2, 0}, {3, 0}}},
		{"the same page", func(pc pageCache) { pc.Drop(1); pc.Warm(1, ident(0), 0, 1) },
			pageKey{1, 0}, false, []pageKey{{2, 0}, {1, 0}}},
		{"after DropAll", func(pc pageCache) { pc.DropAll(); pc.Warm(3, ident(300), 0, 1) },
			pageKey{3, 0}, true, []pageKey{{2, 0}, {3, 0}}},
	} {
		// run plays the scene on pc. It calls full before the evicting
		// write and between once the intruder has acted, with the
		// evictor still waiting on the device.
		run := func(k *sim.Kernel, pc observed, full, between func()) []snap {
			var snaps []snap
			observe := func() {
				snaps = append(snaps, snap{k.Now(), pc.recency(), pc.Stats(), pc.DirtyCount()})
			}
			k.Spawn("evictor", func(th *sim.Thread) {
				pc.Write(th, 1, ident(0), 0, 1)
				pc.Write(th, 4, ident(400), 0, 1)
				observe()
				full()
				pc.Write(th, 2, ident(200), 0, 1) // evicts dirty (1,0): blocks on the device
				observe()
			})
			k.Spawn("intruder", func(th *sim.Thread) {
				th.Sleep(time.Microsecond)
				v.intrude(pc)
				observe()
				between()
			})
			if err := k.Run(); err != nil {
				t.Fatalf("%s: %v", v.name, err)
			}
			return snaps
		}
		k, c, _ := env(2)
		var victim int32
		got := run(k, c, func() { victim = c.lru }, func() {
			if err := checkIndex(c); err != nil {
				t.Errorf("%s: %v", v.name, err)
			}
			if s := c.files[v.newcomer.file].lookup(v.newcomer.idx); s != victim {
				t.Errorf("%s: newcomer in slot %d, the victim was in %d: the scene tests nothing", v.name, s, victim)
			}
			if c.Stats().Writebacks != 1 || c.Stats().Evictions != 0 {
				t.Errorf("%s: intruder did not run during the victim's writeback: %+v", v.name, c.Stats())
			}
		})
		if err := checkIndex(c); err != nil {
			t.Errorf("%s: %v", v.name, err)
		}
		if last := got[len(got)-1]; !slices.Equal(last.recency, v.want) || last.dirty != 1 {
			t.Errorf("%s: resident %v with %d dirty, want %v with 1", v.name, last.recency, last.dirty, v.want)
		}
		if !v.oracle {
			continue
		}
		ko := sim.NewKernel()
		o := newScanCache(ko, sched.NewNoop(storage.NewHDD(ko, "d", storage.DefaultHDD())), 2)
		for i, want := range run(ko, o, func() {}, func() {}) {
			if g := got[i]; g.at != want.at || !slices.Equal(g.recency, want.recency) || g.stats != want.stats || g.dirty != want.dirty {
				t.Errorf("%s: observation %d is %+v, oracle %+v", v.name, i, g, want)
			}
		}
	}
}

// TestWriteFindsPageBroughtInDuringEviction has one thread blocked
// writing back a dirty eviction victim to make room for page (2,0),
// while a second makes room another way and brings (2,0) in itself. The
// writer must find it there when it wakes, not insert it a second time.
func TestWriteFindsPageBroughtInDuringEviction(t *testing.T) {
	k, c, _ := env(2)
	k.Spawn("writer", func(th *sim.Thread) {
		c.Write(th, 1, ident(0), 0, 1)
		c.Write(th, 4, ident(400), 0, 1)
		c.Write(th, 2, ident(200), 0, 1) // evicts dirty (1,0): blocks on the device
		if err := checkIndex(c); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("other", func(th *sim.Thread) {
		th.Sleep(time.Microsecond)
		c.Drop(4)
		c.Warm(2, ident(200), 0, 1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Resident() != 1 || !c.Contains(2, 0) || c.DirtyCount() != 1 || c.Stats().Writes != 3 {
		t.Fatalf("resident %d dirty %d, stats %+v", c.Resident(), c.DirtyCount(), c.Stats())
	}
}

// TestPageRecordLayout holds the slab record to what DESIGN.md says of
// it: 48 bytes, and nothing in it for the collector to follow.
func TestPageRecordLayout(t *testing.T) {
	typ := reflect.TypeOf(page{})
	if typ.Size() != 48 {
		t.Errorf("a page record is %d bytes, want 48", typ.Size())
	}
	for i := 0; i < typ.NumField(); i++ {
		switch k := typ.Field(i).Type.Kind(); k {
		case reflect.Int32, reflect.Int64, reflect.Uint64:
		default:
			t.Errorf("field %s is a %v: the slab must stay pointer-free", typ.Field(i).Name, k)
		}
	}
}

// TestWarmAllocsSparseFile is the sparse-file bound (scripts/ci.sh allocs
// runs it with the ceilings of internal/artc): a page a terabyte into a
// file costs one leaf, as a page at offset 0 does, not a table that
// reaches it.
func TestWarmAllocsSparseFile(t *testing.T) {
	warmBytes := func(idx int64) uint64 {
		_, c, _ := env(0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.Warm(1, ident(0), idx, 1)
		runtime.ReadMemStats(&after)
		if !c.Contains(1, idx) || c.Contains(1, idx-1) || c.Resident() != 1 {
			t.Fatalf("page %d alone should be resident", idx)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	near, far := warmBytes(0), warmBytes(1<<28)
	if far > near+4<<10 {
		t.Fatalf("warming page 1<<28 of an empty file allocated %d bytes, page 0 %d: more than 4 KiB apart", far, near)
	}
}

// benchResident runs body on a simulated thread of an unbounded cache
// that holds resident clean pages of file 1.
func benchResident(b *testing.B, resident int64, body func(t *sim.Thread, c *Cache)) {
	k := sim.NewKernel()
	c := New(k, sched.NewNoop(storage.NewSSD(k, "ssd", storage.DefaultSSD())), 0)
	c.Warm(1, ident(0), 0, resident)
	k.Spawn("bench", func(t *sim.Thread) { body(t, c) })
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSyncResident dirties 16 pages of one file and fsyncs it with
// N clean pages of another file resident; ns/op should not depend on N.
func BenchmarkSyncResident(b *testing.B) {
	for _, bc := range []struct {
		name     string
		resident int64
	}{{"4k", 4 << 10}, {"64k", 64 << 10}} {
		b.Run(bc.name, func(b *testing.B) {
			benchResident(b, bc.resident, func(t *sim.Thread, c *Cache) {
				for i := 0; i < b.N; i++ {
					c.Write(t, 2, ident(1<<20), int64(i%64)*16, 16)
					c.Sync(t, 2)
				}
			})
		})
	}
}

// BenchmarkDropResident caches 16 pages of one file and drops it, as an
// unlink does, with 64k clean pages of another file resident.
func BenchmarkDropResident(b *testing.B) {
	b.Run("64k", func(b *testing.B) {
		benchResident(b, 64<<10, func(t *sim.Thread, c *Cache) {
			for i := 0; i < b.N; i++ {
				c.Warm(2, ident(1<<20), 0, 16)
				c.Drop(2)
			}
		})
	})
}
