// Package leveldb is a small embedded log-structured-merge key-value
// store that runs on the simulated storage stack. It is the
// macrobenchmark application of the paper's §5.2.2: an LSM store with a
// write-ahead log, an in-memory memtable, sorted string tables, and
// LevelDB's signature group-commit write path — when multiple threads
// want to issue writes, one thread issues them all and the others hand
// off their data to it, which is exactly the behaviour the paper
// observes making fillsync friendly to simple replay methods.
package leveldb

import (
	"fmt"
	"sort"

	"rootreplay/internal/sim"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
	"rootreplay/internal/vfs"
)

// Options configure a DB.
type Options struct {
	// Dir is the database directory.
	Dir string
	// MemtableBytes bounds the memtable before it is flushed to an
	// SSTable (LevelDB default: 4 MiB).
	MemtableBytes int64
	// L0CompactTrigger is the number of level-0 tables that triggers a
	// compaction into level 1 (LevelDB default: 4).
	L0CompactTrigger int
	// MaxTableBytes bounds each level-1 output table; compaction
	// partitions its key range into multiple files (LevelDB default:
	// 2 MiB), so a populated database spreads reads across many
	// descriptors.
	MaxTableBytes int64
}

// DefaultOptions returns LevelDB-like defaults under dir.
func DefaultOptions(dir string) Options {
	return Options{Dir: dir, MemtableBytes: 4 << 20, L0CompactTrigger: 4, MaxTableBytes: 2 << 20}
}

// ssTable is an on-disk sorted table. Key metadata (the index block) is
// modelled in memory; lookups charge the data-block read.
type ssTable struct {
	path    string
	fd      int64
	minKey  string
	maxKey  string
	entries map[string]tableEntry
	size    int64
	level   int
}

type tableEntry struct {
	offset int64
	value  []byte
}

// DB is an open database.
type DB struct {
	sys  *stack.System
	opts Options

	mem      map[string][]byte
	memBytes int64
	walFD    int64
	walPath  string
	walSize  int64
	manifest int64 // fd

	tables  []*ssTable // newest first (level 0 before level 1)
	nextNum int

	// Group-commit writer state.
	pending    []*writeReq
	writerBusy bool
	writerCond *sim.Cond

	stats Stats
}

// Stats counts DB activity.
type Stats struct {
	Puts        int64
	Gets        int64
	GetHitsMem  int64
	Flushes     int64
	Compactions int64
	BatchCount  int64
	BatchedPuts int64
}

type writeReq struct {
	key   string
	value []byte
	sync  bool
	done  bool
	cond  *sim.Cond
}

// Open creates (or reuses) a database directory and its WAL, MANIFEST
// and CURRENT files. It must run in a simulated thread.
func Open(sys *stack.System, t *sim.Thread, opts Options) (*DB, error) {
	if opts.MemtableBytes <= 0 {
		opts.MemtableBytes = 4 << 20
	}
	if opts.L0CompactTrigger <= 0 {
		opts.L0CompactTrigger = 4
	}
	if opts.MaxTableBytes <= 0 {
		opts.MaxTableBytes = 2 << 20
	}
	db := &DB{
		sys:        sys,
		opts:       opts,
		mem:        make(map[string][]byte),
		writerCond: sim.NewCond(sys.K),
		walPath:    opts.Dir + "/000001.log",
	}
	sys.Mkdir(t, opts.Dir, 0o755)
	cur, err := sys.Open(t, opts.Dir+"/CURRENT", trace.OWronly|trace.OCreat, 0o644)
	if err != 0 {
		return nil, fmt.Errorf("leveldb: CURRENT: %v", err)
	}
	sys.Write(t, cur, 16)
	sys.Close(t, cur)
	db.manifest, err = sys.Open(t, opts.Dir+"/MANIFEST-000001", trace.OWronly|trace.OCreat|trace.OAppend, 0o644)
	if err != 0 {
		return nil, fmt.Errorf("leveldb: MANIFEST: %v", err)
	}
	sys.Write(t, db.manifest, 64)
	db.walFD, err = sys.Open(t, db.walPath, trace.OWronly|trace.OCreat|trace.OAppend, 0o644)
	if err != 0 {
		return nil, fmt.Errorf("leveldb: WAL: %v", err)
	}
	db.nextNum = 2
	return db, nil
}

// Close flushes the memtable and closes descriptors.
func (db *DB) Close(t *sim.Thread) {
	if len(db.mem) > 0 {
		db.flush(t)
	}
	db.sys.Close(t, db.walFD)
	db.sys.Close(t, db.manifest)
	for _, tb := range db.tables {
		db.sys.Close(t, tb.fd)
	}
	db.walFD, db.manifest = -1, -1
	for _, tb := range db.tables {
		tb.fd = -1
	}
}

// OpenHandles reopens the store's files after a Close, as a freshly
// started process would: tables read-only, log and manifest for append,
// with the customary startup metadata reads. Benchmarks that populate a
// database before the measured phase Close it and reopen here so every
// descriptor used during measurement was opened during measurement.
func (db *DB) OpenHandles(t *sim.Thread) error {
	db.sys.Stat(t, db.opts.Dir+"/CURRENT")
	var err vfs.Errno
	db.manifest, err = db.sys.Open(t, db.opts.Dir+"/MANIFEST-000001", trace.OWronly|trace.OAppend, 0)
	if err != 0 {
		return fmt.Errorf("leveldb: reopen MANIFEST: %v", err)
	}
	db.sys.Read(t, db.manifest, 64)
	db.walFD, err = db.sys.Open(t, db.walPath, trace.OWronly|trace.OCreat|trace.OAppend, 0o644)
	if err != 0 {
		return fmt.Errorf("leveldb: reopen WAL: %v", err)
	}
	for _, tb := range db.tables {
		tb.fd, err = db.sys.Open(t, tb.path, trace.ORdonly, 0)
		if err != 0 {
			return fmt.Errorf("leveldb: reopen table %s: %v", tb.path, err)
		}
		// Table open reads the footer/index block.
		db.sys.Pread(t, tb.fd, 4096, tb.size-4096)
	}
	return nil
}

// Put inserts a key/value pair. With sync, the write-ahead log is
// fsynced before Put returns. Concurrent Puts are group-committed: the
// first writer drains the whole queue in one WAL append + one fsync.
func (db *DB) Put(t *sim.Thread, key string, value []byte, sync bool) {
	db.stats.Puts++
	req := &writeReq{key: key, value: append([]byte(nil), value...), sync: sync, cond: sim.NewCond(db.sys.K)}
	db.pending = append(db.pending, req)
	if db.writerBusy {
		// Hand off to the active writer thread.
		for !req.done {
			req.cond.Wait(t, "leveldb group commit")
		}
		return
	}
	db.writerBusy = true
	for len(db.pending) > 0 {
		batch := db.pending
		db.pending = nil
		db.stats.BatchCount++
		db.stats.BatchedPuts += int64(len(batch))
		var bytes int64
		syncBatch := false
		for _, r := range batch {
			bytes += int64(len(r.key) + len(r.value) + 16)
			syncBatch = syncBatch || r.sync
		}
		db.sys.Write(t, db.walFD, bytes)
		db.walSize += bytes
		if syncBatch {
			db.sys.Fsync(t, db.walFD)
		}
		for _, r := range batch {
			old, had := db.mem[r.key]
			db.mem[r.key] = r.value
			db.memBytes += int64(len(r.key) + len(r.value))
			if had {
				db.memBytes -= int64(len(r.key) + len(old))
			}
			r.done = true
			r.cond.Broadcast()
		}
		if db.memBytes >= db.opts.MemtableBytes {
			db.flush(t)
		}
	}
	db.writerBusy = false
}

// Get looks up a key: memtable first, then tables newest-first. A table
// whose key range covers the key costs one 4 KB data-block read.
func (db *DB) Get(t *sim.Thread, key string) ([]byte, bool) {
	db.stats.Gets++
	if v, ok := db.mem[key]; ok {
		db.stats.GetHitsMem++
		return v, true
	}
	for _, tb := range db.tables {
		if key < tb.minKey || key > tb.maxKey {
			continue
		}
		e, ok := tb.entries[key]
		if !ok {
			// A range-covering table without the key still costs an
			// index-block probe (LevelDB reads the index to learn the
			// key is absent; we charge a single block).
			db.sys.Pread(t, tb.fd, 4096, tb.size-4096)
			continue
		}
		db.sys.Pread(t, tb.fd, 4096, e.offset)
		return e.value, true
	}
	return nil, false
}

// flush writes the memtable to a new level-0 SSTable.
func (db *DB) flush(t *sim.Thread) {
	if len(db.mem) == 0 {
		return
	}
	db.stats.Flushes++
	tb := db.writeTable(t, db.mem, 0)
	db.tables = append([]*ssTable{tb}, db.tables...)
	db.mem = make(map[string][]byte)
	db.memBytes = 0
	// Manifest update records the new table.
	db.sys.Write(t, db.manifest, 64)
	db.sys.Fsync(t, db.manifest)
	// Truncate (recycle) the WAL.
	db.sys.Ftruncate(t, db.walFD, 0)
	db.walSize = 0
	if db.level0Count() >= db.opts.L0CompactTrigger {
		db.compact(t)
	}
}

func (db *DB) level0Count() int {
	n := 0
	for _, tb := range db.tables {
		if tb.level == 0 {
			n++
		}
	}
	return n
}

// writeTable materializes entries as an on-disk table file.
func (db *DB) writeTable(t *sim.Thread, entries map[string][]byte, level int) *ssTable {
	path := fmt.Sprintf("%s/%06d.ldb", db.opts.Dir, db.nextNum)
	db.nextNum++
	fd, _ := db.sys.Open(t, path, trace.OWronly|trace.OCreat|trace.OTrunc, 0o644)
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	tb := &ssTable{path: path, entries: make(map[string]tableEntry, len(entries)), level: level}
	if len(keys) > 0 {
		tb.minKey, tb.maxKey = keys[0], keys[len(keys)-1]
	}
	var off int64
	for _, k := range keys {
		v := entries[k]
		tb.entries[k] = tableEntry{offset: off, value: v}
		off += int64(len(k) + len(v) + 16)
	}
	// Data blocks plus a trailing index block, written in 64 KiB chunks.
	total := off + 4096
	tb.size = total
	for written := int64(0); written < total; {
		chunk := int64(64 << 10)
		if total-written < chunk {
			chunk = total - written
		}
		db.sys.Write(t, fd, chunk)
		written += chunk
	}
	db.sys.Fsync(t, fd)
	db.sys.Close(t, fd)
	tb.fd, _ = db.sys.Open(t, path, trace.ORdonly, 0)
	return tb
}

// compact merges every table, reading each input sequentially, and
// rewrites the result as a run of key-range-partitioned level-1 tables
// of bounded size, deleting the inputs afterwards.
func (db *DB) compact(t *sim.Thread) {
	db.stats.Compactions++
	merged := make(map[string][]byte)
	// Oldest first so newer tables overwrite older values.
	for i := len(db.tables) - 1; i >= 0; i-- {
		tb := db.tables[i]
		// Sequential scan of the input table.
		db.sys.Lseek(t, tb.fd, 0, stack.SeekSet)
		for off := int64(0); off < tb.size; off += 64 << 10 {
			db.sys.Read(t, tb.fd, 64<<10)
		}
		for k, e := range tb.entries {
			merged[k] = e.value
		}
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var outs []*ssTable
	part := make(map[string][]byte)
	var partBytes int64
	emit := func() {
		if len(part) == 0 {
			return
		}
		outs = append(outs, db.writeTable(t, part, 1))
		part = make(map[string][]byte)
		partBytes = 0
	}
	for _, k := range keys {
		part[k] = merged[k]
		partBytes += int64(len(k) + len(merged[k]) + 16)
		if partBytes >= db.opts.MaxTableBytes {
			emit()
		}
	}
	emit()
	for _, tb := range db.tables {
		db.sys.Close(t, tb.fd)
		db.sys.Unlink(t, tb.path)
	}
	db.tables = outs
	db.sys.Write(t, db.manifest, 128)
	db.sys.Fsync(t, db.manifest)
}
