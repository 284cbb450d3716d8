package leveldb

import (
	"fmt"
	"math/rand"

	"rootreplay/internal/sim"
	"rootreplay/internal/stack"
)

// The two LevelDB benchmark workloads from §5.2.2, in the shape of
// workload.Workload (duplicated interface to avoid a dependency cycle):
// fillsync threads insert records into an empty database with synchronous
// writes; readrandom threads randomly read keys from a pre-populated
// database.

// keyFor produces the benchmark keyspace ("%016d" like db_bench).
func keyFor(i int) string { return fmt.Sprintf("%016d", i) }

// FillSync is the fillsync workload: Threads threads each insert
// OpsPerThread records of ValueBytes with sync writes into an empty DB.
type FillSync struct {
	Threads      int
	OpsPerThread int
	ValueBytes   int
	Dir          string
	Seed         int64

	db *DB
}

// Name implements workload.Workload.
func (w *FillSync) Name() string { return fmt.Sprintf("fillsync-%dt", w.Threads) }

// Setup implements workload.Workload: fillsync starts from an empty
// database, so setup only ensures the parent directory exists.
func (w *FillSync) Setup(sys *stack.System) error {
	if w.Dir == "" {
		w.Dir = "/db"
	}
	return sys.SetupMkdirAll("/")
}

// Spawn implements workload.Workload.
func (w *FillSync) Spawn(sys *stack.System) {
	ready := sim.NewCond(sys.K)
	sys.K.Spawn("fillsync-open", func(t *sim.Thread) {
		db, err := Open(sys, t, DefaultOptions(w.Dir))
		if err != nil {
			panic(err)
		}
		w.db = db
		ready.Broadcast()
	})
	for i := 0; i < w.Threads; i++ {
		i := i
		rng := rand.New(rand.NewSource(w.Seed + int64(i)))
		sys.K.Spawn(fmt.Sprintf("fillsync-%d", i), func(t *sim.Thread) {
			for w.db == nil {
				ready.Wait(t, "db open")
			}
			val := make([]byte, w.ValueBytes)
			for n := 0; n < w.OpsPerThread; n++ {
				w.db.Put(t, keyFor(rng.Intn(1<<30)), val, true)
			}
		})
	}
}

// ReadRandom is the readrandom workload: the database is pre-populated
// with Records entries during Setup, then Threads threads each perform
// OpsPerThread random Gets.
type ReadRandom struct {
	Threads      int
	OpsPerThread int
	Records      int
	ValueBytes   int
	Dir          string
	Seed         int64

	db *DB
}

// Name implements workload.Workload.
func (w *ReadRandom) Name() string { return fmt.Sprintf("readrandom-%dt", w.Threads) }

// Setup implements workload.Workload: populate the database (this runs
// the simulation, outside traced/measured time) and drop the page cache
// so the measured phase starts cold, as a freshly started process would.
func (w *ReadRandom) Setup(sys *stack.System) error {
	if w.Dir == "" {
		w.Dir = "/db"
	}
	// Size the LSM parameters to the dataset so the populated database
	// ends up with a realistic spread of table files (a dozen or more),
	// whatever the benchmark scale: random reads then touch many
	// descriptors rather than hammering one.
	opts := DefaultOptions(w.Dir)
	totalBytes := int64(w.Records) * int64(w.ValueBytes+32)
	if mt := totalBytes / 10; mt < opts.MemtableBytes {
		if mt < 256<<10 {
			mt = 256 << 10
		}
		opts.MemtableBytes = mt
	}
	if tb := totalBytes / 100; tb < opts.MaxTableBytes {
		if tb < 32<<10 {
			tb = 32 << 10
		}
		opts.MaxTableBytes = tb
	}
	sys.K.Spawn("readrandom-populate", func(t *sim.Thread) {
		db, err := Open(sys, t, opts)
		if err != nil {
			panic(err)
		}
		val := make([]byte, w.ValueBytes)
		for i := 0; i < w.Records; i++ {
			db.Put(t, keyFor(i), val, false)
		}
		// Close flushes the memtable and releases every descriptor: the
		// measured phase reopens them, so all fds used during
		// measurement are opened during measurement (and hence appear in
		// a trace of that phase).
		db.Close(t)
		w.db = db
	})
	if err := sys.K.Run(); err != nil {
		return err
	}
	sys.DropCaches()
	return nil
}

// Spawn implements workload.Workload.
func (w *ReadRandom) Spawn(sys *stack.System) {
	ready := sim.NewCond(sys.K)
	opened := false
	sys.K.Spawn("readrandom-open", func(t *sim.Thread) {
		if err := w.db.OpenHandles(t); err != nil {
			panic(err)
		}
		opened = true
		ready.Broadcast()
	})
	for i := 0; i < w.Threads; i++ {
		i := i
		rng := rand.New(rand.NewSource(w.Seed + 100 + int64(i)))
		sys.K.Spawn(fmt.Sprintf("readrandom-%d", i), func(t *sim.Thread) {
			for !opened {
				ready.Wait(t, "db reopen")
			}
			for n := 0; n < w.OpsPerThread; n++ {
				w.db.Get(t, keyFor(rng.Intn(w.Records)))
			}
		})
	}
}
