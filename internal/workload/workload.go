// Package workload implements the microbenchmark programs of the
// paper's performance-accuracy evaluation (§5.2.1), as programs that run
// on a simulated stack.System. Each workload can be executed directly
// (the "original program" baseline on a target system) or traced on a
// source system and replayed with ARTC.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"rootreplay/internal/sim"
	"rootreplay/internal/snapshot"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
)

// Workload is a multithreaded I/O program.
type Workload interface {
	// Name identifies the workload in reports.
	Name() string
	// Setup creates the initial file tree on sys (outside measured time).
	Setup(sys *stack.System) error
	// Spawn launches the workload's threads on sys's kernel; they run to
	// completion when the kernel is run.
	Spawn(sys *stack.System)
}

// Execute runs w's threads on an already-set-up system to completion,
// returning the elapsed virtual time.
func Execute(sys *stack.System, w Workload) (time.Duration, error) {
	start := sys.K.Now()
	w.Spawn(sys)
	if err := sys.K.Run(); err != nil {
		return 0, fmt.Errorf("workload %s: %w", w.Name(), err)
	}
	return sys.K.Now() - start, nil
}

// Run builds a fresh system from conf, sets up w, and executes it,
// returning the elapsed time. This is the "original program on the
// target" measurement.
func Run(conf stack.Config, w Workload) (time.Duration, error) {
	k := sim.NewKernel()
	sys := stack.New(k, conf)
	if err := w.Setup(sys); err != nil {
		return 0, err
	}
	return Execute(sys, w)
}

// TraceWorkload runs w on a source system with tracing enabled and
// returns the trace, the initial snapshot, and the traced elapsed time.
func TraceWorkload(conf stack.Config, w Workload) (*trace.Trace, *snapshot.Snapshot, time.Duration, error) {
	k := sim.NewKernel()
	sys := stack.New(k, conf)
	if err := w.Setup(sys); err != nil {
		return nil, nil, 0, err
	}
	snap := snapshot.Capture(sys)
	tr := &trace.Trace{Platform: string(conf.Platform)}
	sys.SetTracer(tr)
	elapsed, err := Execute(sys, w)
	if err != nil {
		return nil, nil, 0, err
	}
	tr.Renumber()
	return tr, snap, elapsed, nil
}

// RandomReaders is the workload-parallelism microbenchmark (Figure
// 5(a)/(b)): Threads threads each read ReadsPerThread randomly selected
// 4 KB blocks from a private file of FileBytes bytes.
type RandomReaders struct {
	Threads        int
	ReadsPerThread int
	FileBytes      int64
	Seed           int64
}

// Name implements Workload.
func (w *RandomReaders) Name() string {
	return fmt.Sprintf("randomreaders-%dt", w.Threads)
}

func (w *RandomReaders) file(i int) string {
	return fmt.Sprintf("/bench/rr/file%d", i)
}

// Setup implements Workload.
func (w *RandomReaders) Setup(sys *stack.System) error {
	for i := 0; i < w.Threads; i++ {
		if err := sys.SetupCreate(w.file(i), w.FileBytes); err != nil {
			return err
		}
	}
	return nil
}

// Spawn implements Workload.
func (w *RandomReaders) Spawn(sys *stack.System) {
	for i := 0; i < w.Threads; i++ {
		i := i
		rng := rand.New(rand.NewSource(w.Seed + int64(i)*7919))
		sys.K.Spawn(fmt.Sprintf("rr-%d", i), func(t *sim.Thread) {
			fd, err := sys.Open(t, w.file(i), trace.ORdonly, 0)
			if err != 0 {
				return
			}
			blocks := w.FileBytes / 4096
			for n := 0; n < w.ReadsPerThread; n++ {
				off := rng.Int63n(blocks) * 4096
				sys.Pread(t, fd, 4096, off)
			}
			sys.Close(t, fd)
		})
	}
}

// CacheReaders is the cache-size microbenchmark (Figure 5(c)): thread 1
// sequentially reads its entire file and then enters the random-read
// loop; thread 2 performs only random reads of its own file.
type CacheReaders struct {
	ReadsPerThread int
	FileBytes      int64
	Seed           int64
}

// Name implements Workload.
func (w *CacheReaders) Name() string { return "cachereaders" }

// Setup implements Workload.
func (w *CacheReaders) Setup(sys *stack.System) error {
	if err := sys.SetupCreate("/bench/cache/f1", w.FileBytes); err != nil {
		return err
	}
	return sys.SetupCreate("/bench/cache/f2", w.FileBytes)
}

// Spawn implements Workload.
func (w *CacheReaders) Spawn(sys *stack.System) {
	blocks := w.FileBytes / 4096
	rng1 := rand.New(rand.NewSource(w.Seed + 1))
	rng2 := rand.New(rand.NewSource(w.Seed + 2))
	sys.K.Spawn("cache-1", func(t *sim.Thread) {
		fd, err := sys.Open(t, "/bench/cache/f1", trace.ORdonly, 0)
		if err != 0 {
			return
		}
		// Sequential pre-read of the whole file.
		for b := int64(0); b < blocks; b++ {
			sys.Read(t, fd, 4096)
		}
		for n := 0; n < w.ReadsPerThread; n++ {
			off := rng1.Int63n(blocks) * 4096
			sys.Pread(t, fd, 4096, off)
		}
		sys.Close(t, fd)
	})
	sys.K.Spawn("cache-2", func(t *sim.Thread) {
		fd, err := sys.Open(t, "/bench/cache/f2", trace.ORdonly, 0)
		if err != 0 {
			return
		}
		for n := 0; n < w.ReadsPerThread; n++ {
			off := rng2.Int63n(blocks) * 4096
			sys.Pread(t, fd, 4096, off)
		}
		sys.Close(t, fd)
	})
}

// SeqCompetitors is the scheduler-anticipation microbenchmark (Figure
// 5(d) / Figure 6): two threads compete for I/O throughput, each
// performing sequential 4 KB reads from separate large files.
type SeqCompetitors struct {
	ReadsPerThread int
	FileBytes      int64
}

// Name implements Workload.
func (w *SeqCompetitors) Name() string { return "seqcompetitors" }

// Setup implements Workload. A spacer file between the two competitors
// keeps them far apart on disk so switching threads costs a real seek.
func (w *SeqCompetitors) Setup(sys *stack.System) error {
	if err := sys.SetupCreate("/bench/seq/f1", w.FileBytes); err != nil {
		return err
	}
	if err := sys.SetupCreate("/bench/seq/spacer", 1<<30); err != nil {
		return err
	}
	return sys.SetupCreate("/bench/seq/f2", w.FileBytes)
}

// Spawn implements Workload.
func (w *SeqCompetitors) Spawn(sys *stack.System) {
	for i, name := range []string{"/bench/seq/f1", "/bench/seq/f2"} {
		name := name
		sys.K.Spawn(fmt.Sprintf("seq-%d", i), func(t *sim.Thread) {
			fd, err := sys.Open(t, name, trace.ORdonly, 0)
			if err != 0 {
				return
			}
			for n := 0; n < w.ReadsPerThread; n++ {
				sys.Read(t, fd, 4096)
			}
			sys.Close(t, fd)
		})
	}
}
