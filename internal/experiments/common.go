// Package experiments regenerates every table and figure of the paper's
// evaluation (§5–§6) on the simulated substrate. Each ExpN function runs
// the workloads, traces, and replays an experiment needs and returns a
// typed result with a Format method printing rows like the paper's.
//
// Workload sizes are scaled by Params so the full suite runs in seconds
// of host time; Quick() shrinks them further for tests and benchmarks.
// Absolute numbers differ from the paper's testbed, but the comparisons
// the paper draws — which method wins, by what rough factor, where the
// crossovers fall — are preserved.
package experiments

import (
	"fmt"
	"time"

	"rootreplay/internal/artc"
	"rootreplay/internal/core"
	"rootreplay/internal/metrics"
	"rootreplay/internal/snapshot"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
	"rootreplay/internal/workload"
)

// Params scale the experiment workloads.
type Params struct {
	// ReadsPerThread for the microbenchmark readers (paper: 1000).
	ReadsPerThread int
	// FileBytes for microbenchmark files (paper: 1 GiB).
	FileBytes int64
	// SeqReads for the anticipation competitors.
	SeqReads int
	// DBRecords / DBOpsPerThread / DBValueBytes for LevelDB.
	DBRecords      int
	DBOpsPerThread int
	DBValueBytes   int
	// MagritteScale for suite generation.
	MagritteScale float64
	// CachePagesBig / CachePagesSmall for the cache experiment.
	CachePagesBig, CachePagesSmall int64
}

// Default returns the standard (full) experiment scale.
func Default() Params {
	return Params{
		ReadsPerThread: 1000,
		FileBytes:      1 << 30,
		SeqReads:       4000,
		DBRecords:      30000,
		DBOpsPerThread: 400,
		DBValueBytes:   512,
		MagritteScale:  0.01,
		// 4 GiB vs 1.5 GiB in the paper; here files are 1 GiB, so pick
		// caches that flip thread 1's reads between all-hit and all-miss:
		// big covers both files, small covers neither.
		CachePagesBig:   3 << 18, // 3 GiB worth of 4 KiB pages
		CachePagesSmall: 1 << 16, // 256 MiB
	}
}

// Quick returns a reduced scale for tests and Go benchmarks.
func Quick() Params {
	return Params{
		ReadsPerThread:  120,
		FileBytes:       512 << 20,
		SeqReads:        1200,
		DBRecords:       6000,
		DBOpsPerThread:  80,
		DBValueBytes:    512,
		MagritteScale:   0.004,
		CachePagesBig:   3 << 17, // 1.5 GiB worth
		CachePagesSmall: 1 << 14, // 64 MiB
	}
}

// Methods compared throughout the evaluation, in presentation order.
var Methods = []artc.Method{artc.MethodSingle, artc.MethodTemporal, artc.MethodARTC}

// hddConf builds the baseline single-disk machine.
func hddConf() stack.Config {
	c := stack.DefaultConfig()
	c.Name = "linux-ext4-hdd"
	return c
}

// MethodRun is one replay measurement.
type MethodRun struct {
	Method  artc.Method
	Elapsed time.Duration
	Errors  int
	// Err is the relative timing error against the original program on
	// the target.
	Err    float64
	Report *artc.Report
}

// Comparison holds an original-vs-replays measurement for one
// source/target pair.
type Comparison struct {
	Label    string
	Original time.Duration
	Runs     []MethodRun
}

// runOf returns the named method's run.
func (c *Comparison) runOf(m artc.Method) *MethodRun {
	for i := range c.Runs {
		if c.Runs[i].Method == m {
			return &c.Runs[i]
		}
	}
	return nil
}

// compare traces w on src, replays it on tgt with every method, and runs
// the original program on tgt as ground truth.
func compare(label string, w workload.Workload, src, tgt stack.Config) (*Comparison, error) {
	tr, snap, _, err := workload.TraceWorkload(src, w)
	if err != nil {
		return nil, fmt.Errorf("%s: tracing: %w", label, err)
	}
	orig, err := workload.Run(tgt, w)
	if err != nil {
		return nil, fmt.Errorf("%s: original on target: %w", label, err)
	}
	cmp := &Comparison{Label: label, Original: orig}
	b, err := artc.Compile(tr, snap, core.DefaultModes())
	if err != nil {
		return nil, fmt.Errorf("%s: compiling: %w", label, err)
	}
	for _, m := range Methods {
		run, err := replayBench(b, tgt, m)
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %w", label, m, err)
		}
		run.Err = metrics.RelError(run.Elapsed, orig)
		cmp.Runs = append(cmp.Runs, *run)
	}
	return cmp, nil
}

// replayOnce compiles (with default modes) and replays on a fresh target.
func replayOnce(tr *trace.Trace, snap *snapshot.Snapshot, tgt stack.Config, m artc.Method) (*MethodRun, error) {
	b, err := artc.Compile(tr, snap, core.DefaultModes())
	if err != nil {
		return nil, err
	}
	return replayBench(b, tgt, m)
}

// replayBench replays an already-compiled benchmark on a fresh instance
// of the target system. The benchmark is only read, so one compiled
// benchmark can be replayed from many harness workers at once.
func replayBench(b *artc.Benchmark, tgt stack.Config, m artc.Method) (*MethodRun, error) {
	rep, _, err := artc.Run(b, artc.RunSpec{Options: artc.Options{Method: m, Speed: artc.AFAP}, Target: tgt})
	if err != nil {
		return nil, err
	}
	return &MethodRun{Method: m, Elapsed: rep.Elapsed, Errors: rep.Errors, Report: rep}, nil
}

// formatComparisons renders original + per-method timings and errors.
func formatComparisons(title string, cmps []*Comparison) string {
	t := metrics.NewTable("case", "original", "single", "err", "temporal", "err", "artc", "err")
	for _, c := range cmps {
		s := c.runOf(artc.MethodSingle)
		tm := c.runOf(artc.MethodTemporal)
		a := c.runOf(artc.MethodARTC)
		t.Row(c.Label, c.Original,
			s.Elapsed, metrics.PctString(s.Err),
			tm.Elapsed, metrics.PctString(tm.Err),
			a.Elapsed, metrics.PctString(a.Err))
	}
	return title + "\n" + t.String()
}
