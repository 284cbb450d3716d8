package experiments

import (
	"fmt"
	"time"

	"rootreplay/internal/artc"
	"rootreplay/internal/core"
	"rootreplay/internal/leveldb"
	"rootreplay/internal/metrics"
	"rootreplay/internal/par"
	"rootreplay/internal/stack"
	"rootreplay/internal/workload"
)

// LevelDBConfigs are the seven machine configurations of §5.2.2: four
// file systems on a disk, a RAID-0 array, a small-cache machine, and an
// SSD.
func LevelDBConfigs(p Params) []stack.Config {
	mk := func(name string, prof stack.FSProfile, dev stack.DeviceKind, cache int64) stack.Config {
		return stack.Config{
			Name: name, Platform: stack.Linux, Profile: prof,
			Device: dev, Scheduler: stack.SchedCFQ, CachePages: cache,
		}
	}
	big := p.CachePagesBig
	small := p.CachePagesSmall / 8
	if small < 1024 {
		small = 1024
	}
	return []stack.Config{
		mk("ext4-hdd", stack.Ext4, stack.DeviceHDD, big),
		mk("ext3-hdd", stack.Ext3, stack.DeviceHDD, big),
		mk("jfs-hdd", stack.JFS, stack.DeviceHDD, big),
		mk("xfs-hdd", stack.XFS, stack.DeviceHDD, big),
		mk("ext4-raid0", stack.Ext4, stack.DeviceRAID, big),
		mk("ext4-small$", stack.Ext4, stack.DeviceHDD, small),
		mk("ext4-ssd", stack.Ext4, stack.DeviceSSD, big),
	}
}

// Fig7Cell is one source/target replay measurement.
type Fig7Cell struct {
	Source, Target string
	Original       time.Duration
	Runs           []MethodRun
}

// Fig7Result holds the full cross-product for both workloads plus the
// error distributions of Figure 7(b).
type Fig7Result struct {
	Workload map[string][]*Fig7Cell // "fillsync", "readrandom"
	// Errors per method across all replays (98 at full scale: 49 combos
	// x 2 workloads).
	Errors map[artc.Method][]float64
}

// Fig7 runs the LevelDB source/target matrix. fillsyncPairs limits the
// fillsync matrix (the paper shows one combination, noting the rest are
// similar); pass 0 for the full 49.
func Fig7(p Params, fillsyncPairs int) (*Fig7Result, error) {
	configs := LevelDBConfigs(p)
	res := &Fig7Result{
		Workload: make(map[string][]*Fig7Cell),
		Errors:   make(map[artc.Method][]float64),
	}

	type wl struct {
		name  string
		make  func() workload.Workload
		limit int
	}
	workloads := []wl{
		{"fillsync", func() workload.Workload {
			return &leveldb.FillSync{Threads: 8, OpsPerThread: p.DBOpsPerThread, ValueBytes: p.DBValueBytes, Seed: 71}
		}, fillsyncPairs},
		{"readrandom", func() workload.Workload {
			return &leveldb.ReadRandom{Threads: 8, OpsPerThread: p.DBOpsPerThread,
				Records: p.DBRecords, ValueBytes: p.DBValueBytes, Seed: 72}
		}, 0},
	}

	for _, w := range workloads {
		// Enumerate the (source, target) cells up front, in the same
		// source-major order (and with the same pair limit) the serial
		// loop used, so the harness can fan them out while the assembled
		// tables keep their order.
		type pair struct{ src, tgt int }
		var cells []pair
		for si := range configs {
			for ti := range configs {
				if w.limit > 0 && len(cells) >= w.limit {
					break
				}
				cells = append(cells, pair{si, ti})
			}
			if w.limit > 0 && len(cells) >= w.limit {
				break
			}
		}

		// Original program timing per target (reused across sources).
		origByTarget := make([]time.Duration, len(configs))
		if err := par.ForEach(len(configs), func(ti int) error {
			d, err := workload.Run(configs[ti], w.make())
			if err != nil {
				return fmt.Errorf("fig7 %s original on %s: %w", w.name, configs[ti].Name, err)
			}
			origByTarget[ti] = d
			return nil
		}); err != nil {
			return nil, err
		}

		// Trace and compile once per needed source. Each cell then
		// replays a shared, read-only benchmark, instead of recompiling
		// the source trace per (target, method).
		var srcs []int
		needed := make([]bool, len(configs))
		for _, c := range cells {
			if !needed[c.src] {
				needed[c.src] = true
				srcs = append(srcs, c.src)
			}
		}
		benches := make([]*artc.Benchmark, len(configs))
		if err := par.ForEach(len(srcs), func(k int) error {
			si := srcs[k]
			tr, snap, _, err := workload.TraceWorkload(configs[si], w.make())
			if err != nil {
				return fmt.Errorf("fig7 %s tracing on %s: %w", w.name, configs[si].Name, err)
			}
			b, err := artc.Compile(tr, snap, core.DefaultModes())
			if err != nil {
				return fmt.Errorf("fig7 %s compiling %s trace: %w", w.name, configs[si].Name, err)
			}
			benches[si] = b
			return nil
		}); err != nil {
			return nil, err
		}

		results := make([]*Fig7Cell, len(cells))
		if err := par.ForEach(len(cells), func(ci int) error {
			c := cells[ci]
			src, tgt := configs[c.src], configs[c.tgt]
			cell := &Fig7Cell{Source: src.Name, Target: tgt.Name, Original: origByTarget[c.tgt]}
			for _, m := range Methods {
				run, err := replayBench(benches[c.src], tgt, m)
				if err != nil {
					return fmt.Errorf("fig7 %s %s->%s %s: %w", w.name, src.Name, tgt.Name, m, err)
				}
				run.Err = metrics.RelError(run.Elapsed, cell.Original)
				cell.Runs = append(cell.Runs, *run)
			}
			results[ci] = cell
			return nil
		}); err != nil {
			return nil, err
		}
		for _, cell := range results {
			res.Workload[w.name] = append(res.Workload[w.name], cell)
			for i, m := range Methods {
				res.Errors[m] = append(res.Errors[m], cell.Runs[i].Err)
			}
		}
	}
	return res, nil
}

// MeanError returns a method's mean timing error across all replays.
func (r *Fig7Result) MeanError(m artc.Method) float64 {
	return metrics.Mean(r.Errors[m])
}

// WorstDecileError returns the mean of a method's worst 10% of errors
// (the paper's extreme-inaccuracy comparison).
func (r *Fig7Result) WorstDecileError(m artc.Method) float64 {
	return metrics.TailMean(r.Errors[m], 0.10)
}

// Format renders the per-combination table and the Figure 7(b) summary.
func (r *Fig7Result) Format() string {
	out := ""
	for _, name := range []string{"fillsync", "readrandom"} {
		cells := r.Workload[name]
		if len(cells) == 0 {
			continue
		}
		t := metrics.NewTable("src -> tgt", "original", "single", "err", "temporal", "err", "artc", "err")
		for _, c := range cells {
			row := []any{c.Source + " -> " + c.Target, c.Original}
			for _, m := range Methods {
				for i := range c.Runs {
					if c.Runs[i].Method == m {
						row = append(row, c.Runs[i].Elapsed, metrics.PctString(c.Runs[i].Err))
					}
				}
			}
			t.Row(row...)
		}
		out += fmt.Sprintf("Figure 7(a) [%s]:\n%s\n", name, t.String())
	}
	s := metrics.NewTable("method", "mean err", "worst-decile err", "replays")
	for _, m := range Methods {
		s.Row(string(m), metrics.PctString(r.MeanError(m)), metrics.PctString(r.WorstDecileError(m)), len(r.Errors[m]))
	}
	out += "Figure 7(b): timing-error distribution\n" + s.String()
	return out
}
