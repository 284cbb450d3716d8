// Package artc is the approximate-replay trace compiler: it applies the
// ROOT ordering rules (internal/core) to UNIX system-call traces,
// compiling a trace plus an initial file-tree snapshot into a replayable
// benchmark, and replays benchmarks on simulated target systems
// (internal/stack) with a choice of ordering methods:
//
//   - artc: ROOT resource-ordering dependencies (the paper's tool);
//   - single: one replay thread issues every call in trace order;
//   - temporal: one replay thread per traced thread, calls issued in
//     trace order (overlap preserved, no reordering);
//   - unconstrained: per-thread replay with no cross-thread
//     synchronization at all.
//
// Cross-platform replay is supported by emulating source-platform calls
// that the target lacks (§4.3.4).
package artc

import (
	"fmt"
	"hash/crc32"
	"strings"
	"sync"

	"rootreplay/internal/core"
	"rootreplay/internal/snapshot"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
	"rootreplay/internal/vfs"
)

// Benchmark is a compiled, replayable trace.
type Benchmark struct {
	// Platform is the source platform the trace was collected on.
	Platform string
	// Modes are the ordering modes the dependency graph was built with.
	Modes core.ModeSet
	// Trace holds the raw records.
	Trace *trace.Trace
	// Snapshot is the initial file-tree state.
	Snapshot *snapshot.Snapshot
	// Analysis and Graph are the compiler's outputs: resource touch sets
	// and the ARTC dependency graph.
	Analysis *core.Analysis
	// Graph holds the ARTC (resource-ordering) dependency edges, after
	// transitive reduction.
	Graph *core.Graph
	// touches is the per-action FD/AIO touch plan Compile precomputes and
	// the binary codec stores (nil for hand-built benchmarks); hotTab,
	// built from it on first replay, is what the replayer reads.
	touches []actionTouches
	hotOnce sync.Once
	hotTab  *hotTables

	// memoMu guards memo, the per-ModeSet graph cache GraphFor fills for
	// replay-time mode overrides (ablation sweeps rebuild the same few
	// graphs over and over).
	memoMu sync.Mutex
	memo   map[core.ModeSet]*core.Graph
}

// GraphFor returns the dependency graph for the given mode set, building
// (and transitively reducing) it on first use and memoizing it on the
// benchmark. The compile-time mode set is answered from Benchmark.Graph.
// Safe for concurrent use.
func (b *Benchmark) GraphFor(modes core.ModeSet) *core.Graph {
	if modes == b.Modes && b.Graph != nil {
		return b.Graph
	}
	b.memoMu.Lock()
	defer b.memoMu.Unlock()
	if g, ok := b.memo[modes]; ok {
		return g
	}
	g := core.BuildGraph(b.Analysis, modes).Reduce(b.Analysis)
	if b.memo == nil {
		b.memo = make(map[core.ModeSet]*core.Graph)
	}
	b.memo[modes] = g
	return g
}

// Compile builds a benchmark from a trace and snapshot under the given
// ordering modes. A nil snapshot is inferred from the trace itself
// (every successfully accessed path that the trace did not create must
// pre-exist, sized to cover the largest read).
func Compile(tr *trace.Trace, snap *snapshot.Snapshot, modes core.ModeSet) (*Benchmark, error) {
	tr.Renumber()
	if snap == nil {
		snap = InferSnapshot(tr)
	}
	fs := vfs.New()
	if err := snapshot.RestoreTree(fs, "", snap); err != nil {
		return nil, fmt.Errorf("artc: restoring snapshot for analysis: %w", err)
	}
	an, err := core.Analyze(tr, fs)
	if err != nil {
		return nil, fmt.Errorf("artc: analysis: %w", err)
	}
	return assemble(tr, snap, an, modes)
}

// assemble derives the graph and the touch plan from a finished
// analysis. Both only read it, so the plan is built on a second
// goroutine while this one builds, checks and reduces the graph.
func assemble(tr *trace.Trace, snap *snapshot.Snapshot, an *core.Analysis, modes core.ModeSet) (*Benchmark, error) {
	planned := make(chan []actionTouches, 1)
	go func() { planned <- planTouches(an) }()
	g := core.BuildGraph(an, modes)
	err := g.CheckAcyclic()
	if err == nil {
		g = g.Reduce(an)
	}
	plan := <-planned // on the error path too: the goroutine ends before assemble returns
	if err != nil {
		return nil, err
	}
	return &Benchmark{
		Platform: tr.Platform,
		Modes:    modes,
		Trace:    tr,
		Snapshot: snap,
		Analysis: an,
		Graph:    g,
		touches:  plan,
	}, nil
}

// InferSnapshot derives the minimal initial state a trace requires. The
// prescan canonicalizes call names with stack.Canonical — the same
// mapping the analyzer applies — so the inferred snapshot and the trace
// model always agree on which call a record is (a hand-copied subset of
// the alias table used to live here and had drifted).
func InferSnapshot(tr *trace.Trace) *snapshot.Snapshot {
	var pre []snapshot.PreScanRecord
	for _, r := range tr.Records {
		ps := snapshot.PreScanRecord{
			Call: stack.Canonical(r.Call), Path: r.Path, Path2: r.Path2,
			FD: r.FD, Size: r.Size, Offset: r.Offset, OK: r.OK(),
		}
		switch ps.Call {
		case "open":
			ps.FD = r.Ret
			ps.Creates = r.Flags&trace.OCreat != 0
			ps.IsDir = r.Flags&trace.ODir != 0
		case "creat":
			// creat(2) is open with O_WRONLY|O_CREAT|O_TRUNC regardless of
			// the record's Flags field; the analyzer applies the same
			// expansion.
			ps.FD = r.Ret
			ps.Creates = true
		}
		pre = append(pre, ps)
	}
	return snapshot.FromTrace(pre)
}

// crcTable is the CRC-32C (Castagnoli) table of the binary codec's
// whole-artifact checksum; Castagnoli is hardware-accelerated on every
// platform the repo targets.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// encodeModes renders a ModeSet as a comma-joined flag list.
func encodeModes(m core.ModeSet) string {
	var parts []string
	if m.ProgramSeq {
		parts = append(parts, "program_seq")
	}
	if m.FileSeq {
		parts = append(parts, "file_seq")
	}
	if m.PathStageName {
		parts = append(parts, "path_stage+")
	}
	if m.FDStage {
		parts = append(parts, "fd_stage")
	}
	if m.FDSeq {
		parts = append(parts, "fd_seq")
	}
	if m.AIOStage {
		parts = append(parts, "aio_stage")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// decodeModes parses the encodeModes format; "none" is the empty set.
func decodeModes(s string) (core.ModeSet, error) {
	var m core.ModeSet
	if s == "none" || s == "" {
		return m, nil
	}
	for _, p := range strings.Split(s, ",") {
		switch p {
		case "program_seq":
			m.ProgramSeq = true
		case "file_seq":
			m.FileSeq = true
		case "path_stage+":
			m.PathStageName = true
		case "fd_stage":
			m.FDStage = true
		case "fd_seq":
			m.FDSeq = true
		case "aio_stage":
			m.AIOStage = true
		default:
			return m, fmt.Errorf("artc: unknown mode %q", p)
		}
	}
	return m, nil
}

// ParseModes exposes mode-list parsing for CLI flags (e.g.
// "file_seq,path_stage+,fd_stage").
func ParseModes(s string) (core.ModeSet, error) { return decodeModes(s) }

// ModesString renders modes for display.
func ModesString(m core.ModeSet) string { return encodeModes(m) }
