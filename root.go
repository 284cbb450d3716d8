// Package rootreplay is a Go implementation of ROOT — Resource-Oriented
// Ordering for Trace replay — and ARTC, the approximate-replay trace
// compiler, from "ROOT: Replaying Multithreaded Traces with
// Resource-Oriented Ordering" (SOSP 2013).
//
// The package is a facade over the implementation packages:
//
//   - internal/core: the ROOT trace model and ordering rules;
//   - internal/artc: the compiler, replayer, and cross-platform
//     emulation;
//   - internal/trace, internal/snapshot: trace formats (native, strace)
//     and initial file-tree snapshots;
//   - internal/stack and below: the simulated storage stack (virtual
//     clock, disks, RAID, SSD, page cache, CFQ) that traces are
//     collected on and replayed against;
//   - internal/workload, internal/leveldb, internal/magritte: the
//     paper's workloads and the Magritte benchmark suite;
//   - internal/experiments: every table and figure of the evaluation.
//
// Quick start:
//
//	tr, _ := rootreplay.ParseStrace(f)               // or DecodeTrace
//	b, _ := rootreplay.Compile(tr, nil, rootreplay.DefaultModes())
//	sys := rootreplay.NewSystem(rootreplay.DefaultConfig())
//	_ = rootreplay.InitSystem(sys, b)
//	rep, _ := rootreplay.Replay(sys, b, rootreplay.Options{})
//	fmt.Println(rep.Elapsed, rep.Errors)
package rootreplay

import (
	"io"

	"rootreplay/internal/artc"
	"rootreplay/internal/artifact"
	"rootreplay/internal/core"
	"rootreplay/internal/sim"
	"rootreplay/internal/snapshot"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
)

// Core model types.
type (
	// Trace is a totally-ordered series of traced system calls.
	Trace = trace.Trace
	// Record is one traced call.
	Record = trace.Record
	// Snapshot is an initial file-tree state.
	Snapshot = snapshot.Snapshot
	// ModeSet selects which ROOT ordering rules apply to which resource
	// kinds (Table 2 of the paper).
	ModeSet = core.ModeSet
	// Benchmark is a compiled, replayable trace.
	Benchmark = artc.Benchmark
	// Options configure a replay (method, speed, prefix, emulation).
	Options = artc.Options
	// Report is the replayer's detailed output.
	Report = artc.Report
	// Method is a replay ordering strategy.
	Method = artc.Method
	// Config describes a simulated machine.
	Config = stack.Config
	// System is a simulated machine instance.
	System = stack.System
	// Kernel is the discrete-event simulation kernel a System runs on.
	Kernel = sim.Kernel
	// Thread is a simulated thread.
	Thread = sim.Thread
)

// Replay methods (§5 of the paper).
const (
	MethodARTC          = artc.MethodARTC
	MethodSingle        = artc.MethodSingle
	MethodTemporal      = artc.MethodTemporal
	MethodUnconstrained = artc.MethodUnconstrained
)

// Replay speeds.
const (
	AFAP    = artc.AFAP
	Natural = artc.Natural
	Scaled  = artc.Scaled
)

// DefaultModes returns ARTC's default constraint set: every supported
// mode except program_seq.
func DefaultModes() ModeSet { return core.DefaultModes() }

// ParseModes parses a mode list like "file_seq,path_stage+,fd_stage".
func ParseModes(s string) (ModeSet, error) { return artc.ParseModes(s) }

// ParseStrace parses `strace -f -ttt -T` output into a Trace.
func ParseStrace(r io.Reader) (*Trace, error) { return trace.ParseStrace(r) }

// CompileStrace parses strace output and compiles it in one streaming
// pass, overlapping lexing with model evaluation; see
// artc.CompileStraceStream.
func CompileStrace(r io.Reader, snap *Snapshot, modes ModeSet) (*Benchmark, error) {
	return artc.CompileStraceStream(r, snap, modes)
}

// DecodeTrace parses a native-format trace.
func DecodeTrace(r io.Reader) (*Trace, error) { return trace.Decode(r) }

// ParseIBench parses the dtrace-generated iBench trace format.
func ParseIBench(r io.Reader) (*Trace, error) { return trace.ParseIBench(r) }

// DecodeSnapshot parses a serialized snapshot.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) { return snapshot.Decode(r) }

// Compile builds a replayable benchmark from a trace, an optional
// snapshot (nil infers one from the trace), and the ordering modes.
func Compile(tr *Trace, snap *Snapshot, modes ModeSet) (*Benchmark, error) {
	return artc.Compile(tr, snap, modes)
}

// DecodeBenchmark reads a benchmark file, the binary artifact
// Benchmark.EncodeBinary and `artc compile` write.
func DecodeBenchmark(r io.Reader) (*Benchmark, error) { return artc.DecodeBinary(r) }

// CompileTraceCached compiles through a content-addressed artifact
// store: repeat compiles of the same trace/snapshot/modes load the
// cached binary artifact instead of re-running analysis. An empty dir
// selects the per-user default cache directory.
func CompileTraceCached(dir string, tr *Trace, snap *Snapshot, modes ModeSet) (*Benchmark, error) {
	s, err := artifact.Open(dir, 0)
	if err != nil {
		return nil, err
	}
	b, _, err := artifact.CompileTrace(s, tr, snap, modes)
	return b, err
}

// DefaultConfig returns a Linux/ext4/HDD/CFQ machine.
func DefaultConfig() Config { return stack.DefaultConfig() }

// NewSystem builds a simulated machine on a fresh kernel.
func NewSystem(conf Config) *System { return stack.New(sim.NewKernel(), conf) }

// InitSystem restores the benchmark's initial snapshot into sys.
func InitSystem(sys *System, b *Benchmark) error { return artc.Init(sys, b, "") }

// Replay executes the benchmark on an initialized system and returns the
// replayer's report.
func Replay(sys *System, b *Benchmark, opts Options) (*Report, error) {
	return artc.Replay(sys, b, opts)
}
