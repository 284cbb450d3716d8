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
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
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
	g := core.BuildGraph(an, modes)
	if err := g.CheckAcyclic(); err != nil {
		return nil, err
	}
	return &Benchmark{
		Platform: tr.Platform,
		Modes:    modes,
		Trace:    tr,
		Snapshot: snap,
		Analysis: an,
		Graph:    g.Reduce(an),
		touches:  planTouches(an),
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

// crcTable is the CRC-32C (Castagnoli) table both benchmark codecs use
// for their whole-artifact checksums; Castagnoli is hardware-accelerated
// on every platform the repo targets.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// crcWriter mirrors everything written into a running CRC-32C so the
// encoder can emit a whole-artifact checksum footer without buffering
// the artifact.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc = crc32.Update(cw.crc, crcTable, p)
	return cw.w.Write(p)
}

// Encode writes the benchmark as a single self-contained text artifact:
// a header, the snapshot section, the trace section, and a checksum
// footer over everything before it:
//
//	#artc-benchmark v2 platform=linux modes=...
//	%%snapshot
//	...
//	%%trace
//	...
//	%%end crc32c=89abcdef
//
// This is the moral equivalent of ARTC's generated-C benchmark: compile
// once, replay anywhere. For the compact compiled form that also skips
// recompilation on load, see EncodeBinary.
func (b *Benchmark) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}
	if _, err := fmt.Fprintf(cw, "#artc-benchmark v2 platform=%s modes=%s\n",
		b.Platform, encodeModes(b.Modes)); err != nil {
		return err
	}
	if _, err := io.WriteString(cw, "%%snapshot\n"); err != nil {
		return err
	}
	if err := b.Snapshot.Encode(cw); err != nil {
		return err
	}
	if _, err := io.WriteString(cw, "%%trace\n"); err != nil {
		return err
	}
	if err := b.Trace.Encode(cw); err != nil {
		return err
	}
	// The footer itself is excluded from the checksum it carries.
	if _, err := fmt.Fprintf(bw, "%%%%end crc32c=%08x\n", cw.crc); err != nil {
		return err
	}
	return bw.Flush()
}

// Decode reads a text-encoded benchmark and recompiles it (the analysis
// and dependency graph are deterministic functions of trace + snapshot +
// modes, so they are rebuilt rather than serialized; DecodeBinary loads
// them directly).
//
// Decode is strict about artifact integrity: the %%snapshot and %%trace
// markers must each appear exactly once, in order, at section
// boundaries — a body line that merely looks like a marker is a
// corruption error, not a section flip — and the artifact must end with
// a %%end footer whose CRC-32C matches every byte before it. Truncated
// files, repeated or out-of-order markers, checksum mismatches, and
// trailing garbage are all rejected with the byte offset of the fault.
func Decode(r io.Reader) (*Benchmark, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("artc: reading benchmark header: %w", err)
	}
	fieldsOf := strings.Fields(header)
	if len(fieldsOf) == 0 || fieldsOf[0] != "#artc-benchmark" {
		return nil, fmt.Errorf("artc: not a benchmark file")
	}
	if len(fieldsOf) < 2 || (fieldsOf[1] != "v1" && fieldsOf[1] != "v2") {
		return nil, fmt.Errorf("artc: unsupported benchmark format version in header %q", strings.TrimSpace(header))
	}
	platform := "linux"
	modes := core.DefaultModes()
	for _, f := range fieldsOf {
		if v, ok := strings.CutPrefix(f, "platform="); ok {
			platform = v
		}
		if v, ok := strings.CutPrefix(f, "modes="); ok {
			m, err := decodeModes(v)
			if err != nil {
				return nil, err
			}
			modes = m
		}
	}

	const (
		sectNone = iota // after header, before %%snapshot
		sectSnap
		sectTrace
		sectDone // after the %%end footer
	)
	crc := crc32.Update(0, crcTable, []byte(header))
	offset := int64(len(header))
	section := sectNone
	var snapText, traceText strings.Builder
	for {
		line, rerr := br.ReadString('\n')
		if line != "" {
			lineStart := offset
			switch trimmed := strings.TrimSpace(line); {
			case trimmed == "%%snapshot":
				if section != sectNone {
					return nil, fmt.Errorf("artc: offset %d: repeated or out-of-order %%%%snapshot marker", lineStart)
				}
				section = sectSnap
			case trimmed == "%%trace":
				if section != sectSnap {
					return nil, fmt.Errorf("artc: offset %d: repeated or out-of-order %%%%trace marker", lineStart)
				}
				section = sectTrace
			case strings.HasPrefix(trimmed, "%%end"):
				if section != sectTrace {
					return nil, fmt.Errorf("artc: offset %d: %%%%end footer before both sections", lineStart)
				}
				var want uint32
				if _, err := fmt.Sscanf(trimmed, "%%%%end crc32c=%08x", &want); err != nil {
					return nil, fmt.Errorf("artc: offset %d: malformed %%%%end footer %q", lineStart, trimmed)
				}
				if want != crc {
					return nil, fmt.Errorf("artc: offset %d: artifact checksum mismatch: footer says crc32c=%08x, content is %08x",
						lineStart, want, crc)
				}
				section = sectDone
			case strings.HasPrefix(trimmed, "%%"):
				return nil, fmt.Errorf("artc: offset %d: unknown section marker %q", lineStart, trimmed)
			case section == sectSnap:
				snapText.WriteString(line)
			case section == sectTrace:
				traceText.WriteString(line)
			case trimmed == "":
				// Blank padding between header and sections is tolerated.
			case section == sectDone:
				return nil, fmt.Errorf("artc: offset %d: trailing data after %%%%end footer", lineStart)
			default:
				return nil, fmt.Errorf("artc: offset %d: content before %%%%snapshot marker", lineStart)
			}
			if section != sectDone {
				crc = crc32.Update(crc, crcTable, []byte(line))
			}
			offset += int64(len(line))
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return nil, rerr
		}
	}
	if section != sectDone {
		missing := "%%end footer"
		switch section {
		case sectNone:
			missing = "%%snapshot section"
		case sectSnap:
			missing = "%%trace section"
		}
		return nil, fmt.Errorf("artc: truncated benchmark: reached EOF at offset %d without %s", offset, missing)
	}
	snap, err := snapshot.Decode(strings.NewReader(snapText.String()))
	if err != nil {
		return nil, err
	}
	tr, err := trace.Decode(strings.NewReader(traceText.String()))
	if err != nil {
		return nil, err
	}
	tr.Platform = platform
	return Compile(tr, snap, modes)
}

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
