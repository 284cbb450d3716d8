package artc

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"rootreplay/internal/core"
	"rootreplay/internal/snapshot"
	"rootreplay/internal/trace"
	"rootreplay/internal/vfs"
)

// errStreamAborted tells the parser to stop early because the consumer
// already failed; the consumer's error is what surfaces.
var errStreamAborted = errors.New("artc: stream consumer aborted")

// streamBatch is how many records the parser hands over per channel
// send, and streamDepth how many batches may be in flight — together
// they bound the streaming path's parse-side memory at a few thousand
// records ahead of the analyzer (each record also pins its slab chunk,
// so the bound is in chunks, not bytes of input).
const (
	streamBatch = 512
	streamDepth = 8
)

// CompileStraceStream parses strace text and compiles it in one
// streaming pass: the lexer runs in a producer goroutine, handing
// record batches over a bounded channel to the trace-model analysis
// running on the caller's goroutine, so lexing overlaps model
// evaluation and `artc compile` never holds the fully-parsed trace and
// a second, analysis-shaped copy of it at peak simultaneously.
//
// The overlap requires a snapshot: with snap == nil the initial state
// is inferred by a prescan of the whole trace (InferSnapshot), so
// there is nothing to overlap and the call falls back to parse-then-
// Compile. The compiled benchmark is identical to
// Compile(ParseStrace(r), snap, modes) either way.
func CompileStraceStream(r io.Reader, snap *snapshot.Snapshot, modes core.ModeSet) (*Benchmark, error) {
	return compileStraceStream(r, 0, snap, modes)
}

// CompileStrace is CompileStraceStream over text already in memory.
// Every record ends a line, so the line count (+1: the last line may
// lack its newline) bounds the records, and the trace's record list and
// the analyzer's action table are each allocated once at that size. The
// bound is capacity only: the benchmark is the same for any value.
func CompileStrace(raw []byte, snap *snapshot.Snapshot, modes core.ModeSet) (*Benchmark, error) {
	return compileStraceStream(bytes.NewReader(raw), bytes.Count(raw, []byte{'\n'})+1, snap, modes)
}

// compileStraceStream takes the line bound; 0 means unknown.
func compileStraceStream(r io.Reader, lines int, snap *snapshot.Snapshot, modes core.ModeSet) (*Benchmark, error) {
	if snap == nil {
		tr, err := trace.ParseStraceStream(r, lines, 0, nil)
		if err != nil {
			return nil, err
		}
		return Compile(tr, nil, modes)
	}
	fs := vfs.New()
	if err := snapshot.RestoreTree(fs, "", snap); err != nil {
		return nil, fmt.Errorf("artc: restoring snapshot for analysis: %w", err)
	}
	anz := core.NewAnalyzer(fs)
	anz.Grow(lines)

	type parseOut struct {
		tr  *trace.Trace
		err error
	}
	batches := make(chan []*trace.Record, streamDepth)
	done := make(chan struct{})
	out := make(chan parseOut, 1)
	go func() {
		defer close(batches)
		tr, err := trace.ParseStraceStream(r, lines, streamBatch, func(recs []*trace.Record) error {
			select {
			case batches <- recs:
				return nil
			case <-done:
				return errStreamAborted
			}
		})
		out <- parseOut{tr, err}
	}()

	var feedErr error
	for recs := range batches {
		if feedErr != nil {
			continue // drain so the producer can exit
		}
		if feedErr = anz.Feed(recs); feedErr != nil {
			close(done)
		}
	}
	parsed := <-out
	if parsed.err != nil && !errors.Is(parsed.err, errStreamAborted) {
		return nil, parsed.err
	}
	if feedErr != nil {
		return nil, fmt.Errorf("artc: analysis: %w", feedErr)
	}
	an, err := anz.Finish(parsed.tr)
	if err != nil {
		return nil, fmt.Errorf("artc: analysis: %w", err)
	}
	return assemble(parsed.tr, snap, an, modes)
}
