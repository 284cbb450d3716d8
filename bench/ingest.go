package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"

	"rootreplay/internal/artc"
	"rootreplay/internal/artifact"
	"rootreplay/internal/core"
	"rootreplay/internal/magritte"
	"rootreplay/internal/snapshot"
	"rootreplay/internal/trace"
	"rootreplay/internal/vfs"
	"rootreplay/internal/workload"
)

// magritteSeedStride spaces the per-trace seeds of a Magritte suite the
// way magritte.RunSuite does.
const magritteSeedStride = 1000003

// traceInput is one generated trace as the program receives it: strace
// text and an encoded snapshot, nothing parsed.
type traceInput struct {
	name   string
	strace []byte
	snap   []byte
}

func encodeInput(name string, tr *trace.Trace, snap *snapshot.Snapshot) (traceInput, error) {
	var text, sn bytes.Buffer
	if err := trace.EncodeStrace(&text, tr); err != nil {
		return traceInput{}, fmt.Errorf("%s: %w", name, err)
	}
	if err := snap.Encode(&sn); err != nil {
		return traceInput{}, fmt.Errorf("%s: %w", name, err)
	}
	return traceInput{name: name, strace: text.Bytes(), snap: sn.Bytes()}, nil
}

// magritteInputs renders the 34-trace Magritte suite as strace text.
func magritteInputs(seed int64, scale float64) ([]traceInput, error) {
	var ins []traceInput
	for i, spec := range magritte.Specs {
		gen, err := magritte.Generate(spec, magritte.GenOptions{Scale: scale, Seed: seed + int64(i)*magritteSeedStride})
		if err != nil {
			return nil, err
		}
		in, err := encodeInput(spec.FullName(), gen.Trace, gen.Snapshot)
		if err != nil {
			return nil, err
		}
		ins = append(ins, in)
	}
	return ins, nil
}

// ingest is the ingest_strace workload: strace text through
// artifact.CompileStrace (parse, compile, encode, store put) and back
// out of the store (decode). The replayer does nothing here.
type ingest struct {
	inputs  []traceInput
	scratch string
	stores  int
	hits    float64 // store look-ups that hit / look-ups, last iteration
}

func setupIngest(seed int64, sz sizes, scratch string) (instance, error) {
	// The Magritte suite gives syscall and path diversity, the components
	// corpus gives volume.
	ins, err := magritteInputs(seed, sz.magritteScale)
	if err != nil {
		return nil, err
	}
	tr, snap, err := workload.SynthComponents(workload.Components{N: sz.compN, Ops: sz.compOps, Skew: 0.5, Seed: seed})
	if err != nil {
		return nil, err
	}
	in, err := encodeInput("components", tr, snap)
	if err != nil {
		return nil, err
	}
	return &ingest{inputs: append(ins, in), scratch: scratch}, nil
}

func (w *ingest) close() {}

func (w *ingest) iterate(sp *span) (iterOut, error) {
	w.stores++
	dir := filepath.Join(w.scratch, fmt.Sprintf("store-%d", w.stores))
	store, err := artifact.Open(dir, 0)
	if err != nil {
		return iterOut{}, err
	}
	out := iterOut{finish: func() (string, error) {
		defer os.RemoveAll(dir)
		return digestDir(dir)
	}}
	lookups, hits := 0, 0
	for _, in := range w.inputs {
		s := sp.child("snapshot.Decode")
		snap, err := snapshot.Decode(bytes.NewReader(in.snap))
		s.done()
		if err != nil {
			return out, fmt.Errorf("%s: %w", in.name, err)
		}
		s = sp.child("artifact.CompileStrace")
		_, st, err := artifact.CompileStrace(store, in.strace, snap, core.DefaultModes())
		s.done()
		if err != nil {
			return out, fmt.Errorf("%s: %w", in.name, err)
		}
		s = sp.child("artifact.Get")
		b, _, err := store.Get(st.Key)
		s.done()
		if err != nil {
			return out, fmt.Errorf("%s: %w", in.name, err)
		}
		lookups += 2
		if st.Hit {
			hits++
		}
		hits++
		out.records += len(b.Trace.Records)
	}
	w.hits = float64(hits) / float64(lookups)
	return out, nil
}

// digestDir hashes every file under dir, names and contents, in
// lexical order.
func digestDir(dir string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil)), err
}

// verify checks that the binary codec is stable on every input:
// EncodeBinary → DecodeBinaryBytes → EncodeBinary gives the same bytes.
func (w *ingest) verify() (attempted, failed int, err error) {
	for _, in := range w.inputs {
		snap, err := snapshot.Decode(bytes.NewReader(in.snap))
		if err != nil {
			return 0, 0, err
		}
		b, _, err := artifact.CompileStrace(nil, in.strace, snap, core.DefaultModes())
		if err != nil {
			return 0, 0, err
		}
		var first, second bytes.Buffer
		if err := b.EncodeBinary(&first); err != nil {
			return 0, 0, err
		}
		attempted++
		if b2, err := artc.DecodeBinaryBytes(first.Bytes()); err != nil {
			failed++
		} else if err := b2.EncodeBinary(&second); err != nil || !bytes.Equal(first.Bytes(), second.Bytes()) {
			failed++
		}
	}
	return attempted, failed, nil
}

// mallocs counts heap allocations made while fn runs.
func mallocs(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

// detail re-times each step CompileStrace does internally, one input at
// a time through the public functions the step is made of. The steps run
// back to back here, while CompileStrace overlaps lexing with analysis,
// so their sum exceeds artifact.compile_strace_s by that overlap.
func (w *ingest) detail(sp *span, m map[string]float64, _ float64) error {
	store, err := artifact.Open(filepath.Join(w.scratch, "store-detail"), 0)
	if err != nil {
		return err
	}
	defer os.RemoveAll(store.Dir())
	modes := core.DefaultModes()
	// timed runs one step under a span and adds its time to metric.
	timed := func(name, metric string, fn func()) {
		runtime.GC() // so that no step pays for the garbage of the one before
		s := sp.child(name)
		fn()
		s.done()
		m[metric] += s.dur().Seconds()
	}
	var records, textBytes, parseAllocs, compileAllocs float64
	for _, in := range w.inputs {
		var tr *trace.Trace
		var snap *snapshot.Snapshot
		var an *core.Analysis
		var g, reduced *core.Graph
		var b *artc.Benchmark
		var blob bytes.Buffer
		var err error
		timed("trace.ParseStrace", "trace.parse_s", func() {
			parseAllocs += mallocs(func() { tr, err = trace.ParseStrace(bytes.NewReader(in.strace)) })
		})
		if err != nil {
			return err
		}
		if snap, err = snapshot.Decode(bytes.NewReader(in.snap)); err != nil {
			return err
		}
		tr.Renumber()
		tree := vfs.New()
		timed("snapshot.RestoreTree", "snapshot.restore_s", func() { err = snapshot.RestoreTree(tree, "", snap) })
		if err != nil {
			return err
		}
		timed("core.Analyze", "core.analyze_s", func() { an, err = core.Analyze(tr, tree) })
		if err != nil {
			return err
		}
		timed("core.BuildGraph", "core.build_graph_s", func() { g = core.BuildGraph(an, modes) })
		timed("core.CheckAcyclic", "core.check_acyclic_s", func() { err = g.CheckAcyclic() })
		if err != nil {
			return err
		}
		timed("core.Reduce", "core.reduce_s", func() { reduced = g.Reduce(an) })
		timed("artc.Compile", "artc.compile_s", func() {
			compileAllocs += mallocs(func() { b, err = artc.Compile(tr, snap, modes) })
		})
		if err != nil {
			return err
		}
		timed("artc.EncodeBinary", "artc.encode_s", func() { err = b.EncodeBinary(&blob) })
		if err != nil {
			return err
		}
		timed("artc.DecodeBinaryBytes", "artc.decode_s", func() { _, err = artc.DecodeBinaryBytes(blob.Bytes()) })
		if err != nil {
			return err
		}
		key := artifact.Key(in.strace, snap, "linux", modes)
		timed("artifact.Put", "artifact.put_s", func() { _, err = store.Put(key, b) })
		if err != nil {
			return err
		}
		records += float64(len(tr.Records))
		textBytes += float64(len(in.strace))
		m["core.edges_raw"] += float64(len(g.Edges))
		m["core.edges_enforced"] += float64(len(reduced.Edges))
		m["core.resources"] += float64(len(an.Resources))
		m["artc.artifact_bytes"] += float64(blob.Len())
	}
	m["trace.records"] = records
	m["trace.parse_us_per_record"] = m["trace.parse_s"] * 1e6 / records
	m["trace.parse_mb_per_s"] = textBytes / 1e6 / m["trace.parse_s"]
	m["trace.parse_allocs_per_record"] = parseAllocs / records
	// What Compile spends outside the sub-steps timed above: the touch
	// plan and glue.
	m["artc.compile_self_s"] = m["artc.compile_s"] - m["snapshot.restore_s"] - m["core.analyze_s"] -
		m["core.build_graph_s"] - m["core.check_acyclic_s"] - m["core.reduce_s"]
	m["artc.compile_allocs_per_record"] = compileAllocs / records
	m["artifact.hit_share"] = w.hits
	return nil
}
