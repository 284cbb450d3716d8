package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"time"

	"rootreplay/internal/artc"
	"rootreplay/internal/core"
	"rootreplay/internal/obs"
	"rootreplay/internal/shard"
	"rootreplay/internal/sim"
	"rootreplay/internal/stack"
	"rootreplay/internal/workload"
)

// replay is the three replay workloads. They share one driver — compiled
// artifact bytes in, a digest of the replay's output out — and differ in
// corpus, target machine, cache state and engine.
type replay struct {
	artifact []byte // the compiled benchmark, as the artifact store holds it
	target   stack.Config
	warm     bool // WarmAll before replay: every read hits the cache
	sliced   bool // artc.ReplaySharded over 4 slices instead of artc.Replay

	exact map[string]float64   // exact statistics of the last iteration
	host  map[string][]float64 // host-time observations, one per iteration
}

const (
	pipelineStages  = 8
	pipelineHandoff = 64
	pipelineFile    = 8 << 20
	sliceCount      = 4
)

func setupReplay(p workload.Pipeline, target string, warm, sliced bool) (instance, error) {
	tr, snap, err := workload.SynthPipeline(p)
	if err != nil {
		return nil, err
	}
	b, err := artc.Compile(tr, snap, core.DefaultModes())
	if err != nil {
		return nil, err
	}
	var blob bytes.Buffer
	if err := b.EncodeBinary(&blob); err != nil {
		return nil, err
	}
	conf, err := stack.ParseTarget(target, 0, 0)
	if err != nil {
		return nil, err
	}
	return &replay{artifact: blob.Bytes(), target: conf, warm: warm, sliced: sliced,
		exact: make(map[string]float64), host: make(map[string][]float64)}, nil
}

// replay_hits: every read is a cache hit and nothing reaches the
// scheduler or the device, so host time is the replay loop, the event
// kernel, syscall dispatch, vfs and cache look-ups, and obs.
func setupReplayHits(seed int64, sz sizes, _ string) (instance, error) {
	return setupReplay(workload.Pipeline{Stages: pipelineStages, Ops: sz.hitsOps, Handoff: pipelineHandoff,
		FileBytes: pipelineFile, Seed: seed}, "linux-ext4-ssd-noop", true, false)
}

// replay_writeback: the same driver cold on an fsync-bearing corpus, so
// the cache is used the other way — dirty pages, Sync, writeback through
// CFQ and the HDD elevator.
func setupReplayWriteback(seed int64, sz sizes, _ string) (instance, error) {
	return setupReplay(workload.Pipeline{Stages: pipelineStages, Ops: sz.wbOps, Handoff: pipelineHandoff,
		Fsync: 2, FileBytes: pipelineFile, Seed: seed}, "linux-ext4-hdd-cfq", false, false)
}

// sliced_hits: replay_hits' corpus and target through the sharded
// engine, which isolates planning, the clock-exchange coordinator and
// the merge, with the serial replay as oracle.
func setupSlicedHits(seed int64, sz sizes, _ string) (instance, error) {
	return setupReplay(workload.Pipeline{Stages: pipelineStages, Ops: sz.hitsOps, Handoff: pipelineHandoff,
		FileBytes: pipelineFile, Seed: seed}, "linux-ext4-ssd-noop", true, true)
}

func (w *replay) close() {}

// initSystem restores the snapshot and, on the warm workloads, heats
// the cache.
func (w *replay) initSystem(sp *span, sys *stack.System, b *artc.Benchmark) error {
	s := sp.child("artc.Init")
	err := artc.Init(sys, b, "")
	s.done()
	if err == nil && w.warm {
		s = sp.child("stack.WarmAll")
		sys.WarmAll()
		s.done()
	}
	return err
}

// newSystem builds the target machine and initializes it for b.
func (w *replay) newSystem(sp *span, b *artc.Benchmark) (*stack.System, error) {
	s := sp.child("stack.New")
	sys := stack.New(sim.NewKernel(), w.target)
	s.done()
	return sys, w.initSystem(sp, sys, b)
}

func (w *replay) shardOptions(b *artc.Benchmark) artc.ShardOptions {
	return artc.ShardOptions{
		Shards:       procs,
		Target:       w.target,
		SliceActions: len(b.Trace.Records)/sliceCount + 1,
		Init:         func(sys *stack.System) error { return w.initSystem(nil, sys, b) },
	}
}

func (w *replay) iterate(sp *span) (iterOut, error) {
	s := sp.child("artc.DecodeBinaryBytes")
	b, err := artc.DecodeBinaryBytes(w.artifact)
	s.done()
	if err != nil {
		return iterOut{}, err
	}
	out := iterOut{records: len(b.Trace.Records)}
	if w.sliced {
		s = sp.child("artc.ReplaySharded")
		rep, st, err := artc.ReplaySharded(b, artc.Options{}, w.shardOptions(b))
		s.done()
		if err != nil {
			return out, err
		}
		out.digest = reportDigest(rep)
		w.reportStats(rep)
		w.exact["shard.components"] = float64(st.Components)
		w.exact["shard.cross_edges"] = float64(st.CrossEdges)
		w.exact["shard.synthetic_edges"] = float64(st.Synthetic)
		w.exact["shard.largest"] = float64(st.Largest)
		// The low 32 bits: a float64 cannot carry all 64.
		w.exact["shard.plan_fingerprint"] = float64(st.PlanFingerprint & 0xffffffff)
		if c := rep.Coord; c != nil {
			w.exact["coord.published"] = float64(c.Published)
			w.exact["coord.cross_wait_virtual_ms"] = float64(c.CrossWaitNs) / 1e6
			w.host["coord.blocked_host_ms"] = append(w.host["coord.blocked_host_ms"], float64(c.BlockedNs)/1e6)
			w.host["coord.flush_batches"] = append(w.host["coord.flush_batches"], float64(c.FlushBatches))
			w.host["coord.flush_max_batch"] = append(w.host["coord.flush_max_batch"], float64(c.FlushMaxBatch))
		}
		return out, nil
	}

	// The recorder holds every span and sample, so nothing is dropped
	// and the export covers the whole replay.
	rec := obs.NewRecorder(len(b.Trace.Records), 1<<22)
	sys, err := w.newSystem(sp, b)
	if err != nil {
		return out, err
	}
	s = sp.child("artc.Replay")
	rep, err := artc.Replay(sys, b, artc.Options{Obs: rec})
	s.done()
	if err != nil {
		return out, err
	}
	s = sp.child("obs.WriteChrome")
	var export bytes.Buffer
	err = rec.WriteChrome(&export)
	s.done()
	if err != nil {
		return out, err
	}
	s = sp.child("bench.sha256")
	sum := sha256.Sum256(export.Bytes())
	s.done()
	out.digest = hex.EncodeToString(sum[:]) + "/" + reportDigest(rep)

	// The statistics are read after the clock has stopped.
	out.finish = func() (string, error) {
		w.reportStats(rep)
		cs, ds, ss := sys.Cache.Stats(), sys.Dev.Stats(), sys.Stats()
		var calls int64
		for _, n := range ss.CallCount {
			calls += n
		}
		var queued float64
		for _, sm := range rec.Samples() {
			if sm.Kind == obs.CounterIOQueued && sm.Value > queued {
				queued = sm.Value
			}
		}
		dropped, _ := rec.Dropped()
		for k, v := range map[string]float64{
			"stack.call_count": float64(calls), "stack.call_errors": float64(ss.Errors),
			"cache.hits": float64(cs.Hits), "cache.misses": float64(cs.Misses), "cache.writes": float64(cs.Writes),
			"cache.writebacks": float64(cs.Writebacks), "cache.evictions": float64(cs.Evictions),
			"cache.resident_pages":  float64(sys.Cache.Resident()),
			"sched.outstanding_max": queued,
			"storage.reads":         float64(ds.Reads), "storage.writes": float64(ds.Writes),
			"storage.blocks_written":  float64(ds.BlocksWrite),
			"storage.busy_virtual_ms": float64(ds.BusyTime) / 1e6, "storage.seek_virtual_ms": float64(ds.SeekTime) / 1e6,
			"obs.export_bytes": float64(export.Len()), "obs.spans": float64(len(rec.Spans())),
			"obs.spans_dropped": float64(dropped),
		} {
			w.exact[k] = v
		}
		return out.digest, nil
	}
	return out, nil
}

func (w *replay) reportStats(rep *artc.Report) {
	w.exact["artc.virtual_elapsed_ms"] = float64(rep.Elapsed) / 1e6
	w.exact["artc.semantic_errors"] = float64(rep.Errors)
	w.exact["artc.concurrency"] = rep.Concurrency()
}

// reportDigest hashes everything in a report that the serial and the
// sharded engine must agree on.
func reportDigest(rep *artc.Report) string {
	buf := make([]byte, 0, 16*len(rep.IssueAt)+256)
	buf = fmt.Appendf(buf, "%s %d %d %d %d %d\n", rep.Method, rep.Actions, rep.Elapsed, rep.Errors, rep.Emulated, rep.ThreadTime)
	for i := range rep.IssueAt {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(rep.IssueAt[i]))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(rep.DoneAt[i]))
	}
	calls := make([]string, 0, len(rep.CallTime))
	for c := range rep.CallTime {
		calls = append(calls, c)
	}
	sort.Strings(calls)
	for _, c := range calls {
		buf = fmt.Appendf(buf, "%s %d %d\n", c, rep.CallCount[c], rep.CallTime[c])
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// oracle is a report-only serial replay from artifact bytes to report
// digest: what sliced_hits is checked against and the base of its ratio.
type oracle struct {
	b       *artc.Benchmark
	rep     *artc.Report
	digest  string
	replayS float64 // artc.Replay alone
	allocs  float64 // heap allocations artc.Replay made
}

func (w *replay) serialOracle(sp *span) (oracle, error) {
	b, err := artc.DecodeBinaryBytes(w.artifact)
	if err != nil {
		return oracle{}, err
	}
	sys, err := w.newSystem(sp, b)
	if err != nil {
		return oracle{}, err
	}
	o := oracle{b: b}
	s := sp.child("artc.Replay")
	t0 := time.Now()
	o.allocs = mallocs(func() { o.rep, err = artc.Replay(sys, b, artc.Options{}) })
	o.replayS = time.Since(t0).Seconds()
	s.done()
	if err != nil {
		return oracle{}, err
	}
	o.digest = reportDigest(o.rep)
	return o, nil
}

// verify checks the sliced report against a serial replay of the same
// bytes; the serial workloads have only the digest checks of the loop.
func (w *replay) verify() (attempted, failed int, err error) {
	if !w.sliced {
		return 0, 0, nil
	}
	o, err := w.serialOracle(nil)
	if err != nil {
		return 0, 0, err
	}
	sliced, _, err := artc.ReplaySharded(o.b, artc.Options{}, w.shardOptions(o.b))
	if err != nil {
		return 0, 0, err
	}
	if reportDigest(sliced) != o.digest {
		failed = 1
	}
	return 1, failed, nil
}

func (w *replay) detail(sp *span, m map[string]float64, iterS float64) error {
	for k, v := range w.exact {
		m[k] = v
	}
	for k, v := range w.host {
		m[k] = median(v)
	}
	// Three report-only serial replays: the base for what the recorder
	// costs on the serial workloads and for what slicing costs on
	// sliced_hits.
	var o oracle
	var wallS, replayS []float64
	for i := 0; i < 3; i++ {
		runtime.GC()
		s := sp.child("bench.serialOracle")
		var err error
		o, err = w.serialOracle(s)
		s.done()
		if err != nil {
			return err
		}
		wallS = append(wallS, s.dur().Seconds())
		replayS = append(replayS, o.replayS)
	}
	records := float64(len(o.b.Trace.Records))
	if w.sliced {
		m["coord.us_per_record"] = m["coord.replay_sharded_s"] * 1e6 / records
		// Sliced records/s over serial records/s on the same bytes.
		m["coord.vs_serial_ratio"] = median(wallS) / iterS
		s := sp.child("shard.Partition")
		plan := shard.Partition(o.b.Analysis, o.b.Graph)
		s.done()
		m["shard.partition_s"] = s.dur().Seconds()
		s = sp.child("shard.Slice")
		shard.Slice(o.b.Analysis, o.b.Graph, plan, shard.SliceOptions{MaxActions: len(o.b.Trace.Records)/sliceCount + 1})
		s.done()
		m["shard.slice_s"] = s.dur().Seconds()
		return nil
	}
	m["artc.replay_us_per_record"] = m["artc.replay_s"] * 1e6 / records
	m["artc.replay_allocs_per_record"] = o.allocs / records
	m["obs.record_overhead_share"] = 1 - median(replayS)/m["artc.replay_s"]
	s := sp.child("obs.CriticalPath")
	o.rep.CriticalPath(o.b)
	s.done()
	m["obs.critpath_s"] = s.dur().Seconds()
	return nil
}
