// Command perfstat measures the compiler and replayer hot path on a
// fixed mid-size Magritte trace and writes a small JSON record —
// records/sec through Compile plus dependency-graph edge counts — so
// the perf trajectory of the repo can be tracked across revisions
// (scripts/ci.sh appends it as BENCH_<tag>.json).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"testing"
	"time"

	"rootreplay/internal/artc"
	"rootreplay/internal/artifact"
	"rootreplay/internal/core"
	"rootreplay/internal/magritte"
	"rootreplay/internal/obs"
	"rootreplay/internal/sim/simbench"
	"rootreplay/internal/trace"
	"rootreplay/internal/workload"
)

// Stats is the serialized measurement.
type Stats struct {
	Trace   string  `json:"trace"`
	Scale   float64 `json:"scale"`
	Records int     `json:"records"`
	// Compile throughput.
	CompileIters     int     `json:"compile_iters"`
	CompileNsPerOp   int64   `json:"compile_ns_per_op"`
	RecordsPerSecond float64 `json:"records_per_second"`
	// Trace ingest: the benchmark trace rendered as strace text and fed
	// back through the fast parser.
	ParseRecords          int     `json:"parse_records"`
	ParseNs               int64   `json:"parse_ns"`
	ParseRecordsPerSecond float64 `json:"parse_records_per_second"`
	ParseAllocsPerRecord  float64 `json:"parse_allocs_per_record"`
	// Dependency-graph structure of the compiled benchmark.
	RawEdges      int `json:"raw_edges"`
	EnforcedEdges int `json:"enforced_edges"`
	ReducedEdges  int `json:"reduced_edges"`
	TemporalEdges int `json:"temporal_edges"`
	// Replay wall time (host) for one ARTC replay of the benchmark.
	ReplayNs int64 `json:"replay_ns"`
	// Artifact cache: size of the compiled binary artifact, wall time to
	// load it back into a ready-to-replay benchmark, and whether the
	// measured load was a cache hit. A warm replay pays CachedLoadNs
	// where a cold one pays ParseNs + CompileNsPerOp.
	ArtifactBytes int64 `json:"artifact_bytes"`
	CachedLoadNs  int64 `json:"cached_load_ns"`
	CacheHit      bool  `json:"cache_hit"`
	// Sharded replay over the components scale corpus (tracegen -family
	// components): serial vs component-partitioned wall time on the same
	// benchmark, the partition's shape, and the resulting speedup.
	ComponentsRecords    int     `json:"components_records"`
	ComponentsReplayNs   int64   `json:"components_replay_ns"`
	ReplayShardedNs      int64   `json:"replay_sharded_ns"`
	ShardCount           int     `json:"shard_count"`
	CrossEdges           int     `json:"cross_edges"`
	ShardSpeedup         float64 `json:"shard_speedup"`
	ComponentsGoMaxProcs int     `json:"components_gomaxprocs"`
	// Sliced replay over the pipeline corpus (tracegen -family pipeline):
	// one weakly-connected component the partitioner cannot split, cut
	// into 8 slices by resource-cut slicing and co-replayed under the
	// epoch clock-exchange coordinator. Both sides replay with warmed
	// caches (the device-independence precondition for sliced
	// byte-identity), so the comparison isolates coordination cost.
	PipelineRecords    int     `json:"pipeline_records"`
	PipelineReplayNs   int64   `json:"pipeline_replay_ns"`
	PipelineSlicedNs   int64   `json:"pipeline_sliced_ns"`
	PipelineSlices     int     `json:"pipeline_slices"`
	PipelineCrossEdges int     `json:"pipeline_cross_edges"`
	SliceSpeedup       float64 `json:"slice_speedup"`
	PipelineGoMaxProcs int     `json:"pipeline_gomaxprocs"`
	// Observability: wall time of an obs-instrumented replay (the delta
	// against ReplayNs is the recorder's enabled-path overhead), recorded
	// volumes, and the replay's critical path.
	ObsReplayNs       int64 `json:"obs_replay_ns"`
	ObsSpans          int   `json:"obs_spans"`
	ObsSamples        int   `json:"obs_samples"`
	CritPathHops      int   `json:"critpath_hops"`
	CritPathElapsedNs int64 `json:"critpath_elapsed_ns"`
	CritPathInCallNs  int64 `json:"critpath_incall_ns"`
	CritPathSlackNs   int64 `json:"critpath_slack_ns"`
	// Kernel microbenchmarks (internal/sim/simbench): the event-queue,
	// wake, handoff, and completion hot paths in isolation.
	KernelTimerChurnNsPerOp     float64 `json:"kernel_timer_churn_ns_per_op"`
	KernelTimerChurnAllocsPerOp float64 `json:"kernel_timer_churn_allocs_per_op"`
	KernelSleepChurnNsPerOp     float64 `json:"kernel_sleep_churn_ns_per_op"`
	KernelPingPongNsPerOp       float64 `json:"kernel_pingpong_ns_per_op"`
	KernelCompletionNsPerOp     float64 `json:"kernel_completion_ns_per_op"`

	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	// GoMaxProcs is the effective GOMAXPROCS of the single-proc legacy
	// sections above; the sharded sections record their own pinned
	// values, making every measurement reproducible from the snapshot
	// alone (NumCPU says what the host had, not what the run used).
	GoMaxProcs int `json:"gomaxprocs"`
}

// measureComponents times the serial and sharded replayers over the
// components scale corpus (the shape sharding parallelizes perfectly)
// and records the partition's structure.
func measureComponents(st *Stats, n, ops int, skew float64, procs int) {
	// Pin the host proc count for the serial/sharded pair so the
	// comparison is reproducible across hosts (and measured last, so the
	// pin can't disturb the single-proc legacy metrics above).
	if procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	}
	st.ComponentsGoMaxProcs = runtime.GOMAXPROCS(0)
	tr, snap, err := workload.SynthComponents(workload.Components{N: n, Ops: ops, Skew: skew, Seed: 7})
	check("components", err)
	b, err := artc.Compile(tr, snap, core.DefaultModes())
	check("components compile", err)
	st.ComponentsRecords = len(tr.Records)
	spec := artc.RunSpec{Target: magritte.DefaultSuiteOptions().Target}
	_, _, st.ComponentsReplayNs = timedRun("components replay", b, spec)
	spec.Shards = -1
	_, shst, ns := timedRun("components sharded replay", b, spec)
	st.ReplayShardedNs = ns
	st.ShardCount = shst.Components
	st.CrossEdges = shst.CrossEdges
	if st.ReplayShardedNs > 0 {
		st.ShardSpeedup = float64(st.ComponentsReplayNs) / float64(st.ReplayShardedNs)
	}
}

// measurePipeline times the serial and sliced replayers over the
// pipeline slicing corpus: a single weakly-connected component the
// component partitioner keeps whole, split 8 ways along resource cuts.
// The measured shape is the fsync-heavy writeback variant replayed
// cold. An fsync costs the host its file's dirty pages on either side,
// so serial vs sliced compares one machine against eight replicas plus
// their coordination; slice_speedup below 1 means slicing costs more
// than it saves at this core count.
// Slicing it needs SliceDeviceSync, so this is a perf-only regime —
// the byte-identity contract is asserted separately over warmed,
// fsync-free corpora (internal/artc slice tests, Magritte suite).
func measurePipeline(st *Stats, stages, ops, handoff, fsync, slices, procs int) {
	if procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	}
	st.PipelineGoMaxProcs = runtime.GOMAXPROCS(0)
	tr, snap, err := workload.SynthPipeline(workload.Pipeline{
		Stages: stages, Ops: ops, Handoff: handoff, Fsync: fsync, FileBytes: 8 << 20, Seed: 7,
	})
	check("pipeline", err)
	b, err := artc.Compile(tr, snap, core.DefaultModes())
	check("pipeline compile", err)
	st.PipelineRecords = len(tr.Records)
	spec := artc.RunSpec{Target: magritte.DefaultSuiteOptions().Target}
	_, _, st.PipelineReplayNs = timedRun("pipeline replay", b, spec)
	spec.Shards = -1
	spec.SliceActions = len(tr.Records)/slices + 1
	spec.SliceDeviceSync = true
	_, shst, ns := timedRun("pipeline sliced replay", b, spec)
	st.PipelineSlicedNs = ns
	st.PipelineSlices = shst.Components
	st.PipelineCrossEdges = shst.CrossEdges
	if st.PipelineSlicedNs > 0 {
		st.SliceSpeedup = float64(st.PipelineReplayNs) / float64(st.PipelineSlicedNs)
	}
}

// check ends the program on a failed step: a measurement with a hole in
// it is not worth writing down.
func check(what string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfstat: %s: %v\n", what, err)
		os.Exit(1)
	}
}

// timedRun replays b once through the driver and returns the host time
// of all of it — building the machines, init, replay, merge — so the
// serial and the sharded side of a comparison bracket the same work.
func timedRun(what string, b *artc.Benchmark, spec artc.RunSpec) (*artc.Report, *artc.ShardStats, int64) {
	t0 := time.Now()
	rep, shst, err := artc.Run(b, spec)
	check(what, err)
	return rep, shst, time.Since(t0).Nanoseconds()
}

// microbench runs fn through the testing harness and returns ns/op and
// allocs/op.
func microbench(fn func(b *testing.B)) (nsPerOp, allocsPerOp float64) {
	r := testing.Benchmark(fn)
	if r.N == 0 {
		return 0, 0
	}
	return float64(r.T.Nanoseconds()) / float64(r.N), float64(r.AllocsPerOp())
}

func main() {
	out := flag.String("o", "BENCH_pr4.json", "output JSON path")
	name := flag.String("trace", "pages_docphoto15", "magritte trace name")
	scale := flag.Float64("scale", 0.02, "magritte generation scale")
	iters := flag.Int("iters", 5, "compile iterations to average")
	compOps := flag.Int("components-ops", 3300000, "components corpus op budget (~3.1 records each; 0 skips the sharded-replay measurement)")
	compN := flag.Int("components", 64, "components corpus group count")
	compSkew := flag.Float64("components-skew", 0.5, "components corpus size skew")
	compProcs := flag.Int("components-procs", 8, "GOMAXPROCS pinned for the components serial/sharded comparison (0 inherits)")
	pipeOps := flag.Int("pipeline-ops", 16000, "pipeline corpus ops per stage (0 skips the sliced-replay measurement)")
	pipeStages := flag.Int("pipeline-stages", 8, "pipeline corpus stage count")
	pipeHandoff := flag.Int("pipeline-handoff", 64, "pipeline corpus ops between boundary exchanges")
	pipeFsync := flag.Int("pipeline-fsync", 2, "pipeline corpus fsync interval in private write sessions (0 disables fsync)")
	pipeSlices := flag.Int("pipeline-slices", 8, "slice count for the sliced pipeline replay")
	pipeProcs := flag.Int("pipeline-procs", 8, "GOMAXPROCS pinned for the pipeline serial/sliced comparison (0 inherits)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memprofile := flag.String("memprofile", "", "write a heap profile to this path")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		check("cpuprofile", err)
		check("cpuprofile", pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfstat:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "perfstat:", err)
			}
			f.Close()
		}()
	}

	spec, ok := magritte.SpecByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfstat: unknown trace %q\n", *name)
		os.Exit(1)
	}
	gen, err := magritte.Generate(spec, magritte.GenOptions{Scale: *scale, Seed: 5})
	check("generate", err)

	// Minimum over the iterations, like the replay timing below: the
	// first compile pays cold caches and the allocator's ramp-up, and a
	// mean over few iterations is dominated by that outlier on a busy
	// host. The minimum estimates the steady-state cost. The collector
	// is quiesced around each min-loop (here and for the warm artifact
	// load below, identically) so millisecond-scale regions measure the
	// operation, not the GC pacer's reaction to the process's live heap.
	gcQuiet := func() func() {
		runtime.GC()
		old := debug.SetGCPercent(-1)
		return func() { debug.SetGCPercent(old) }
	}
	var b *artc.Benchmark
	var perOp int64
	restore := gcQuiet()
	for i := 0; i < *iters; i++ {
		// Collect between iterations, outside the timed region: the
		// previous iteration's garbage is recycled into warm spans and
		// the pacer stays asleep inside the measurement.
		runtime.GC()
		t0 := time.Now()
		b, err = artc.Compile(gen.Trace, gen.Snapshot, core.DefaultModes())
		check("compile", err)
		if d := time.Since(t0).Nanoseconds(); i == 0 || d < perOp {
			perOp = d
		}
	}
	restore()

	// Artifact cache: store the compiled benchmark once, then time the
	// warm load path (read + binary decode into a ready-to-replay
	// benchmark). Minimum over the iterations, like the compile timing.
	var cachedLoadNs int64
	var artifactBytes int64
	cacheHit := false
	if cacheDir, err := os.MkdirTemp("", "perfstat-cache-*"); err == nil {
		defer os.RemoveAll(cacheDir)
		store, err := artifact.Open(cacheDir, 0)
		if err == nil {
			key, err := artifact.KeyTrace(gen.Trace, gen.Snapshot, core.DefaultModes())
			if err == nil {
				if artifactBytes, err = store.Put(key, b); err == nil {
					// The load is several times cheaper than a compile, so
					// spend more samples on it: the minimum of a handful of
					// millisecond-scale runs on a busy host is still mostly
					// scheduler noise.
					loadIters := *iters * 5
					restore := gcQuiet()
					for i := 0; i < loadIters; i++ {
						runtime.GC()
						t0 := time.Now()
						wb, _, err := store.Get(key)
						if err != nil || wb == nil {
							break
						}
						cacheHit = true
						if d := time.Since(t0).Nanoseconds(); i == 0 || d < cachedLoadNs {
							cachedLoadNs = d
						}
					}
					restore()
				}
			}
		}
		if !cacheHit {
			fmt.Fprintln(os.Stderr, "perfstat: warm artifact load failed; cached_load_ns unset")
		}
	}

	st := Stats{
		Trace:          *name,
		Scale:          *scale,
		Records:        len(gen.Trace.Records),
		CompileIters:   *iters,
		CompileNsPerOp: perOp,
		RawEdges:       len(b.Graph.Edges) + b.Graph.ReducedEdges,
		EnforcedEdges:  len(b.Graph.Edges),
		ReducedEdges:   b.Graph.ReducedEdges,
		TemporalEdges:  len(core.TemporalGraph(b.Analysis).Edges),
		ArtifactBytes:  artifactBytes,
		CachedLoadNs:   cachedLoadNs,
		CacheHit:       cacheHit,
		GoVersion:      runtime.Version(),
		NumCPU:         runtime.NumCPU(),
		GoMaxProcs:     runtime.GOMAXPROCS(0),
	}
	if perOp > 0 {
		st.RecordsPerSecond = float64(st.Records) / (float64(perOp) / 1e9)
	}

	// Minimum of a few runs: single-shot replay wall time swings by ~10%
	// on a busy host, and the minimum is the least-noisy estimator of
	// the true cost.
	const replayRuns = 3
	for i := 0; i < replayRuns; i++ {
		rt0 := time.Now()
		_, _, err := magritte.ThreadTimeRun(b, magritte.DefaultSuiteOptions().Target, true)
		check("replay", err)
		if ns := time.Since(rt0).Nanoseconds(); i == 0 || ns < st.ReplayNs {
			st.ReplayNs = ns
		}
	}

	var rec *obs.Recorder
	var rep *artc.Report
	for i := 0; i < replayRuns; i++ {
		rec = obs.NewRecorder(0, 0)
		var ns int64
		rep, _, ns = timedRun("obs replay", b, artc.RunSpec{
			Options: artc.Options{Obs: rec},
			Target:  magritte.DefaultSuiteOptions().Target,
			Init:    magritte.TargetInit(b, true),
		})
		if i == 0 || ns < st.ObsReplayNs {
			st.ObsReplayNs = ns
		}
	}
	st.ObsSpans = len(rec.Spans())
	st.ObsSamples = len(rec.Samples())
	cp := rep.CriticalPath(b)
	st.CritPathHops = len(cp.Hops)
	st.CritPathElapsedNs = cp.Elapsed.Nanoseconds()
	st.CritPathInCallNs = cp.InCall.Nanoseconds()
	st.CritPathSlackNs = cp.Slack.Nanoseconds()

	// Ingest throughput: render the trace as strace text once, then
	// time the fast parser over it. Records are counted from a re-parse
	// because calls outside the strace encoder's set drop on the way
	// through.
	var straceBuf bytes.Buffer
	check("encode strace", trace.EncodeStrace(&straceBuf, gen.Trace))
	straceText := straceBuf.Bytes()
	reparsed, err := trace.ParseStrace(bytes.NewReader(straceText))
	check("parse strace", err)
	st.ParseRecords = len(reparsed.Records)
	pr := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := trace.ParseStrace(bytes.NewReader(straceText)); err != nil {
				b.Fatal(err)
			}
		}
	})
	if pr.N > 0 {
		st.ParseNs = pr.T.Nanoseconds() / int64(pr.N)
		if st.ParseNs > 0 {
			st.ParseRecordsPerSecond = float64(st.ParseRecords) / (float64(st.ParseNs) / 1e9)
		}
		if st.ParseRecords > 0 {
			st.ParseAllocsPerRecord = float64(pr.AllocsPerOp()) / float64(st.ParseRecords)
		}
	}

	st.KernelTimerChurnNsPerOp, st.KernelTimerChurnAllocsPerOp = microbench(simbench.TimerChurn)
	st.KernelSleepChurnNsPerOp, _ = microbench(simbench.SleepChurn)
	st.KernelPingPongNsPerOp, _ = microbench(simbench.PingPong)
	st.KernelCompletionNsPerOp, _ = microbench(simbench.CompletionStorm)

	if *compOps > 0 {
		measureComponents(&st, *compN, *compOps, *compSkew, *compProcs)
	}
	if *pipeOps > 0 {
		measurePipeline(&st, *pipeStages, *pipeOps, *pipeHandoff, *pipeFsync, *pipeSlices, *pipeProcs)
	}

	f, err := os.Create(*out)
	check("output", err)
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	check("output", enc.Encode(st))
	check("output", f.Close())
	fmt.Printf("perfstat: %d records, compile %.2f ms (%.0f records/s), edges raw=%d enforced=%d temporal=%d -> %s\n",
		st.Records, float64(perOp)/1e6, st.RecordsPerSecond,
		st.RawEdges, st.EnforcedEdges, st.TemporalEdges, *out)
	fmt.Printf("perfstat: artifact %d bytes, warm load %.2f ms (hit=%v) vs parse+compile %.2f ms\n",
		st.ArtifactBytes, float64(st.CachedLoadNs)/1e6, st.CacheHit,
		float64(st.ParseNs+st.CompileNsPerOp)/1e6)
	fmt.Printf("perfstat: parse %.2f ms (%.0f records/s, %.2f allocs/record) over %d records\n",
		float64(st.ParseNs)/1e6, st.ParseRecordsPerSecond, st.ParseAllocsPerRecord, st.ParseRecords)
	fmt.Printf("perfstat: obs replay %.2f ms (plain %.2f ms), %d spans, %d samples, critical path %d hops (in-call %v, slack %v)\n",
		float64(st.ObsReplayNs)/1e6, float64(st.ReplayNs)/1e6, st.ObsSpans, st.ObsSamples,
		st.CritPathHops, cp.InCall, cp.Slack)
	if st.ComponentsRecords > 0 {
		fmt.Printf("perfstat: components corpus %d records / %d shards (%d cross edges, GOMAXPROCS=%d): serial %.0f ms, sharded %.0f ms (%.2fx)\n",
			st.ComponentsRecords, st.ShardCount, st.CrossEdges, st.ComponentsGoMaxProcs,
			float64(st.ComponentsReplayNs)/1e6, float64(st.ReplayShardedNs)/1e6, st.ShardSpeedup)
	}
	if st.PipelineRecords > 0 {
		fmt.Printf("perfstat: pipeline corpus %d records / %d slices (%d cross edges, GOMAXPROCS=%d): serial %.0f ms, sliced %.0f ms (%.2fx)\n",
			st.PipelineRecords, st.PipelineSlices, st.PipelineCrossEdges, st.PipelineGoMaxProcs,
			float64(st.PipelineReplayNs)/1e6, float64(st.PipelineSlicedNs)/1e6, st.SliceSpeedup)
	}
	fmt.Printf("perfstat: kernel timer churn %.1f ns/op (%.0f allocs/op), sleep %.1f ns/op, ping-pong %.1f ns/op, completion %.1f ns/op\n",
		st.KernelTimerChurnNsPerOp, st.KernelTimerChurnAllocsPerOp,
		st.KernelSleepChurnNsPerOp, st.KernelPingPongNsPerOp, st.KernelCompletionNsPerOp)
}
