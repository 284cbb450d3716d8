// Command artc compiles and replays system-call traces.
//
//	artc compile -trace app.strace -format strace -snapshot init.snap -o app.bench
//	artc convert -trace app.strace -format strace -shards -1 -to native -o app.trace
//	artc replay  -bench app.bench -target linux-ext4-hdd -method artc -speed afap
//	artc inspect -bench app.bench
//	artc trace   -magritte pages_docphoto15 -o replay.trace.json
//	artc chaos   -magritte pages_docphoto15 -seeds 16 -verify
//	artc chaos   -magritte pages_docphoto15 -seed 3 -o chaos-seed3.json
//
// compile turns a trace (native or strace format) plus an optional
// initial-state snapshot into a self-contained benchmark file; -shards
// lexes strace input in parallel, -stream overlaps strace lexing with
// compilation. convert re-encodes a trace between formats. replay
// executes a benchmark on a simulated target machine and reports timing
// and semantic accuracy. inspect prints a benchmark's dependency-graph
// statistics. trace replays with the observability recorder enabled and
// exports a Chrome trace_event JSON file (loadable in Perfetto) plus a
// text summary and critical-path report. chaos replays under seeded
// fault injection: -seeds N sweeps consecutive seeds asserting the
// chaos invariants (clean termination, monotonic virtual clock,
// per-seed reproducibility with -verify), while a single -seed run
// exports a deterministic JSON document for bit-reproducibility checks.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"rootreplay/internal/artc"
	"rootreplay/internal/artifact"
	"rootreplay/internal/core"
	"rootreplay/internal/fault"
	"rootreplay/internal/fault/chaostest"
	"rootreplay/internal/magritte"
	"rootreplay/internal/obs"
	"rootreplay/internal/shard"
	"rootreplay/internal/sim"
	"rootreplay/internal/snapshot"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "compile":
		err = compileCmd(os.Args[2:])
	case "convert":
		err = convertCmd(os.Args[2:])
	case "replay":
		err = replayCmd(os.Args[2:])
	case "inspect":
		err = inspectCmd(os.Args[2:])
	case "trace":
		err = traceCmd(os.Args[2:])
	case "chaos":
		err = chaosCmd(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "artc: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: artc <compile|convert|replay|inspect|trace|chaos> [flags]")
	os.Exit(2)
}

// readTrace parses a trace file in the named format. For strace input,
// shards selects the lexer: 0 sequential, N > 0 that many parallel
// shards, negative one shard per CPU.
func readTrace(path, format string, shards int) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch format {
	case "strace":
		if shards != 0 {
			if shards < 0 {
				shards = 0 // ParseStraceSharded reads <= 0 as GOMAXPROCS
			}
			return trace.ParseStraceSharded(f, shards)
		}
		return trace.ParseStrace(f)
	case "ibench":
		return trace.ParseIBench(f)
	case "native":
		return trace.Decode(f)
	default:
		return nil, fmt.Errorf("unknown format %q", format)
	}
}

// cacheFlags registers the artifact-cache flags shared by the commands
// that compile (compile, trace, chaos).
func cacheFlags(fs *flag.FlagSet) (dir *string, off *bool) {
	dir = fs.String("cache-dir", "", "compiled-artifact cache directory (default: <user cache dir>/artc)")
	off = fs.Bool("no-cache", false, "disable the compiled-artifact cache")
	return dir, off
}

// openStore opens the artifact cache, or returns nil (uncached
// operation) when disabled or unavailable. An unusable cache directory
// is a warning, not a failure: caching can cost time, never a run.
func openStore(dir string, off bool) *artifact.Store {
	if off {
		return nil
	}
	s, err := artifact.Open(dir, 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "artc: artifact cache disabled: %v\n", err)
		return nil
	}
	return s
}

// reportCache prints one line describing how a cached compile was
// satisfied. The "corrupt" wording is load-bearing: CI greps for it to
// prove damaged artifacts are detected rather than replayed.
func reportCache(st artifact.Stats, quiet bool) {
	if st.Key == "" {
		return
	}
	switch {
	case st.Corrupt:
		// A corrupt cache entry is a safety signal, not progress chatter:
		// report it even under -quiet.
		fmt.Fprintf(os.Stderr, "artc: cache: corrupt artifact detected and removed, recompiled key=%s\n", st.Key[:12])
	case quiet:
	case st.Hit:
		fmt.Fprintf(os.Stderr, "artc: cache: hit key=%s load=%v size=%d\n",
			st.Key[:12], time.Duration(st.LoadNs), st.Bytes)
	default:
		fmt.Fprintf(os.Stderr, "artc: cache: miss key=%s compile=%v size=%d\n",
			st.Key[:12], time.Duration(st.CompileNs), st.Bytes)
	}
}

// resolveSliceProfile implements -slice-profile=auto: return the cached
// slice profile for (benchmark, slice options) if one exists, otherwise
// run one profiling replay of the static cut, persist its profile, and
// return it. A corrupt cached profile falls back to the static cut with
// a warning — the same contract as a corrupt benchmark artifact, minus
// the recompute (the static cut is always safe). Returns nil (static
// cut) for mode "off" and for plans slicing leaves whole.
func resolveSliceProfile(mode string, store *artifact.Store, b *artc.Benchmark,
	opts artc.Options, so artc.ShardOptions, quiet bool) (*shard.SliceProfile, error) {
	switch mode {
	case "", "off":
		return nil, nil
	case "auto":
	default:
		return nil, fmt.Errorf("unknown -slice-profile mode %q (want off or auto)", mode)
	}
	if so.SliceActions <= 0 {
		return nil, fmt.Errorf("-slice-profile=auto requires -slice-actions")
	}
	var key string
	if store != nil {
		benchKey, err := artifact.KeyTrace(b.Trace, b.Snapshot, b.Modes)
		if err != nil {
			return nil, err
		}
		key = artifact.ProfileKey(benchKey, so.SliceActions, so.SliceMax, so.SliceDeviceSync)
		sp, _, err := store.GetProfile(key)
		switch {
		case err == nil:
			if !quiet {
				fmt.Fprintf(os.Stderr, "artc: slice profile: hit key=%s atoms=%d pairs=%d\n",
					key[:12], len(sp.Atoms), len(sp.Pairs))
			}
			return sp, nil
		case errors.Is(err, artifact.ErrMiss):
		default:
			var ce *artifact.CorruptError
			if errors.As(err, &ce) {
				// The corrupt wording is load-bearing: CI greps for it.
				fmt.Fprintf(os.Stderr, "artc: slice profile: corrupt entry detected and removed, falling back to static cut key=%s\n", key[:12])
				return nil, nil
			}
			return nil, err
		}
	}
	// Miss: profile the static cut once. Observability stays off — the
	// coordinator's wait accounting is always on and is all the profile
	// needs.
	popts := opts
	popts.Obs = nil
	pso := so
	pso.SliceProfile = nil
	t0 := time.Now()
	_, st, err := artc.ReplaySharded(b, popts, pso)
	if err != nil {
		return nil, fmt.Errorf("slice profiling replay: %w", err)
	}
	if st.Profile == nil {
		return nil, nil // nothing was sliced; nothing to re-cut
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "artc: slice profile: miss, profiled static cut in %v (atoms=%d pairs=%d)\n",
			time.Since(t0).Round(time.Millisecond), len(st.Profile.Atoms), len(st.Profile.Pairs))
	}
	if store != nil {
		if _, err := store.PutProfile(key, st.Profile); err != nil {
			fmt.Fprintf(os.Stderr, "artc: slice profile: store failed: %v\n", err)
		}
	}
	return st.Profile, nil
}

func readSnapshot(path string) (*snapshot.Snapshot, error) {
	if path == "" {
		return nil, nil
	}
	sf, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer sf.Close()
	return snapshot.Decode(sf)
}

func compileCmd(args []string) error {
	fs := flag.NewFlagSet("compile", flag.ExitOnError)
	tracePath := fs.String("trace", "", "trace file (required)")
	format := fs.String("format", "native", "trace format: native | strace | ibench")
	snapPath := fs.String("snapshot", "", "initial snapshot file (optional; inferred if absent)")
	out := fs.String("o", "out.bench", "output benchmark file")
	modesFlag := fs.String("modes", artc.ModesString(core.DefaultModes()), "ordering modes")
	shards := fs.Int("shards", 0, "parse strace input in N parallel shards (0 = sequential, -1 = one per CPU)")
	stream := fs.Bool("stream", false, "stream strace parsing into the compiler (requires -format strace; overlap needs -snapshot)")
	binOut := fs.Bool("binary", false, "write the output as a binary artifact instead of text")
	cacheDir, noCache := cacheFlags(fs)
	fs.Parse(args)
	if *tracePath == "" {
		return fmt.Errorf("-trace is required")
	}
	snap, err := readSnapshot(*snapPath)
	if err != nil {
		return err
	}
	modes, err := artc.ParseModes(*modesFlag)
	if err != nil {
		return err
	}
	store := openStore(*cacheDir, *noCache)

	var b *artc.Benchmark
	var st artifact.Stats
	switch {
	case store != nil && *format == "strace":
		// Key on the raw strace bytes so a warm hit skips parsing too;
		// cold misses compile through the streaming path.
		raw, err := os.ReadFile(*tracePath)
		if err != nil {
			return err
		}
		if b, st, err = artifact.CompileStrace(store, raw, snap, modes); err != nil {
			return err
		}
	case *stream:
		if *format != "strace" {
			return fmt.Errorf("-stream requires -format strace")
		}
		f, err := os.Open(*tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if b, err = artc.CompileStraceStream(f, snap, modes); err != nil {
			return err
		}
	default:
		tr, err := readTrace(*tracePath, *format, *shards)
		if err != nil {
			return err
		}
		if b, st, err = artifact.CompileTrace(store, tr, snap, modes); err != nil {
			return err
		}
	}
	reportCache(st, false)
	of, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer of.Close()
	if *binOut {
		err = b.EncodeBinary(of)
	} else {
		err = b.Encode(of)
	}
	if err != nil {
		return err
	}
	fmt.Printf("compiled %d records, %d threads, %d dependency edges -> %s\n",
		len(b.Trace.Records), len(b.Trace.Threads()), len(b.Graph.Edges), *out)
	if len(b.Analysis.Warnings) > 0 {
		fmt.Printf("%d model warnings (first: %s)\n", len(b.Analysis.Warnings), b.Analysis.Warnings[0])
	}
	return nil
}

// convertCmd re-encodes a trace between formats. Its main job is the
// ingest CI lane: parse the same strace text sequentially and sharded
// and compare the native encodings byte for byte.
func convertCmd(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	tracePath := fs.String("trace", "", "trace file (required)")
	format := fs.String("format", "strace", "input format: native | strace | ibench")
	outFormat := fs.String("to", "native", "output format: native | strace")
	shards := fs.Int("shards", 0, "parse strace input in N parallel shards (0 = sequential, -1 = one per CPU)")
	out := fs.String("o", "-", "output file (- = stdout)")
	fs.Parse(args)
	if *tracePath == "" {
		return fmt.Errorf("-trace is required")
	}
	tr, err := readTrace(*tracePath, *format, *shards)
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch *outFormat {
	case "native":
		return tr.Encode(w)
	case "strace":
		return trace.EncodeStrace(w, tr)
	default:
		return fmt.Errorf("unknown output format %q", *outFormat)
	}
}

// targetConfig parses "platform-fsprofile-device[-sched]" names like
// "linux-ext4-hdd" or "osx-hfs+-ssd-noop".
func targetConfig(name string, cachePages int64, slice time.Duration) (stack.Config, error) {
	return stack.ParseTarget(name, cachePages, slice)
}

func replayCmd(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	benchPath := fs.String("bench", "", "benchmark file (required)")
	target := fs.String("target", "linux-ext4-hdd", "target machine: platform-fs-device[-sched]")
	method := fs.String("method", "artc", "replay method: artc | single | temporal | unconstrained")
	speed := fs.String("speed", "afap", "replay speed: afap | natural | scaled")
	scale := fs.Float64("scale", 1.0, "predelay multiplier for -speed scaled")
	cache := fs.Int64("cache-pages", 0, "page-cache capacity in 4KiB pages (0 = 1GiB)")
	slice := fs.Duration("slice", 0, "CFQ slice_sync (0 = 100ms default)")
	fullFsync := fs.Bool("osx-full-fsync", false, "use F_FULLFSYNC when emulating Linux fsync on OS X")
	timeline := fs.Bool("timeline", false, "print a per-thread replay timeline (Figure 9 style)")
	shards := fs.Int("shards", 0, "replay components in parallel with this worker bound (0 = serial replayer; -1 = GOMAXPROCS)")
	sliceActions := fs.Int("slice-actions", 0, "with -shards: split components larger than this many actions along resource cuts (0 = off)")
	sliceMax := fs.Int("slice-max", 0, "cap on slices per component (0 = no cap)")
	sliceDevSync := fs.Bool("slice-device-sync", false, "let slicing cut fsync-heavy components (perf runs only: merged times reflect per-slice device queues, so output is no longer byte-identical to serial)")
	sliceProfile := fs.String("slice-profile", "off", "profile-guided re-slicing: off | auto (load the cached slice profile, or profile the static cut once, then re-cut and replay)")
	warm := fs.Bool("warm", false, "pre-warm every replica's metadata and page caches (required for sliced-vs-serial byte identity)")
	cacheDir, noCache := cacheFlags(fs)
	fs.Parse(args)
	if *benchPath == "" {
		return fmt.Errorf("-bench is required")
	}
	bf, err := os.Open(*benchPath)
	if err != nil {
		return err
	}
	defer bf.Close()
	b, err := artc.DecodeAny(bf)
	if err != nil {
		return err
	}
	conf, err := targetConfig(*target, *cache, *slice)
	if err != nil {
		return err
	}
	opts := artc.Options{Method: artc.Method(*method), FullFsyncOnOSX: *fullFsync}
	switch *speed {
	case "afap":
		opts.Speed = artc.AFAP
	case "natural":
		opts.Speed = artc.Natural
	case "scaled":
		opts.Speed = artc.Scaled
		opts.Scale = *scale
	default:
		return fmt.Errorf("unknown speed %q", *speed)
	}

	var rep *artc.Report
	if *shards != 0 {
		n := *shards
		if n < 0 {
			n = 0 // ReplaySharded resolves 0 to GOMAXPROCS
		}
		so := artc.ShardOptions{
			Shards: n,
			Target: conf,
			Init: func(sys *stack.System) error {
				if err := artc.Init(sys, b, ""); err != nil {
					return err
				}
				if *warm {
					sys.WarmAll()
				}
				return nil
			},
			SliceActions:    *sliceActions,
			SliceMax:        *sliceMax,
			SliceDeviceSync: *sliceDevSync,
		}
		so.SliceProfile, err = resolveSliceProfile(*sliceProfile, openStore(*cacheDir, *noCache), b, opts, so, false)
		if err != nil {
			return err
		}
		var st *artc.ShardStats
		rep, st, err = artc.ReplaySharded(b, opts, so)
		if err != nil {
			return err
		}
		fmt.Printf("sharded: components=%d clusters=%d cross-edges=%d largest=%d workers=%d sliced=%d synthetic=%d profiled=%v fingerprint=%016x\n",
			st.Components, st.Clusters, st.CrossEdges, st.Largest, st.Shards, st.Sliced, st.Synthetic, st.Profiled, st.PlanFingerprint)
		if c := rep.Coord; c != nil {
			fmt.Printf("coord: cross-wait=%v published=%d flush-batches=%d max-batch=%d host-blocked=%v\n",
				time.Duration(c.CrossWaitNs), c.Published, c.FlushBatches, c.FlushMaxBatch, time.Duration(c.BlockedNs).Round(time.Millisecond))
		}
	} else {
		k := sim.NewKernel()
		sys := stack.New(k, conf)
		if err := artc.Init(sys, b, ""); err != nil {
			return err
		}
		if *warm {
			sys.WarmAll()
		}
		rep, err = artc.Replay(sys, b, opts)
		if err != nil {
			return err
		}
	}
	fmt.Printf("replayed %d actions on %s in %v (virtual)\n", rep.Actions, conf.Name, rep.Elapsed)
	fmt.Printf("method=%s errors=%d emulated=%d concurrency=%.2f\n",
		rep.Method, rep.Errors, rep.Emulated, rep.Concurrency())
	for _, s := range rep.ErrorSamples {
		fmt.Printf("  mismatch: %s\n", s)
	}
	fmt.Println("per-call time:")
	var calls []string
	for c := range rep.CallTime {
		calls = append(calls, c)
	}
	sort.Slice(calls, func(i, j int) bool { return rep.CallTime[calls[i]] > rep.CallTime[calls[j]] })
	for _, c := range calls {
		fmt.Printf("  %-16s n=%-8d t=%v\n", c, rep.CallCount[c], rep.CallTime[c].Round(time.Microsecond))
	}
	if *timeline {
		fmt.Print(rep.Timeline(b, 100))
	}
	return nil
}

// traceCmd replays a benchmark with the obs recorder enabled and
// exports the recording.
func traceCmd(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	benchPath := fs.String("bench", "", "benchmark file (mutually exclusive with -magritte)")
	spec := fs.String("magritte", "", "Magritte trace name to generate and replay (e.g. pages_docphoto15)")
	genScale := fs.Float64("gen-scale", 0.02, "Magritte generation scale")
	genSeed := fs.Int64("gen-seed", 5, "Magritte generation seed")
	target := fs.String("target", "linux-ext4-ssd-noop", "target machine: platform-fs-device[-sched]")
	method := fs.String("method", "artc", "replay method: artc | single | temporal | unconstrained")
	out := fs.String("o", "-", "Chrome trace_event JSON output file (- = stdout)")
	interval := fs.Duration("probe-interval", 0, "min virtual time between counter samples (0 = default)")
	spanCap := fs.Int("span-cap", 0, "span ring capacity (0 = default)")
	critHops := fs.Int("crit-hops", 20, "critical-path rows to print (0 = all)")
	quiet := fs.Bool("quiet", false, "suppress the text summary and critical path on stderr")
	noSamples := fs.Bool("no-samples", false, "drop counter samples from the export (probes observe per-replica scheduler state, so sliced and serial sample streams differ even when the replay itself is byte-identical)")
	shards := fs.Int("shards", 0, "replay components in parallel with this worker bound (0 = serial replayer; -1 = GOMAXPROCS)")
	sliceActions := fs.Int("slice-actions", 0, "with -shards: split components larger than this many actions along resource cuts (0 = off)")
	sliceMax := fs.Int("slice-max", 0, "cap on slices per component (0 = no cap)")
	sliceProfile := fs.String("slice-profile", "off", "profile-guided re-slicing: off | auto (load the cached slice profile, or profile the static cut once, then re-cut and replay)")
	warm := fs.Bool("warm", false, "pre-warm every replica's metadata and page caches (required for sliced-vs-serial byte identity)")
	cacheDir, noCache := cacheFlags(fs)
	fs.Parse(args)

	var b *artc.Benchmark
	switch {
	case *benchPath != "" && *spec != "":
		return fmt.Errorf("-bench and -magritte are mutually exclusive")
	case *benchPath != "":
		bf, err := os.Open(*benchPath)
		if err != nil {
			return err
		}
		defer bf.Close()
		if b, err = artc.DecodeAny(bf); err != nil {
			return err
		}
	case *spec != "":
		sp, ok := magritte.SpecByName(*spec)
		if !ok {
			return fmt.Errorf("unknown Magritte trace %q", *spec)
		}
		gen, err := magritte.Generate(sp, magritte.GenOptions{Scale: *genScale, Seed: *genSeed})
		if err != nil {
			return err
		}
		var st artifact.Stats
		if b, st, err = artifact.CompileTrace(openStore(*cacheDir, *noCache), gen.Trace, gen.Snapshot, core.DefaultModes()); err != nil {
			return err
		}
		reportCache(st, *quiet)
	default:
		return fmt.Errorf("one of -bench or -magritte is required")
	}

	conf, err := targetConfig(*target, 0, 0)
	if err != nil {
		return err
	}
	rec := obs.NewRecorder(*spanCap, 0)
	opts := artc.Options{
		Method:      artc.Method(*method),
		Obs:         rec,
		ObsInterval: *interval,
	}
	var rep *artc.Report
	var sst *artc.ShardStats
	if *shards != 0 {
		n := *shards
		if n < 0 {
			n = 0
		}
		so := artc.ShardOptions{
			Shards: n,
			Target: conf,
			Init: func(sys *stack.System) error {
				if err := magritte.InitTarget(sys, b, conf.Platform == stack.Linux); err != nil {
					return err
				}
				if *warm {
					sys.WarmAll()
				}
				return nil
			},
			SliceActions: *sliceActions,
			SliceMax:     *sliceMax,
		}
		so.SliceProfile, err = resolveSliceProfile(*sliceProfile, openStore(*cacheDir, *noCache), b, opts, so, *quiet)
		if err != nil {
			return err
		}
		rep, sst, err = artc.ReplaySharded(b, opts, so)
		if err != nil {
			return err
		}
	} else {
		k := sim.NewKernel()
		sys := stack.New(k, conf)
		if err := magritte.InitTarget(sys, b, conf.Platform == stack.Linux); err != nil {
			return err
		}
		if *warm {
			sys.WarmAll()
		}
		if rep, err = artc.Replay(sys, b, opts); err != nil {
			return err
		}
	}

	if *noSamples {
		rec.ClearSamples()
	}
	if *out == "-" {
		err = rec.WriteChrome(os.Stdout)
	} else {
		err = writeChromeFile(rec, *out)
	}
	if err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "replayed %d actions on %s in %v (virtual), errors=%d\n",
			rep.Actions, conf.Name, rep.Elapsed, rep.Errors)
		if sst != nil {
			fmt.Fprintf(os.Stderr, "sharded: profiled=%v fingerprint=%016x\n", sst.Profiled, sst.PlanFingerprint)
		}
		fmt.Fprint(os.Stderr, rec.Summary())
		fmt.Fprint(os.Stderr, rep.CriticalPath(b).Format(*critHops))
	}
	return nil
}

// writeChromeFile exports rec to path. The export streams, so a full
// disk can surface at any write or only when Close flushes: either way
// the caller must hear of it rather than keep a truncated trace.
func writeChromeFile(rec *obs.Recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func inspectCmd(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	benchPath := fs.String("bench", "", "benchmark file (required)")
	fs.Parse(args)
	if *benchPath == "" {
		return fmt.Errorf("-bench is required")
	}
	bf, err := os.Open(*benchPath)
	if err != nil {
		return err
	}
	defer bf.Close()
	b, err := artc.DecodeAny(bf)
	if err != nil {
		return err
	}
	st := b.Graph.Stats(b.Analysis)
	tg := core.TemporalGraph(b.Analysis)
	tst := tg.Stats(b.Analysis)
	fmt.Printf("platform:      %s\n", b.Platform)
	fmt.Printf("modes:         %s\n", artc.ModesString(b.Modes))
	fmt.Printf("records:       %d\n", len(b.Trace.Records))
	fmt.Printf("threads:       %d\n", len(b.Trace.Threads()))
	fmt.Printf("snapshot:      %d entries\n", len(b.Snapshot.Entries))
	fmt.Printf("artc edges:    %d enforced of %d raw (mean span %v, max %v)\n",
		st.Edges, st.Edges+st.ReducedEdges, st.MeanLength, st.MaxLength)
	fmt.Printf("temporal edges: %d (mean span %v)\n", tst.Edges, tst.MeanLength)
	fmt.Printf("warnings:      %d\n", len(b.Analysis.Warnings))
	return nil
}

// chaosCmd replays a Magritte trace under seeded fault injection,
// either sweeping many seeds (-seeds) or exporting one seed's
// deterministic outcome (-seed with -o). Any invariant violation makes
// the command exit nonzero, so CI can gate on it directly.
func chaosCmd(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	spec := fs.String("magritte", "", "Magritte trace name to generate and replay (required)")
	genScale := fs.Float64("gen-scale", 0.02, "Magritte generation scale")
	genSeed := fs.Int64("gen-seed", 5, "Magritte generation seed")
	target := fs.String("target", "linux-ext4-ssd-noop", "target machine: platform-fs-device[-sched]")
	seedBase := fs.Uint64("seed", 1, "base fault seed")
	seeds := fs.Int("seeds", 1, "number of consecutive seeds to sweep")
	sysRate := fs.Float64("syscall-rate", 0.02, "syscall fault probability per attempt")
	errno := fs.String("errno", "EIO", "errno injected syscall faults return")
	devRate := fs.Float64("storage-error-rate", 0.02, "transient device error probability per completion")
	slowRate := fs.Float64("storage-slow-rate", 0.02, "slow-IO tail-latency probability per completion")
	retries := fs.Int("retries", 4, "replayer retry attempts per injected failure (1 = no retry)")
	watchdog := fs.Duration("watchdog", time.Minute, "virtual-time stall watchdog window (0 = off)")
	verify := fs.Bool("verify", false, "replay each seed twice and demand identical results")
	out := fs.String("o", "", "write the first seed's export JSON (implies span recording)")
	quiet := fs.Bool("quiet", false, "suppress per-seed summaries")
	shards := fs.Int("shards", 0, "replay components in parallel with this worker bound (0 = serial replayer)")
	sliceActions := fs.Int("slice-actions", 0, "with -shards: split components larger than this many actions along resource cuts (0 = off)")
	sliceMax := fs.Int("slice-max", 0, "cap on slices per component (0 = no cap)")
	cacheDir, noCache := cacheFlags(fs)
	fs.Parse(args)

	if *spec == "" {
		return fmt.Errorf("-magritte is required")
	}
	sp, ok := magritte.SpecByName(*spec)
	if !ok {
		return fmt.Errorf("unknown Magritte trace %q", *spec)
	}
	gen, err := magritte.Generate(sp, magritte.GenOptions{Scale: *genScale, Seed: *genSeed})
	if err != nil {
		return err
	}
	b, cst, err := artifact.CompileTrace(openStore(*cacheDir, *noCache), gen.Trace, gen.Snapshot, core.DefaultModes())
	if err != nil {
		return err
	}
	reportCache(cst, *quiet)
	conf, err := targetConfig(*target, 0, 0)
	if err != nil {
		return err
	}
	opts := chaostest.Options{
		Bench:  b,
		Target: conf,
		Plan: fault.Plan{
			Syscall:  fault.SyscallPlan{Rate: *sysRate, Errno: *errno},
			Storage:  fault.StoragePlan{ErrorRate: *devRate, SlowRate: *slowRate},
			Retry:    fault.RetryPlan{MaxAttempts: *retries},
			Watchdog: *watchdog,
		},
		Verify:   *verify,
		Obs:      *out != "",
		Shards:   *shards,
		Slice:    *sliceActions,
		SliceMax: *sliceMax,
	}

	var results []*chaostest.Result
	if *seeds <= 1 {
		res, rec := chaostest.RunSeed(opts, *seedBase)
		results = append(results, &res)
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return err
			}
			if err := chaostest.WriteExport(f, &res, rec); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	} else {
		if *out != "" {
			return fmt.Errorf("-o requires a single seed (drop -seeds)")
		}
		sw := chaostest.Sweep(opts, chaostest.Seeds(*seedBase, *seeds))
		for i := range sw {
			results = append(results, &sw[i])
		}
	}

	bad := 0
	for _, res := range results {
		if !*quiet {
			fmt.Println(res)
		}
		for _, v := range res.Violations {
			bad++
			fmt.Fprintf(os.Stderr, "seed %d: %s\n", res.Seed, v)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d invariant violation(s) across %d seed(s)", bad, len(results))
	}
	return nil
}
