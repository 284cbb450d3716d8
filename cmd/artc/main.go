// Command artc compiles and replays system-call traces.
//
//	artc compile -trace app.strace -format strace -snapshot init.snap -o app.bench
//	artc convert -trace app.strace -format strace -to native -o app.trace
//	artc replay  -bench app.bench -target linux-ext4-hdd -method artc -speed afap
//	artc inspect -bench app.bench
//	artc trace   -magritte pages_docphoto15 -o replay.trace.json
//	artc chaos   -magritte pages_docphoto15 -seeds 16 -verify
//	artc chaos   -magritte pages_docphoto15 -seed 3 -o chaos-seed3.json
//
// compile turns a trace (native, strace or ibench format) plus an
// optional initial-state snapshot into a self-contained binary benchmark
// file; strace input streams from the lexer into the compiler. convert
// re-encodes a trace between formats. replay
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
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"rootreplay/internal/artc"
	"rootreplay/internal/artifact"
	"rootreplay/internal/core"
	"rootreplay/internal/fault/chaostest"
	"rootreplay/internal/magritte"
	"rootreplay/internal/obs"
	"rootreplay/internal/snapshot"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
	"rootreplay/internal/vfs"
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

// readTrace parses a trace file in the named format.
func readTrace(path, format string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch format {
	case "strace":
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
// that compile (compile, replay, trace, chaos).
func cacheFlags(fs *flag.FlagSet, dir *string, off *bool) {
	fs.StringVar(dir, "cache-dir", "", "compiled-artifact cache directory (default: <user cache dir>/artc)")
	fs.BoolVar(off, "no-cache", false, "disable the compiled-artifact cache")
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

// runFlags is a parsed replay, trace or chaos command line: the RunSpec
// the flags fill in directly, plus what needs a look-up, the store or
// the benchmark before it can become part of the spec, plus what only
// steers input and output. A flag a command lacks leaves its field zero.
type runFlags struct {
	spec                 artc.RunSpec
	target               string
	cacheDir             string
	noCache              bool
	bench, magritte, out string
	genScale             float64
	genSeed              int64
	quiet                bool   // trace, chaos
	timeline             bool   // replay
	noSamples            bool   // trace
	spanCap, critHops    int    // trace
	verify               bool   // chaos
	seed                 uint64 // chaos
	seeds                int    // chaos
}

// engineFlags registers the flags every replaying command has: the
// target machine and the choice of engine.
func (f *runFlags) engineFlags(fs *flag.FlagSet, defTarget string) {
	fs.StringVar(&f.target, "target", defTarget, "target machine: platform-fs-device[-sched]")
	fs.IntVar(&f.spec.Shards, "shards", 0, "replay components in parallel with this worker bound (0 = serial replayer; -1 = GOMAXPROCS)")
	fs.IntVar(&f.spec.SliceActions, "slice-actions", 0, "with -shards: split components larger than this many actions along resource cuts (0 = off)")
	fs.IntVar(&f.spec.SliceMax, "slice-max", 0, "cap on slices per component (0 = no cap)")
}

// replayFlags registers what replay and trace have and chaos has not.
func (f *runFlags) replayFlags(fs *flag.FlagSet, benchUsage string) {
	fs.StringVar(&f.bench, "bench", "", benchUsage)
	fs.StringVar((*string)(&f.spec.Options.Method), "method", "artc", "replay method: artc | single | temporal | unconstrained")
	fs.BoolVar(&f.spec.Warm, "warm", false, "pre-warm every replica's metadata and page caches (required for sliced-vs-serial byte identity)")
}

// magritteFlags registers the generated-trace input of trace and chaos,
// which compiles through the artifact cache.
func (f *runFlags) magritteFlags(fs *flag.FlagSet) {
	cacheFlags(fs, &f.cacheDir, &f.noCache)
	fs.StringVar(&f.magritte, "magritte", "", "Magritte trace name to generate and replay (e.g. pages_docphoto15)")
	fs.Float64Var(&f.genScale, "gen-scale", 0.02, "Magritte generation scale")
	fs.Int64Var(&f.genSeed, "gen-seed", 5, "Magritte generation seed")
}

// finish resolves the target name and checks the spec, so a bad flag
// combination fails before anything is loaded or replayed.
func (f *runFlags) finish(cachePages int64, cfqSlice time.Duration) (err error) {
	if f.spec.Target, err = stack.ParseTarget(f.target, cachePages, cfqSlice); err != nil {
		return err
	}
	return f.spec.Validate()
}

// load reads -bench, or generates and compiles -magritte through the
// artifact cache.
func (f *runFlags) load() (*artc.Benchmark, error) {
	switch {
	case f.bench != "" && f.magritte != "":
		return nil, fmt.Errorf("-bench and -magritte are mutually exclusive")
	case f.bench != "":
		return readBench(f.bench)
	case f.magritte != "":
		sp, ok := magritte.SpecByName(f.magritte)
		if !ok {
			return nil, fmt.Errorf("unknown Magritte trace %q", f.magritte)
		}
		gen, err := magritte.Generate(sp, magritte.GenOptions{Scale: f.genScale, Seed: f.genSeed})
		if err != nil {
			return nil, err
		}
		b, st, err := artifact.CompileTrace(openStore(f.cacheDir, f.noCache), gen.Trace, gen.Snapshot, core.DefaultModes())
		if err != nil {
			return nil, err
		}
		reportCache(st, f.quiet)
		return b, nil
	default:
		return nil, fmt.Errorf("one of -bench or -magritte is required")
	}
}

// readBench reads a compiled benchmark.
func readBench(path string) (*artc.Benchmark, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return artc.DecodeBinaryBytes(data)
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
	var cacheDir string
	var noCache bool
	cacheFlags(fs, &cacheDir, &noCache)
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
	store := openStore(cacheDir, noCache)

	var b *artc.Benchmark
	var st artifact.Stats
	if *format == "strace" {
		// Key on the raw strace bytes so a warm hit skips parsing too; a
		// miss (or no store) streams the lexer into the compiler.
		raw, err := os.ReadFile(*tracePath)
		if err != nil {
			return err
		}
		if b, st, err = artifact.CompileStrace(store, raw, snap, modes); err != nil {
			return err
		}
	} else {
		tr, err := readTrace(*tracePath, *format)
		if err != nil {
			return err
		}
		if b, st, err = artifact.CompileTrace(store, tr, snap, modes); err != nil {
			return err
		}
	}
	reportCache(st, false)
	if err := writeFile(*out, b.EncodeBinary); err != nil {
		return err
	}
	fmt.Printf("compiled %d records, %d threads, %d dependency edges -> %s\n",
		len(b.Trace.Records), len(b.Trace.Threads()), len(b.Graph.Edges), *out)
	if len(b.Analysis.Warnings) > 0 {
		fmt.Printf("%d model warnings (first: %s)\n", len(b.Analysis.Warnings), b.Analysis.Warnings[0])
	}
	return nil
}

// convertCmd re-encodes a trace between formats.
func convertCmd(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	tracePath := fs.String("trace", "", "trace file (required)")
	format := fs.String("format", "strace", "input format: native | strace | ibench")
	outFormat := fs.String("to", "native", "output format: native | strace")
	out := fs.String("o", "-", "output file (- = stdout)")
	fs.Parse(args)
	if *tracePath == "" {
		return fmt.Errorf("-trace is required")
	}
	tr, err := readTrace(*tracePath, *format)
	if err != nil {
		return err
	}
	var encode func(io.Writer) error
	switch *outFormat {
	case "native":
		encode = tr.Encode
	case "strace":
		encode = func(w io.Writer) error { return trace.EncodeStrace(w, tr) }
	default:
		return fmt.Errorf("unknown output format %q", *outFormat)
	}
	if *out == "-" {
		return encode(os.Stdout)
	}
	return writeFile(*out, encode)
}

func parseReplay(args []string) (*runFlags, error) {
	f := new(runFlags)
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	f.engineFlags(fs, "linux-ext4-hdd")
	f.replayFlags(fs, "benchmark file (required)")
	speed := fs.String("speed", "afap", "replay speed: afap | natural | scaled")
	scale := fs.Float64("scale", 1.0, "predelay multiplier for -speed scaled")
	cachePages := fs.Int64("cache-pages", 0, "page-cache capacity in 4KiB pages (0 = 1GiB)")
	cfqSlice := fs.Duration("slice", 0, "CFQ slice_sync (0 = 100ms default)")
	fs.BoolVar(&f.spec.Options.FullFsyncOnOSX, "osx-full-fsync", false, "use F_FULLFSYNC when emulating Linux fsync on OS X")
	fs.BoolVar(&f.timeline, "timeline", false, "print a per-thread replay timeline (Figure 9 style)")
	fs.BoolVar(&f.spec.SliceDeviceSync, "slice-device-sync", false, "let slicing cut fsync-heavy components (perf runs only: merged times reflect per-slice device queues, so output is no longer byte-identical to serial)")
	fs.Parse(args)
	if f.bench == "" {
		return nil, fmt.Errorf("-bench is required")
	}
	switch *speed {
	case "afap":
		f.spec.Options.Speed = artc.AFAP
	case "natural":
		f.spec.Options.Speed = artc.Natural
	case "scaled":
		f.spec.Options.Speed = artc.Scaled
		f.spec.Options.Scale = *scale
	default:
		return nil, fmt.Errorf("unknown speed %q", *speed)
	}
	return f, f.finish(*cachePages, *cfqSlice)
}

// replayCmd replays on the bare restored snapshot (RunSpec.Init nil):
// unlike trace and chaos it takes any benchmark, not only Magritte's.
func replayCmd(args []string) error {
	f, err := parseReplay(args)
	if err != nil {
		return err
	}
	b, err := f.load()
	if err != nil {
		return err
	}
	rep, st, err := artc.Run(b, f.spec)
	if err != nil {
		return err
	}
	if st != nil {
		fmt.Printf("sharded: components=%d clusters=%d cross-edges=%d largest=%d workers=%d sliced=%d synthetic=%d fingerprint=%016x\n",
			st.Components, st.Clusters, st.CrossEdges, st.Largest, st.Shards, st.Sliced, st.Synthetic, st.PlanFingerprint)
		if c := rep.Coord; c != nil {
			fmt.Printf("coord: cross-wait=%v published=%d flush-batches=%d max-batch=%d advances=%d parks=%d grants=%d host-blocked=%v\n",
				time.Duration(c.CrossWaitNs), c.Published, c.FlushBatches, c.FlushMaxBatch,
				c.Advances, c.Parks, c.Grants, time.Duration(c.BlockedNs).Round(time.Millisecond))
		}
	}
	fmt.Printf("replayed %d actions on %s in %v (virtual)\n", rep.Actions, f.spec.Target.Name, rep.Elapsed)
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
	// Ties break by name: calls come out of a map, and equal times must
	// not make two runs of one replay print differently.
	sort.Slice(calls, func(i, j int) bool {
		if ti, tj := rep.CallTime[calls[i]], rep.CallTime[calls[j]]; ti != tj {
			return ti > tj
		}
		return calls[i] < calls[j]
	})
	for _, c := range calls {
		fmt.Printf("  %-16s n=%-8d t=%v\n", c, rep.CallCount[c], rep.CallTime[c].Round(time.Microsecond))
	}
	if f.timeline {
		fmt.Print(rep.Timeline(b, 100))
	}
	return nil
}

func parseTrace(args []string) (*runFlags, error) {
	f := new(runFlags)
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	f.engineFlags(fs, "linux-ext4-ssd-noop")
	f.replayFlags(fs, "benchmark file (mutually exclusive with -magritte)")
	f.magritteFlags(fs)
	fs.StringVar(&f.out, "o", "-", "Chrome trace_event JSON output file (- = stdout)")
	fs.DurationVar(&f.spec.Options.ObsInterval, "probe-interval", 0, "min virtual time between counter samples (0 = default)")
	fs.IntVar(&f.spanCap, "span-cap", 0, "span ring capacity (0 = one span per action)")
	fs.IntVar(&f.critHops, "crit-hops", 20, "critical-path rows to print (0 = all)")
	fs.BoolVar(&f.quiet, "quiet", false, "suppress the text summary and critical path on stderr")
	fs.BoolVar(&f.noSamples, "no-samples", false, "drop counter samples from the export (probes observe per-replica scheduler state, so sliced and serial sample streams differ even when the replay itself is byte-identical)")
	fs.Parse(args)
	return f, f.finish(0, 0)
}

// traceCmd replays a benchmark with the obs recorder enabled and
// exports the recording.
func traceCmd(args []string) error {
	f, err := parseTrace(args)
	if err != nil {
		return err
	}
	b, err := f.load()
	if err != nil {
		return err
	}
	spanCap := f.spanCap
	if spanCap <= 0 {
		spanCap = len(b.Trace.Records) // every span, as an artcd export job keeps
	}
	rec := obs.NewRecorder(spanCap, 0)
	f.spec.Options.Obs = rec
	f.spec.Init = magritte.TargetInit(b, true)
	rep, sst, err := artc.Run(b, f.spec)
	if err != nil {
		return err
	}

	if f.noSamples {
		rec.ClearSamples()
	}
	if f.out == "-" {
		err = rec.WriteChrome(os.Stdout)
	} else {
		err = writeFile(f.out, rec.WriteChrome)
	}
	if err != nil {
		return err
	}
	if !f.quiet {
		fmt.Fprintf(os.Stderr, "replayed %d actions on %s in %v (virtual), errors=%d\n",
			rep.Actions, f.spec.Target.Name, rep.Elapsed, rep.Errors)
		if sst != nil {
			fmt.Fprintf(os.Stderr, "sharded: fingerprint=%016x\n", sst.PlanFingerprint)
		}
		fmt.Fprint(os.Stderr, rec.Summary())
		fmt.Fprint(os.Stderr, rep.CriticalPath(b).Format(f.critHops))
	}
	return nil
}

// writeFile creates path and streams write into it. A full disk can
// surface at any write or only when Close flushes: either way the
// caller must hear of it rather than keep a truncated file.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
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
	b, err := readBench(*benchPath)
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

// parseChaos leaves the fault plan template, the flags' values over
// chaostest.DefaultPlan, in spec.Fault. A plan no replay can run is a
// usage error here, not a violation in every seed.
func parseChaos(args []string) (*runFlags, error) {
	f := new(runFlags)
	plan := chaostest.DefaultPlan()
	f.spec.Fault = &plan
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	f.engineFlags(fs, "linux-ext4-ssd-noop")
	f.magritteFlags(fs)
	fs.Uint64Var(&f.seed, "seed", 1, "base fault seed")
	fs.IntVar(&f.seeds, "seeds", 1, "number of consecutive seeds to sweep")
	fs.Float64Var(&plan.Syscall.Rate, "syscall-rate", plan.Syscall.Rate, "syscall fault probability per attempt")
	fs.StringVar(&plan.Syscall.Errno, "errno", plan.Syscall.Errno, "errno injected syscall faults return")
	fs.Float64Var(&plan.Storage.ErrorRate, "storage-error-rate", plan.Storage.ErrorRate, "transient device error probability per completion")
	fs.Float64Var(&plan.Storage.SlowRate, "storage-slow-rate", plan.Storage.SlowRate, "slow-IO tail-latency probability per completion")
	fs.IntVar(&plan.Retry.MaxAttempts, "retries", plan.Retry.MaxAttempts, "replayer retry attempts per injected failure (1 = no retry)")
	fs.DurationVar(&plan.Watchdog, "watchdog", plan.Watchdog, "virtual-time stall watchdog window (0 = off)")
	fs.BoolVar(&f.verify, "verify", false, "replay each seed twice and demand identical results")
	fs.StringVar(&f.out, "o", "", "write the first seed's export JSON (implies span recording)")
	fs.BoolVar(&f.quiet, "quiet", false, "suppress per-seed summaries")
	fs.Parse(args)
	if f.magritte == "" {
		return nil, fmt.Errorf("-magritte is required")
	}
	if f.out != "" && f.seeds > 1 {
		return nil, fmt.Errorf("-o requires a single seed (drop -seeds)")
	}
	if _, ok := vfs.ErrnoByName(plan.Syscall.Errno); !ok {
		return nil, fmt.Errorf("-errno %q: unknown errno", plan.Syscall.Errno)
	}
	for _, r := range []struct {
		flag string
		v    float64
	}{
		{"-syscall-rate", plan.Syscall.Rate},
		{"-storage-error-rate", plan.Storage.ErrorRate},
		{"-storage-slow-rate", plan.Storage.SlowRate},
	} {
		if !(r.v >= 0 && r.v <= 1) {
			return nil, fmt.Errorf("%s %v: a probability must be in [0, 1]", r.flag, r.v)
		}
	}
	switch {
	case plan.Retry.MaxAttempts < 1:
		return nil, fmt.Errorf("-retries %d: at least 1 attempt", plan.Retry.MaxAttempts)
	case plan.Watchdog < 0:
		return nil, fmt.Errorf("-watchdog %v: must not be negative", plan.Watchdog)
	case f.seeds < 1:
		return nil, fmt.Errorf("-seeds %d: at least 1 seed", f.seeds)
	}
	return f, f.finish(0, 0)
}

// chaosCmd replays a Magritte trace under seeded fault injection,
// either sweeping many seeds (-seeds) or exporting one seed's
// deterministic outcome (-seed with -o). Any invariant violation makes
// the command exit nonzero, so CI can gate on it directly.
func chaosCmd(args []string) error {
	f, err := parseChaos(args)
	if err != nil {
		return err
	}
	b, err := f.load()
	if err != nil {
		return err
	}
	opts := chaostest.Options{Bench: b, Spec: f.spec, Verify: f.verify, Obs: f.out != ""}

	var results []chaostest.Result
	if f.seeds <= 1 {
		res, rec := chaostest.RunSeed(opts, f.seed)
		results = []chaostest.Result{res}
		if f.out != "" {
			if err := writeFile(f.out, func(w io.Writer) error { return chaostest.WriteExport(w, &res, rec) }); err != nil {
				return err
			}
		}
	} else {
		results = chaostest.Sweep(opts, chaostest.Seeds(f.seed, f.seeds))
	}

	bad := 0
	for i := range results {
		res := &results[i]
		if !f.quiet {
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
