package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procs is part of every workload's definition: the sliced replay and
// the service are only comparable between hosts at a fixed proc count.
const procs = 2

// goldenSeed is the seed the checked-in exact statistics belong to;
// other seeds skip the goldens and keep the differential checks.
const goldenSeed = 7

//go:embed golden
var goldenFS embed.FS

// sizes scales every workload; bench_test.go runs a 1/50 table.
type sizes struct {
	name          string
	magritteScale float64 // ingest_strace: Magritte suite scale
	compN         int     // ingest_strace: SynthComponents groups
	compOps       int     // ingest_strace: SynthComponents op budget
	hitsOps       int     // replay_hits, sliced_hits: SynthPipeline ops per stage
	wbOps         int     // replay_writeback: SynthPipeline ops per stage
	svcScale      float64 // service_magritte: Magritte suite scale
	setupReps     int     // set-ups per run; setup_s is their median
	warmIters     int     // discarded iterations before the timed loop
	minIters      int     // timed iterations at least, whatever --seconds says
	probeTime     string  // test.benchtime of one layer probe
}

var fullSize = sizes{
	name: "full", magritteScale: 0.01, compN: 64, compOps: 75000,
	hitsOps: 8000, wbOps: 3000, svcScale: 0.005,
	setupReps: 3, warmIters: 2, minIters: 3, probeTime: "100ms",
}

// instance is one workload with its inputs generated.
type instance interface {
	// iterate runs the workload once, end to end, opening a child of sp
	// around every call into a layer (sp is nil in an untraced iteration).
	iterate(sp *span) (iterOut, error)
	// verify runs the checks that need a second opinion (a serial oracle,
	// the direct driver, a codec round trip) after the timed loop.
	verify() (attempted, failed int, err error)
	// detail fills in the per-layer metrics: exact statistics, medians
	// of what the iterations observed, and sub-steps re-timed under sp.
	// m already holds the span totals of spanMetrics; iterS is the median
	// untraced iteration in seconds.
	detail(sp *span, m map[string]float64, iterS float64) error
	close()
}

// iterOut is what one iteration reports to the runner.
type iterOut struct {
	records int
	// jobMs holds the client-observed latency of every job the iteration
	// completed; empty means the iteration itself was the one job.
	jobMs             []float64
	attempted, failed int
	// digest identifies the iteration's output; every iteration of a run
	// must produce the first one's.
	digest string
	// peakRSS is the largest resident set seen during the iteration, in
	// MiB; the runner fills it in.
	peakRSS float64
	// finish, when set, computes digest (and cleans up) after the clock
	// has stopped, for outputs that land on disk.
	finish func() (string, error)
}

type workloadDef struct {
	name  string
	setup func(seed int64, sz sizes, scratch string) (instance, error)
}

var workloads = []workloadDef{
	{"ingest_strace", setupIngest},
	{"replay_hits", setupReplayHits},
	{"replay_writeback", setupReplayWriteback},
	{"sliced_hits", setupSlicedHits},
	{"service_magritte", setupService},
}

// metric and result are the last line of a child's standard output.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// golden is bench/golden/<workload>.json.
type golden struct {
	Digest string             `json:"digest"`
	Exact  map[string]float64 `json:"exact"`
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the nearest-rank quantile of v (v is not modified).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// ratio is a/b, and 0 where there was nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rssSampler watches the resident set while the workload runs.
type rssSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	peak float64 // MiB, since the last reset
}

func currentRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.observe()
			}
		}
	}()
	return s
}

func (s *rssSampler) observe() {
	r := currentRSSMiB()
	s.mu.Lock()
	if r > s.peak {
		s.peak = r
	}
	s.mu.Unlock()
}

// reset returns the peak since the previous reset and starts over.
func (s *rssSampler) reset() float64 {
	s.observe()
	s.mu.Lock()
	defer s.mu.Unlock()
	peak := s.peak
	s.peak = 0
	return peak
}

func (s *rssSampler) close() {
	close(s.stop)
	s.wg.Wait()
}

// loopStats is what the timed loop observed.
type loopStats struct {
	// Wall time of every iteration; for the untraced ones also the
	// records and jobs completed per second, every job's latency and the
	// peak resident set.
	plainWall, tracedWall                 []float64
	recordsPerS, jobsPerS, jobMs, peakRSS []float64
	tracedIters                           []int
}

// runChild measures one workload in this process and returns the result
// the driver reads. logf prints the human-readable lines.
func runChild(w workloadDef, seed int64, seconds float64, traced bool, sz sizes, outDir, writeGolden string, logf func(string, ...any)) (*result, error) {
	runtime.GOMAXPROCS(procs)
	scratch := filepath.Join(outDir, fmt.Sprintf("tmp-%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	// Set-up: generate the inputs from the seed, several times over so
	// that setup_s is a median like every other timing.
	var inst instance
	var setupS []float64
	for i := 0; i < sz.setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if inst, err = w.setup(seed, sz, scratch); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer inst.close()
	// Give the set-up's memory back, so that the resident set measured
	// below is the workload's.
	debug.FreeOSMemory()
	rss := startRSSSampler()
	defer rss.close()

	res := &result{Metrics: make(map[string]metric)}
	check := func(ok bool, format string, args ...any) {
		res.Attempted++
		if !ok {
			res.Failed++
			logf("%s CHECK FAILED: %s", w.name, fmt.Sprintf(format, args...))
		}
	}
	var tr *tracer
	if traced {
		tr = newTracer(w.name)
	}
	// run is one iteration, with a root span when withSpans: collect
	// outside the clock, iterate, stop the clock, then digest.
	run := func(i int, withSpans bool) (iterOut, float64, error) {
		runtime.GC()
		var sp *span
		if withSpans {
			sp = tr.root(w.name, i)
		}
		rss.reset()
		t0 := time.Now()
		out, err := inst.iterate(sp)
		wall := time.Since(t0).Seconds()
		sp.done()
		out.peakRSS = rss.reset()
		if err == nil && out.finish != nil {
			out.digest, err = out.finish()
		}
		return out, wall, err
	}

	// Discarded warm-up iterations fix the reference digest and grow the
	// heap to its working size, so that no timed iteration pays for first
	// touches of fresh memory.
	var warm iterOut
	for i := 0; i < sz.warmIters; i++ {
		var err error
		if warm, _, err = run(-1, false); err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
		}
	}
	var ls loopStats
	var before, after syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &before)
	start := time.Now()
	for i := 0; i < sz.minIters || time.Since(start).Seconds() < seconds; i++ {
		// A traced run alternates traced and untraced iterations, so the
		// tracing overhead is measured inside one process.
		withSpans := traced && i%2 == 0
		out, wall, err := run(i, withSpans)
		if err != nil {
			return nil, fmt.Errorf("%s: iteration %d: %w", w.name, i, err)
		}
		check(out.digest == warm.digest, "iteration %d output %s differs from the first iteration's %s", i, out.digest, warm.digest)
		res.Attempted += out.attempted
		res.Failed += out.failed
		if withSpans {
			ls.tracedWall = append(ls.tracedWall, wall)
			ls.tracedIters = append(ls.tracedIters, i)
			continue
		}
		if len(out.jobMs) == 0 {
			out.jobMs = []float64{wall * 1e3}
		}
		ls.plainWall = append(ls.plainWall, wall)
		ls.recordsPerS = append(ls.recordsPerS, float64(out.records)/wall)
		ls.jobsPerS = append(ls.jobsPerS, float64(len(out.jobMs))/wall)
		ls.jobMs = append(ls.jobMs, out.jobMs...)
		ls.peakRSS = append(ls.peakRSS, out.peakRSS)
	}
	syscall.Getrusage(syscall.RUSAGE_SELF, &after)
	logf("%s iterations_s untraced=%.3f traced=%.3f", w.name, ls.plainWall, ls.tracedWall)
	// Where a noisy run's time went: on this kind of host a page fault can
	// cost 100 us, and then it is the faults, not the code, being timed.
	logf("%s loop_rusage user_s=%.2f sys_s=%.2f minor_faults=%d", w.name,
		time.Duration(after.Utime.Nano()-before.Utime.Nano()).Seconds(),
		time.Duration(after.Stime.Nano()-before.Stime.Nano()).Seconds(), after.Minflt-before.Minflt)

	att, failed, err := inst.verify()
	if err != nil {
		return nil, fmt.Errorf("%s: verify: %w", w.name, err)
	}
	res.Attempted += att
	res.Failed += failed

	defs, values, n := endToEnd, make(map[string]float64), make(map[string]int)
	if !traced {
		for name, v := range map[string][]float64{
			"setup_s": setupS, "records_per_s": ls.recordsPerS, "jobs_per_s": ls.jobsPerS,
			"job_latency_p50_ms": ls.jobMs, "peak_rss_mb": ls.peakRSS,
		} {
			values[name], n[name] = median(v), len(v)
		}
	} else {
		defs = perLayer
		if err := perLayerValues(tr, inst, &ls, sz, values); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		for _, d := range perLayer {
			n[d.name] = len(ls.tracedIters)
		}
		if err := tr.writeChrome(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
			return nil, err
		}
	}

	// The output digest and the exact statistics repeat bit for bit, so
	// for the golden seed they are compared with the checked-in values.
	if seed == goldenSeed && sz.name == fullSize.name {
		g := golden{Digest: warm.digest, Exact: make(map[string]float64)}
		for _, d := range perLayer {
			if d.exact && traced {
				g.Exact[d.name] = values[d.name]
			}
		}
		if writeGolden != "" {
			if !traced {
				return nil, fmt.Errorf("-write-golden needs --trace 1")
			}
			doc, _ := json.MarshalIndent(g, "", "  ")
			if err := os.WriteFile(filepath.Join(writeGolden, w.name+".json"), append(doc, '\n'), 0o644); err != nil {
				return nil, err
			}
		} else {
			var want golden
			doc, err := goldenFS.ReadFile("golden/" + w.name + ".json")
			if err == nil {
				err = json.Unmarshal(doc, &want)
			}
			if err != nil {
				return nil, fmt.Errorf("golden for %s: %w", w.name, err)
			}
			check(g.Digest == want.Digest, "output digest %s differs from golden %s", g.Digest, want.Digest)
			for name, v := range g.Exact {
				check(v == want.Exact[name], "%s = %v, golden has %v", name, v, want.Exact[name])
			}
		}
	}

	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
		logf("%s %s %v %s n=%d", w.name, d.name, values[d.name], d.unit, n[d.name])
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// perLayerValues fills in what a traced run reports: span totals, the
// workload's detail pass, the layer probes and the benchmark's own
// numbers.
func perLayerValues(tr *tracer, inst instance, ls *loopStats, sz sizes, values map[string]float64) error {
	// Per-layer span totals: the median over the traced iterations.
	for _, c := range spanMetrics {
		var v []float64
		for _, it := range ls.tracedIters {
			v = append(v, tr.total(it, c.span).Seconds())
		}
		values[c.metric] = median(v)
	}
	root := tr.root("detail", -1)
	err := inst.detail(root, values, median(ls.plainWall))
	root.done()
	if err != nil {
		return fmt.Errorf("detail: %w", err)
	}
	if err := runProbes(sz.probeTime, values); err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	// What tracing costs, what share of a traced iteration no layer span
	// covers, and how steady the iterations were.
	values["bench.trace_overhead_share"] = 1 - median(ls.plainWall)/median(ls.tracedWall)
	var unattributed []float64
	for k, it := range ls.tracedIters {
		unattributed = append(unattributed, tr.layerSelf(it)["unattributed"].Seconds()/ls.tracedWall[k])
	}
	values["bench.unattributed_share"] = median(unattributed)
	all := append(append([]float64(nil), ls.plainWall...), ls.tracedWall...)
	sort.Float64s(all)
	values["bench.iterations"] = float64(len(all))
	values["bench.iter_spread"] = (all[len(all)-1] - all[0]) / median(all)
	return nil
}

// spanMetrics maps a span name to the metric that reports its total
// time per traced iteration.
var spanMetrics = []struct{ span, metric string }{
	{"snapshot.Decode", "snapshot.decode_s"},
	{"artifact.CompileStrace", "artifact.compile_strace_s"},
	{"artifact.Get", "artifact.get_s"},
	{"artc.DecodeBinaryBytes", "artc.decode_s"},
	{"stack.New", "stack.new_s"},
	{"stack.WarmAll", "stack.warm_s"},
	{"artc.Init", "artc.init_s"},
	{"artc.Replay", "artc.replay_s"},
	{"obs.WriteChrome", "obs.write_chrome_s"},
	{"artc.ReplaySharded", "coord.replay_sharded_s"},
}
