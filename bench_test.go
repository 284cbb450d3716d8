package rootreplay

import (
	"testing"

	"rootreplay/internal/artc"
	"rootreplay/internal/experiments"
	"rootreplay/internal/fault"
	"rootreplay/internal/magritte"
	"rootreplay/internal/obs"
	"rootreplay/internal/sim"
	"rootreplay/internal/stack"
)

// One benchmark per table and figure in the paper's evaluation. Each
// runs the corresponding experiment at Quick scale and reports the
// headline derived metrics alongside the usual ns/op:
//
//	go test -bench=. -benchmem
//
// The cmd/rootbench tool runs the same experiments at full scale and
// prints the complete row/series output.

func BenchmarkTable3Magritte(b *testing.B) {
	// The suite's semantic-correctness comparison on three
	// representative traces (handoff-heavy, moderate, independent); the
	// full 34 run in cmd/rootbench and TestFullMagritteSuite.
	names := []string{"iphoto_import400", "pages_create15", "keynote_start20"}
	for i := 0; i < b.N; i++ {
		totalUC, totalARTC := 0, 0
		for _, n := range names {
			spec, ok := magritte.SpecByName(n)
			if !ok {
				b.Fatal("unknown spec")
			}
			opts := magritte.DefaultSuiteOptions()
			opts.Gen.Scale = 0.005
			res, err := magritte.RunOne(spec, opts)
			if err != nil {
				b.Fatal(err)
			}
			totalUC += res.UCErrors
			totalARTC += res.ARTCErrors
		}
		if i == b.N-1 {
			b.ReportMetric(float64(totalUC), "uc-errors")
			b.ReportMetric(float64(totalARTC), "artc-errors")
		}
	}
}

func BenchmarkFig5aParallelism(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5a(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			c8 := res.Comparisons[2]
			for _, r := range c8.Runs {
				b.ReportMetric(r.Err*100, string(r.Method)+"-err-pct")
			}
		}
	}
}

func BenchmarkFig5bRAID(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5b(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range res.Comparisons[0].Runs {
				b.ReportMetric(r.Err*100, string(r.Method)+"-err-pct")
			}
		}
	}
}

func BenchmarkFig5cCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5c(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range res.Comparisons[0].Runs {
				b.ReportMetric(r.Err*100, string(r.Method)+"-err-pct")
			}
		}
	}
}

func BenchmarkFig5dSlice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5d(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range res.Comparisons[0].Runs {
				b.ReportMetric(r.Err*100, string(r.Method)+"-err-pct")
			}
		}
	}
}

func BenchmarkFig6AnticipationSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, s := range res.Series {
				if s.Label == "original" {
					b.ReportMetric(s.Throughput[len(s.Throughput)-1]/s.Throughput[0], "orig-100ms/1ms-x")
				}
			}
		}
	}
}

func BenchmarkFig7bErrorCDF(b *testing.B) {
	if testing.Short() {
		b.Skip("full 7x7 matrix")
	}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(experiments.Quick(), 2)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.MeanError(artc.MethodARTC)*100, "artc-mean-err-pct")
			b.ReportMetric(res.MeanError(artc.MethodTemporal)*100, "temporal-mean-err-pct")
			b.ReportMetric(res.MeanError(artc.MethodSingle)*100, "single-mean-err-pct")
		}
	}
}

func BenchmarkFig8DependencyGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			// artc-edges stays the raw BuildGraph count so the metric is
			// comparable across revisions with and without reduction;
			// artc-enforced-edges is what the replayer actually waits on.
			b.ReportMetric(float64(res.ARTC.Edges+res.ARTC.ReducedEdges), "artc-edges")
			b.ReportMetric(float64(res.ARTC.Edges), "artc-enforced-edges")
			b.ReportMetric(float64(res.Temporal.Edges), "temporal-edges")
			b.ReportMetric(float64(res.ARTC.MeanLength)/float64(res.Temporal.MeanLength), "edge-span-ratio")
		}
	}
}

func BenchmarkFig9Concurrency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.Relative(artc.MethodARTC)*100, "artc-concurrency-pct")
			b.ReportMetric(res.Relative(artc.MethodTemporal)*100, "temporal-concurrency-pct")
		}
	}
}

func BenchmarkFig10ThreadTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := experiments.Quick()
		res, err := experiments.Fig10(p, 4)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			// Mean HDD/SSD thread-time ratio (the paper reports 5-20x for
			// most applications).
			var sum float64
			var n int
			for _, row := range res.Rows {
				if row.SSDTotal > 0 {
					sum += float64(row.HDDTotal) / float64(row.SSDTotal)
					n++
				}
			}
			if n > 0 {
				b.ReportMetric(sum/float64(n), "hdd/ssd-threadtime-x")
			}
		}
	}
}

// BenchmarkReplayObsOff and BenchmarkReplayObsOn measure the replayer
// with the observability recorder disabled and enabled on the same
// mid-size Magritte benchmark. Off must stay within noise of the
// recorder-less replayer (the disabled path is one nil check per
// action); the On/Off delta is the recording cost itself.
func benchmarkReplayObs(b *testing.B, rec func() *obs.Recorder) {
	spec, _ := magritte.SpecByName("pages_docphoto15")
	gen, err := magritte.Generate(spec, magritte.GenOptions{Scale: 0.02, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	bench, err := Compile(gen.Trace, gen.Snapshot, DefaultModes())
	if err != nil {
		b.Fatal(err)
	}
	target := magritte.DefaultSuiteOptions().Target
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		sys := stack.New(k, target)
		if err := magritte.InitTarget(sys, bench, true); err != nil {
			b.Fatal(err)
		}
		if _, err := artc.Replay(sys, bench, artc.Options{Obs: rec()}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(gen.Trace.Records)), "records")
}

func BenchmarkReplayObsOff(b *testing.B) {
	benchmarkReplayObs(b, func() *obs.Recorder { return nil })
}

func BenchmarkReplayObsOn(b *testing.B) {
	benchmarkReplayObs(b, func() *obs.Recorder { return obs.NewRecorder(0, 0) })
}

// BenchmarkReplayFault{Off,On} bound fault injection's replay cost on
// the same mid-size Magritte benchmark. Off (no injector at all) must
// stay within noise of BenchmarkReplayObsOff — the disabled path is one
// nil check per action and no device wrapping — while On carries a
// modest syscall+storage rate with retries, watchdog, and both fault
// sites armed.
func benchmarkReplayFault(b *testing.B, plan func() *fault.Plan) {
	spec, _ := magritte.SpecByName("pages_docphoto15")
	gen, err := magritte.Generate(spec, magritte.GenOptions{Scale: 0.02, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	bench, err := Compile(gen.Trace, gen.Snapshot, DefaultModes())
	if err != nil {
		b.Fatal(err)
	}
	target := magritte.DefaultSuiteOptions().Target
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var in *fault.Injector
		conf := target
		if p := plan(); p != nil {
			in = fault.New(*p)
			conf.Faults = in
		}
		k := sim.NewKernel()
		sys := stack.New(k, conf)
		if err := magritte.InitTarget(sys, bench, true); err != nil {
			b.Fatal(err)
		}
		if _, err := artc.Replay(sys, bench, artc.Options{Fault: in}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(gen.Trace.Records)), "records")
}

func BenchmarkReplayFaultOff(b *testing.B) {
	benchmarkReplayFault(b, func() *fault.Plan { return nil })
}

func BenchmarkReplayFaultOn(b *testing.B) {
	benchmarkReplayFault(b, func() *fault.Plan {
		return &fault.Plan{
			Seed:    1,
			Syscall: fault.SyscallPlan{Rate: 0.01},
			Storage: fault.StoragePlan{ErrorRate: 0.01, SlowRate: 0.01},
			Retry:   fault.RetryPlan{MaxAttempts: 4},
		}
	})
}

// BenchmarkCompile measures the compiler itself on a mid-size Magritte
// trace: records/sec through analysis + graph building.
func BenchmarkCompile(b *testing.B) {
	spec, _ := magritte.SpecByName("pages_docphoto15")
	gen, err := magritte.Generate(spec, magritte.GenOptions{Scale: 0.02, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(gen.Trace, gen.Snapshot, DefaultModes()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(gen.Trace.Records)), "records")
}
