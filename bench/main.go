// Command bench is the repository's one benchmark: five workloads, the
// end-to-end metrics a user of the replayer or the service would see,
// and per-layer metrics taken by timing calls into each layer's public
// API. BENCHMARK.json at the repository root declares every metric it
// prints; README.md in this directory says what each one means.
//
// With --workload it measures that workload in this process and prints a
// JSON result as its last line (the form the driver runs). Without, it
// re-executes itself once per workload and pass, each in a fresh
// process, prints one line per metric and writes out/result.json.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	name := flag.String("workload", "", "measure this workload in this process (default: all, one child process each)")
	seed := flag.Int64("seed", goldenSeed, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 15, "how long the timed loop of one run measures")
	trace := flag.Int("trace", -1, "1: traced run, per-layer metrics; 0: untraced, end-to-end metrics (default: both)")
	traced := flag.Bool("traced", false, "same as --trace 1")
	repeat := flag.Int("repeat", 1, "run the whole set this many times, on seed, seed+1, ..., and print each metric's run-to-run spread")
	out := flag.String("out", "bench/out", "directory for traces, result.json and scratch files")
	writeGolden := flag.String("write-golden", "", "write the exact statistics of a --trace 1 run on the golden seed into this directory")
	flag.Parse()
	if *traced {
		*trace = 1
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}

	if *name != "" {
		for _, w := range workloads {
			if w.name != *name {
				continue
			}
			if *trace < 0 {
				*trace = 0
			}
			logf := func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
			logf("%s host num_cpu=%d gomaxprocs=%d go_version=%s seed=%d", w.name, runtime.NumCPU(), procs, runtime.Version(), *seed)
			res, err := runChild(w, *seed, *seconds, *trace == 1, fullSize, *out, *writeGolden, logf)
			if err != nil {
				fatal(err)
			}
			doc, err := json.Marshal(res)
			if err != nil {
				fatal(err)
			}
			fmt.Println(string(doc))
			if !res.Correct {
				os.Exit(1)
			}
			return
		}
		fatal(fmt.Errorf("unknown workload %q", *name))
	}

	ok, err := runAll(*seed, *seconds, *trace, *repeat, *out)
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runAll runs every workload, each pass in a child process of its own so
// that peak memory and collector state belong to one workload, and
// reports whether every correctness check passed.
func runAll(seed int64, seconds float64, trace, repeat int, out string) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	passes := []int{0, 1}
	if trace >= 0 {
		passes = []int{trace}
	}
	type key struct{ workload, metric string }
	samples := make(map[key][]float64)
	units := make(map[key]string)
	ok := true
	for rep := 0; rep < repeat; rep++ {
		for _, w := range workloads {
			for _, pass := range passes {
				cmd := exec.Command(self,
					"--workload", w.name, "--seed", fmt.Sprint(seed+int64(rep)), "--seconds", fmt.Sprint(seconds),
					"--trace", fmt.Sprint(pass), "--out", out)
				var stdout bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
				// A child whose checks failed exits 1 after printing its
				// result; only a child without a result is a broken run.
				runErr := cmd.Run()
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					return false, fmt.Errorf("%s --trace %d: no result (%v): %w", w.name, pass, runErr, err)
				}
				if repeat == 1 {
					fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
				}
				fmt.Printf("%s checks trace=%d attempted=%d failed=%d\n", w.name, pass, res.Attempted, res.Failed)
				ok = ok && res.Correct
				for m, v := range res.Metrics {
					k := key{w.name, m}
					samples[k] = append(samples[k], v.Value)
					units[k] = v.Unit
				}
			}
		}
	}

	// One row per metric; with -repeat, the run-to-run spread beside it.
	type row struct {
		Workload string    `json:"workload"`
		Metric   string    `json:"metric"`
		Unit     string    `json:"unit"`
		Values   []float64 `json:"values"`
		Min      float64   `json:"min"`
		Median   float64   `json:"median"`
		Max      float64   `json:"max"`
		Spread   float64   `json:"spread"` // (max-min)/median
		IQR      float64   `json:"iqr"`    // (third quartile - first quartile)/median
	}
	var rows []row
	for k, v := range samples {
		s := append([]float64(nil), v...)
		sort.Float64s(s)
		r := row{Workload: k.workload, Metric: k.metric, Unit: units[k], Values: v,
			Min: s[0], Median: median(s), Max: s[len(s)-1]}
		if r.Median != 0 {
			r.Spread = (r.Max - r.Min) / r.Median
			r.IQR = (quartile(s, 3) - quartile(s, 1)) / r.Median
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Workload != rows[j].Workload {
			return rows[i].Workload < rows[j].Workload
		}
		return rows[i].Metric < rows[j].Metric
	})
	if repeat > 1 {
		for _, r := range rows {
			fmt.Printf("%s %s min=%v median=%v max=%v %s spread=%.4f iqr=%.4f n=%d\n",
				r.Workload, r.Metric, r.Min, r.Median, r.Max, r.Unit, r.Spread, r.IQR, len(r.Values))
		}
	}
	doc, err := json.MarshalIndent(map[string]any{
		"seed": seed, "seconds": seconds, "repeat": repeat,
		"num_cpu": runtime.NumCPU(), "gomaxprocs": procs, "go_version": runtime.Version(),
		"correct": ok, "metrics": rows,
	}, "", "  ")
	if err != nil {
		return false, err
	}
	return ok, os.WriteFile(filepath.Join(out, "result.json"), append(doc, '\n'), 0o644)
}

// quartile is the i-th quartile of sorted s as Python's
// statistics.quantiles(s, n=4) computes it, which is what the driver
// judges the benchmark's steadiness by.
func quartile(s []float64, i int) float64 {
	m := len(s)
	if m < 2 {
		return s[0]
	}
	j := i * (m + 1) / 4
	if j < 1 {
		j = 1
	}
	if j > m-1 {
		j = m - 1
	}
	delta := float64(i*(m+1) - j*4)
	return (s[j-1]*(4-delta) + s[j]*delta) / 4
}
