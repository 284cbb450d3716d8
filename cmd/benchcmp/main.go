// Command benchcmp prints a benchstat-style comparison of two perfstat
// JSON records (BENCH_<tag>.json): every numeric field the two files
// share, with old value, new value, and the percentage delta.
//
// With -gate, the key performance metrics also become a CI gate: the
// command exits non-zero when any of them regresses by more than
// -threshold (a fraction; default 0.25 = 25%, loose enough for shared
// CI runners). Metrics have a direction — replay_ns regresses when it
// grows, records_per_second when it shrinks — and metrics absent from
// either file are skipped, so adding a new perfstat field never breaks
// old comparisons.
//
// Usage: benchcmp [-gate] [-threshold 0.25] OLD.json NEW.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// gatedMetrics maps each gated perfstat field to its direction: true
// means lower is better (times, allocs), false means higher is better
// (throughputs). The speedup fields (shard_speedup, slice_speedup) are
// printed but not gated: each is a quotient of two *_ns fields gated
// here, so a faster serial denominator would read as a regression.
var gatedMetrics = map[string]bool{
	"replay_ns":                        true,
	"replay_sharded_ns":                true,
	"components_replay_ns":             true,
	"obs_replay_ns":                    true,
	"compile_ns_per_op":                true,
	"parse_allocs_per_record":          true,
	"kernel_timer_churn_ns_per_op":     true,
	"kernel_timer_churn_allocs_per_op": true,
	"kernel_sleep_churn_ns_per_op":     true,
	"kernel_pingpong_ns_per_op":        true,
	"kernel_completion_ns_per_op":      true,
	"pipeline_replay_ns":               true,
	"pipeline_sliced_ns":               true,
	"records_per_second":               false,
	"parse_records_per_second":         false,
}

// dirMark annotates a one-sided gated metric with its direction, so the
// table says which way the fresh baseline is supposed to move once both
// sides have it: ↓ lower-better, ↑ higher-better. Ungated one-sided
// metrics stay bare.
func dirMark(k string) string {
	lowerBetter, gated := gatedMetrics[k]
	if !gated {
		return ""
	}
	if lowerBetter {
		return " ↓"
	}
	return " ↑"
}

func load(path string) (map[string]interface{}, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m map[string]interface{}
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

func main() {
	gate := flag.Bool("gate", false, "exit non-zero when a key metric regresses beyond -threshold")
	threshold := flag.Float64("threshold", 0.25, "allowed fractional regression per gated metric")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp [-gate] [-threshold 0.25] OLD.json NEW.json")
		os.Exit(2)
	}
	oldM, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(1)
	}
	newM, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(1)
	}

	// Walk the union of numeric fields: shared ones get a delta,
	// one-sided ones are flagged rather than dropped.
	var keys []string
	seen := map[string]bool{}
	for _, m := range []map[string]interface{}{oldM, newM} {
		for k, v := range m {
			if _, isNum := v.(float64); isNum && !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)

	width := len("metric")
	for _, k := range keys {
		if len(k) > width {
			width = len(k)
		}
	}
	fmt.Printf("%-*s  %14s  %14s  %8s\n", width, "metric", "old", "new", "delta")
	for _, k := range keys {
		ov, inOld := oldM[k].(float64)
		nv, inNew := newM[k].(float64)
		switch {
		case !inOld:
			fmt.Printf("%-*s  %14s  %14s  %8s\n", width, k, "-", formatNum(nv), "new"+dirMark(k))
			continue
		case !inNew:
			fmt.Printf("%-*s  %14s  %14s  %8s\n", width, k, formatNum(ov), "-", "gone"+dirMark(k))
			continue
		}
		delta := "~"
		if ov != 0 {
			pct := (nv - ov) / ov * 100
			// Counting fields (iters, edges, spans…) matching exactly is
			// the interesting case; rates and times get the percentage.
			if pct == 0 {
				delta = "0.00%"
			} else {
				delta = fmt.Sprintf("%+.2f%%", pct)
			}
		} else if nv != 0 {
			delta = "new"
		}
		fmt.Printf("%-*s  %14s  %14s  %8s\n", width, k, formatNum(ov), formatNum(nv), delta)
	}

	if !*gate {
		return
	}
	var regressions []string
	for _, k := range keys {
		lowerBetter, gated := gatedMetrics[k]
		if !gated {
			continue
		}
		// One-sided metrics can't regress: a field the old record lacks
		// (like replay_sharded_ns on its first appearance) has no
		// baseline, and a dropped field has nothing to measure.
		ov, inOld := oldM[k].(float64)
		nv, inNew := newM[k].(float64)
		if !inOld || !inNew {
			continue
		}
		if ov <= 0 {
			continue // nothing to compare against (e.g. zero allocs)
		}
		var worse float64 // fractional regression in the metric's bad direction
		if lowerBetter {
			worse = (nv - ov) / ov
		} else {
			worse = (ov - nv) / ov
		}
		if worse > *threshold {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %s -> %s (%.1f%% worse, threshold %.1f%%)",
				k, formatNum(ov), formatNum(nv), worse*100, *threshold*100))
		}
	}
	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "benchcmp: %d gated metric(s) regressed:\n", len(regressions))
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, " ", r)
		}
		os.Exit(1)
	}
	fmt.Printf("gate: %d metric(s) within %.0f%% of %s\n", countGated(keys, oldM, newM), *threshold*100, flag.Arg(0))
}

// countGated reports how many keys the gate examined: gated metrics
// present in both records.
func countGated(keys []string, oldM, newM map[string]interface{}) int {
	n := 0
	for _, k := range keys {
		if _, ok := gatedMetrics[k]; !ok {
			continue
		}
		_, inOld := oldM[k].(float64)
		_, inNew := newM[k].(float64)
		if inOld && inNew {
			n++
		}
	}
	return n
}

// formatNum renders integers without a mantissa and everything else
// with two decimals, keeping columns readable for both edge counts and
// ns/op values.
func formatNum(v float64) string {
	if v == float64(int64(v)) {
		s := fmt.Sprintf("%d", int64(v))
		return s
	}
	s := fmt.Sprintf("%.2f", v)
	return strings.TrimRight(strings.TrimRight(s, "0"), ".")
}
