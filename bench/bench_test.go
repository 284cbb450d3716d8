package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// smokeSize is every workload at about 1/50 of its full size.
var smokeSize = sizes{
	name: "smoke", magritteScale: 0.0004, compN: 8, compOps: 3000,
	hitsOps: 320, wbOps: 60, svcScale: 0.0001,
	setupReps: 1, warmIters: 1, minIters: 2, probeTime: "1ms",
}

type declared struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	doc, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(doc, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclaredMetrics holds BENCHMARK.json and the metric tables of this
// package to each other, and both to the contract's limits.
func TestDeclaredMetrics(t *testing.T) {
	d := readDeclared(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	compare := func(kind string, defs []metricDef, decl []struct{ Name, Unit string }, limit int) {
		if len(defs) > limit {
			t.Errorf("%d %s metrics, limit %d", len(defs), kind, limit)
		}
		want := make(map[string]string)
		for _, m := range decl {
			want[m.Name] = m.Unit
		}
		for _, m := range defs {
			if !nameRE.MatchString(m.name) {
				t.Errorf("%s metric name %q is not allowed", kind, m.name)
			}
			if unit, ok := want[m.name]; !ok {
				t.Errorf("%s metric %s is emitted but not declared in BENCHMARK.json", kind, m.name)
			} else if unit != m.unit {
				t.Errorf("%s metric %s: unit %q here, %q in BENCHMARK.json", kind, m.name, m.unit, unit)
			}
			delete(want, m.name)
		}
		for name := range want {
			t.Errorf("%s metric %s is declared in BENCHMARK.json but not emitted", kind, name)
		}
	}
	compare("end-to-end", endToEnd, d.EndToEnd, 16)
	compare("per-layer", perLayer, d.PerLayer, 128)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %s here, %s in BENCHMARK.json", i, w.name, d.Workloads[i].Name)
		}
	}
}

// TestSmoke runs every workload small, traced and untraced, and checks
// what comes out: the declared metrics and no others, no failed check, a
// trace file that parses, and spans that nest.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out := t.TempDir()
			for _, traced := range []bool{false, true} {
				res, err := runChild(w, 11, 0, traced, smokeSize, out, "", t.Logf)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("traced=%v: %d metrics emitted, %d declared", traced, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok {
						t.Errorf("traced=%v: metric %s missing", traced, d.name)
					} else if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
			}
			checkTraceFile(t, filepath.Join(out, "trace-"+w.name+".json"))
		})
	}
}

func checkTraceFile(t *testing.T, path string) {
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string
			Ts   float64
			Dur  float64
			Args struct{ ID, Parent, Iter int }
		}
	}
	if err := json.Unmarshal(doc, &file); err != nil {
		t.Fatalf("%s does not parse: %v", path, err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	byID := make(map[int]int)
	for i, e := range file.TraceEvents {
		byID[e.Args.ID] = i
	}
	const slack = 0.002 // microseconds: ts and dur are rounded separately
	for _, e := range file.TraceEvents {
		if e.Dur < 0 {
			t.Errorf("span %d %s was never closed", e.Args.ID, e.Name)
		}
		if e.Args.Parent == 0 {
			continue
		}
		pi, ok := byID[e.Args.Parent]
		if !ok {
			t.Errorf("span %d %s: parent %d does not exist", e.Args.ID, e.Name, e.Args.Parent)
			continue
		}
		p := file.TraceEvents[pi]
		if e.Ts < p.Ts-slack || e.Ts+e.Dur > p.Ts+p.Dur+slack {
			t.Errorf("span %d %s [%f, %f] is not inside its parent %d %s [%f, %f]",
				e.Args.ID, e.Name, e.Ts, e.Ts+e.Dur, p.Args.ID, p.Name, p.Ts, p.Ts+p.Dur)
		}
		if e.Args.Iter != p.Args.Iter {
			t.Errorf("span %d %s is in iteration %d, its parent in %d", e.Args.ID, e.Name, e.Args.Iter, p.Args.Iter)
		}
	}
}
