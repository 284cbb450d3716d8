package experiments

import (
	"fmt"
	"time"

	"rootreplay/internal/artc"
	"rootreplay/internal/core"
	"rootreplay/internal/magritte"
	"rootreplay/internal/metrics"
	"rootreplay/internal/par"
	"rootreplay/internal/stack"
)

// Table3Result is the Magritte semantic-correctness table.
type Table3Result struct {
	Results []*magritte.Result
}

// Table3 runs the full 34-trace Magritte suite at the given scale,
// replaying each trace unconstrained and with ARTC on the paper's
// Linux/ext4/SSD target.
func Table3(p Params) (*Table3Result, error) {
	opts := magritte.DefaultSuiteOptions()
	opts.Gen.Scale = p.MagritteScale
	results, err := magritte.RunSuite(opts)
	if err != nil {
		return nil, err
	}
	return &Table3Result{Results: results}, nil
}

// Format renders the table.
func (r *Table3Result) Format() string {
	return "Table 3: replay failure counts (UC vs ARTC)\n" + magritte.FormatTable3(r.Results)
}

// Fig10Row is one application's thread-time breakdown on HDD and SSD.
type Fig10Row struct {
	Name     string
	HDD      map[string]time.Duration
	HDDTotal time.Duration
	SSD      map[string]time.Duration
	SSDTotal time.Duration
}

// Fig10Result is the Magritte case study: thread-time by operation
// category on a disk and an SSD, normalized to HDD thread-time.
type Fig10Result struct {
	Rows []Fig10Row
}

// Fig10 replays Magritte traces on HDD and SSD machines and splits
// thread-time by call category. traces limits how many of the 34 run
// (0 = all).
func Fig10(p Params, traces int) (*Fig10Result, error) {
	mk := func(dev stack.DeviceKind) stack.Config {
		return stack.Config{
			Name: "linux-ext4-" + string(dev), Platform: stack.Linux,
			Profile: stack.Ext4, Device: dev, Scheduler: stack.SchedCFQ,
		}
	}
	hdd, ssd := mk(stack.DeviceHDD), mk(stack.DeviceSSD)
	n := len(magritte.Specs)
	if traces > 0 && traces < n {
		n = traces
	}
	rows := make([]Fig10Row, n)
	err := par.ForEach(n, func(i int) error {
		spec := magritte.Specs[i]
		gen, err := magritte.Generate(spec, magritte.GenOptions{Scale: p.MagritteScale, Seed: int64(i) * 1000003})
		if err != nil {
			return err
		}
		b, err := artc.Compile(gen.Trace, gen.Snapshot, core.DefaultModes())
		if err != nil {
			return err
		}
		row := Fig10Row{Name: spec.FullName()}
		row.HDD, row.HDDTotal, err = magritte.ThreadTimeRun(b, hdd, true)
		if err != nil {
			return fmt.Errorf("fig10 %s hdd: %w", spec.FullName(), err)
		}
		row.SSD, row.SSDTotal, err = magritte.ThreadTimeRun(b, ssd, true)
		if err != nil {
			return fmt.Errorf("fig10 %s ssd: %w", spec.FullName(), err)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig10Result{Rows: rows}, nil
}

// Format renders per-trace normalized breakdowns.
func (r *Fig10Result) Format() string {
	header := []string{"trace", "device", "total(norm)"}
	header = append(header, magritte.Categories...)
	t := metrics.NewTable(header...)
	for _, row := range r.Rows {
		if row.HDDTotal == 0 {
			continue
		}
		norm := func(byCat map[string]time.Duration, total time.Duration) []any {
			cells := []any{fmt.Sprintf("%.2f", float64(total)/float64(row.HDDTotal))}
			for _, cat := range magritte.Categories {
				cells = append(cells, fmt.Sprintf("%.2f", float64(byCat[cat])/float64(row.HDDTotal)))
			}
			return cells
		}
		t.Row(append([]any{row.Name, "hdd"}, norm(row.HDD, row.HDDTotal)...)...)
		t.Row(append([]any{"", "ssd"}, norm(row.SSD, row.SSDTotal)...)...)
	}
	return "Figure 10: Magritte thread-time breakdown (normalized to HDD total)\n" + t.String()
}
