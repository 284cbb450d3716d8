// Package metrics provides the small statistics the evaluation reports:
// relative timing error, means, percentiles/CDFs, and fixed-width text
// tables.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// RelError returns |got-want| / want; zero if want is zero.
func RelError(got, want time.Duration) float64 {
	if want == 0 {
		return 0
	}
	return math.Abs(float64(got-want)) / float64(want)
}

// Mean averages a sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// TailMean averages the worst (largest) fraction p of the sample — the
// paper's "least accurate 10% of each method's replays".
func TailMean(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := int(math.Ceil(p * float64(len(s))))
	if n < 1 {
		n = 1
	}
	return Mean(s[len(s)-n:])
}

// Table accumulates rows for fixed-width text output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// Row appends a row; values are formatted with %v.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.1f", v)
		case time.Duration:
			row[i] = fmtDur(v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// fmtDur renders a duration with benchmark-friendly precision.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	}
}

// FmtDur renders a duration with the same benchmark-friendly precision
// Table uses, for report renderers that format cells themselves.
func FmtDur(d time.Duration) string { return fmtDur(d) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// PctString formats a relative error as "+12.3%" / "-4.5%" given signed
// difference, or "12.3%" for magnitudes.
func PctString(frac float64) string {
	return fmt.Sprintf("%.1f%%", frac*100)
}
