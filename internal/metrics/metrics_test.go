package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestRelError(t *testing.T) {
	if !almostEq(RelError(110, 100), 0.1) {
		t.Fatal("over")
	}
	if !almostEq(RelError(90, 100), 0.1) {
		t.Fatal("under")
	}
	if RelError(50, 0) != 0 {
		t.Fatal("zero want")
	}
	if RelError(100, 100) != 0 {
		t.Fatal("exact")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty")
	}
	if !almostEq(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Fatal("mean")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if Percentile(xs, 0.5) != 3 {
		t.Fatalf("p50 = %v", Percentile(xs, 0.5))
	}
	if Percentile(xs, 1.0) != 5 {
		t.Fatal("p100")
	}
	if Percentile(xs, 0.0) != 1 {
		t.Fatal("p0 clamps to min")
	}
	if Percentile(nil, 0.5) != 0 {
		t.Fatal("empty")
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Fatal("input mutated")
	}
}

func TestTailMean(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if !almostEq(TailMean(xs, 0.10), 10) {
		t.Fatalf("worst decile = %v", TailMean(xs, 0.10))
	}
	if !almostEq(TailMean(xs, 0.20), 9.5) {
		t.Fatalf("worst quintile = %v", TailMean(xs, 0.20))
	}
	if TailMean(nil, 0.1) != 0 {
		t.Fatal("empty")
	}
}

func TestCDF(t *testing.T) {
	pts := CDF([]float64{3, 1, 2})
	if len(pts) != 3 {
		t.Fatal("length")
	}
	if pts[0].X != 1 || !almostEq(pts[0].F, 1.0/3) {
		t.Fatalf("first = %+v", pts[0])
	}
	if pts[2].X != 3 || !almostEq(pts[2].F, 1) {
		t.Fatalf("last = %+v", pts[2])
	}
	if CDF(nil) != nil {
		t.Fatal("empty")
	}
}

// Property: a CDF is monotone in both coordinates and ends at 1.
func TestQuickCDFMonotone(t *testing.T) {
	f := func(xs []float64) bool {
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				xs[i] = 0
			}
		}
		pts := CDF(xs)
		if len(xs) == 0 {
			return pts == nil
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].X < pts[i-1].X || pts[i].F <= pts[i-1].F {
				return false
			}
		}
		return almostEq(pts[len(pts)-1].F, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("name", "value", "time")
	tb.Row("alpha", 1.25, 1500*time.Millisecond)
	tb.Row("averyverylongname", 100, 3*time.Microsecond)
	s := tb.String()
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), s)
	}
	if !strings.Contains(lines[2], "1.2") || !strings.Contains(lines[2], "1.50s") {
		t.Fatalf("row formatting: %q", lines[2])
	}
	if !strings.Contains(lines[3], "3µs") {
		t.Fatalf("µs formatting: %q", lines[3])
	}
	// Columns align: header and separator have the same width.
	if len(lines[0]) != len(lines[1]) {
		t.Fatalf("misaligned header/separator:\n%s", s)
	}
}

func TestPctString(t *testing.T) {
	if PctString(0.106) != "10.6%" {
		t.Fatalf("got %s", PctString(0.106))
	}
	if PctString(0) != "0.0%" {
		t.Fatal("zero")
	}
}

func TestDurationFormats(t *testing.T) {
	tb := NewTable("d")
	tb.Row(2 * time.Millisecond)
	tb.Row(25 * time.Second)
	s := tb.String()
	if !strings.Contains(s, "2.0ms") || !strings.Contains(s, "25.00s") {
		t.Fatalf("duration formats:\n%s", s)
	}
}

// Percentile returns the p-quantile (0..1) of xs using nearest-rank on a
// sorted copy.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(p*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X float64 // value
	F float64 // cumulative fraction <= X
}

// CDF computes the empirical CDF of xs.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := make([]CDFPoint, len(s))
	for i, x := range s {
		out[i] = CDFPoint{X: x, F: float64(i+1) / float64(len(s))}
	}
	return out
}
