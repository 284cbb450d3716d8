package experiments

import (
	"strings"
	"testing"

	"rootreplay/internal/artc"
	"rootreplay/internal/core"
)

// The experiment tests assert the paper's qualitative results (who wins,
// rough factors, crossovers) at Quick scale.

func TestFig5aShape(t *testing.T) {
	res, err := Fig5a(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Comparisons) != 3 {
		t.Fatalf("groups = %d", len(res.Comparisons))
	}
	// Sublinear slowdown from 1 to 8 threads.
	t1 := res.Comparisons[0].Original
	t8 := res.Comparisons[2].Original
	if float64(t8) >= 8*float64(t1) {
		t.Errorf("no queue-depth benefit: 1t=%v 8t=%v", t1, t8)
	}
	// At 8 threads ARTC tracks the original; single overestimates badly.
	c8 := res.Comparisons[2]
	a, s := c8.runOf(artc.MethodARTC), c8.runOf(artc.MethodSingle)
	if a.Err > 0.20 {
		t.Errorf("ARTC error at 8t = %.1f%%", a.Err*100)
	}
	if s.Err < 2*a.Err || s.Elapsed < c8.Original {
		t.Errorf("single at 8t: err=%.1f%% elapsed=%v orig=%v; expected large overestimate",
			s.Err*100, s.Elapsed, c8.Original)
	}
	for _, c := range res.Comparisons {
		for _, r := range c.Runs {
			if r.Errors != 0 {
				t.Errorf("%s/%s: %d semantic errors", c.Label, r.Method, r.Errors)
			}
		}
	}
	if !strings.Contains(res.Format(), "8 threads") {
		t.Error("Format missing rows")
	}
}

func TestFig5bShape(t *testing.T) {
	res, err := Fig5b(Quick())
	if err != nil {
		t.Fatal(err)
	}
	toRAID := res.Comparisons[0]
	a, s := toRAID.runOf(artc.MethodARTC), toRAID.runOf(artc.MethodSingle)
	if a.Err > 0.20 {
		t.Errorf("ARTC error replaying onto RAID = %.1f%%", a.Err*100)
	}
	// Single-threaded replay cannot exploit the array's parallelism.
	if s.Err < a.Err {
		t.Errorf("single (%.1f%%) should be worse than ARTC (%.1f%%) onto RAID", s.Err*100, a.Err*100)
	}
	if s.Elapsed <= toRAID.Original {
		t.Errorf("single onto RAID should overestimate: %v vs %v", s.Elapsed, toRAID.Original)
	}
}

func TestFig5cShape(t *testing.T) {
	res, err := Fig5c(Quick())
	if err != nil {
		t.Fatal(err)
	}
	bigToSmall := res.Comparisons[0]
	smallToBig := res.Comparisons[1]
	aBS := bigToSmall.runOf(artc.MethodARTC)
	sBS := bigToSmall.runOf(artc.MethodSingle)
	tBS := bigToSmall.runOf(artc.MethodTemporal)
	// The paper's asymmetry: simple methods overestimate replaying the
	// big-cache trace on the small-cache target, but are fine in the
	// other direction.
	if aBS.Err > 0.25 {
		t.Errorf("ARTC big->small err = %.1f%%", aBS.Err*100)
	}
	if sBS.Elapsed <= bigToSmall.Original || sBS.Err < 1.5*aBS.Err {
		t.Errorf("single big->small should overestimate: single=%v (%.1f%%) orig=%v artc err %.1f%%",
			sBS.Elapsed, sBS.Err*100, bigToSmall.Original, aBS.Err*100)
	}
	if tBS.Elapsed <= bigToSmall.Original {
		t.Errorf("temporal big->small should overestimate: %v vs %v", tBS.Elapsed, bigToSmall.Original)
	}
	sSB := smallToBig.runOf(artc.MethodSingle)
	if sSB.Err > sBS.Err {
		t.Errorf("asymmetry missing: single small->big (%.1f%%) worse than big->small (%.1f%%)",
			sSB.Err*100, sBS.Err*100)
	}
}

func TestFig5dShape(t *testing.T) {
	res, err := Fig5d(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Comparisons {
		a := c.runOf(artc.MethodARTC)
		if a.Err > 0.25 {
			t.Errorf("%s: ARTC err = %.1f%%", c.Label, a.Err*100)
		}
	}
	// 100ms trace on 1ms target: simple replays reproduce the source's
	// scheduling, dramatically overestimating performance (finishing too
	// fast).
	longToShort := res.Comparisons[0]
	s := longToShort.runOf(artc.MethodSingle)
	tm := longToShort.runOf(artc.MethodTemporal)
	if s.Elapsed >= longToShort.Original {
		t.Errorf("single 100ms->1ms should finish too fast: %v vs orig %v", s.Elapsed, longToShort.Original)
	}
	if tm.Elapsed >= longToShort.Original {
		t.Errorf("temporal 100ms->1ms should finish too fast: %v vs orig %v", tm.Elapsed, longToShort.Original)
	}
	// 1ms trace on 100ms target: simple replays underestimate
	// performance (take too long relative to the original).
	shortToLong := res.Comparisons[1]
	s2 := shortToLong.runOf(artc.MethodSingle)
	if s2.Elapsed <= shortToLong.Original {
		t.Errorf("single 1ms->100ms should be too slow: %v vs orig %v", s2.Elapsed, shortToLong.Original)
	}
}

func TestFig6Shape(t *testing.T) {
	res, err := Fig6(Quick())
	if err != nil {
		t.Fatal(err)
	}
	var orig, artc100, single100 *Fig6Series
	for i := range res.Series {
		switch res.Series[i].Label {
		case "original":
			orig = &res.Series[i]
		case "artc/100ms-src":
			artc100 = &res.Series[i]
		case "single/100ms-src":
			single100 = &res.Series[i]
		}
	}
	if orig == nil || artc100 == nil || single100 == nil {
		t.Fatal("missing series")
	}
	// Original throughput rises with slice size.
	if orig.Throughput[len(orig.Throughput)-1] <= orig.Throughput[0]*1.3 {
		t.Errorf("no anticipation benefit in original: %v", orig.Throughput)
	}
	// ARTC tracks the target at the extremes; simple replay of the
	// 100ms-source trace dramatically overestimates at 1ms.
	if rel := artc100.Throughput[0] / orig.Throughput[0]; rel > 1.5 || rel < 0.6 {
		t.Errorf("artc at 1ms target off by %.2fx", rel)
	}
	if single100.Throughput[0] < 1.5*orig.Throughput[0] {
		t.Errorf("single/100ms-src at 1ms target should overestimate: %.1f vs %.1f",
			single100.Throughput[0], orig.Throughput[0])
	}
	if !strings.Contains(res.Format(), "original") {
		t.Error("format broken")
	}
}

func TestFig8Shape(t *testing.T) {
	res, err := Fig8(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.Temporal.Edges == 0 || res.ARTC.Edges == 0 {
		t.Fatalf("edge counts: temporal=%d artc=%d", res.Temporal.Edges, res.ARTC.Edges)
	}
	// The paper's claim: ARTC's flexibility is long edges, not fewer
	// edges. Mean ARTC edge span must be far larger than temporal's.
	if res.ARTC.MeanLength < 10*res.Temporal.MeanLength {
		t.Errorf("ARTC mean edge span %v not >> temporal %v", res.ARTC.MeanLength, res.Temporal.MeanLength)
	}
	if !strings.Contains(res.Format(), "temporal") {
		t.Error("format broken")
	}
}

func TestFig9Shape(t *testing.T) {
	res, err := Fig9(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.OriginalConcurrency < 1.5 {
		t.Errorf("original concurrency = %.2f; 4 threads should overlap", res.OriginalConcurrency)
	}
	artcRel := res.Relative(artc.MethodARTC)
	tempRel := res.Relative(artc.MethodTemporal)
	if artcRel <= tempRel {
		t.Errorf("ARTC concurrency (%.0f%%) not above temporal (%.0f%%)", artcRel*100, tempRel*100)
	}
	if artcRel < 0.7 {
		t.Errorf("ARTC achieves only %.0f%% of original concurrency", artcRel*100)
	}
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full source/target matrix")
	}
	res, err := Fig7(Quick(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// 49 readrandom combos + 2 fillsync.
	if len(res.Workload["readrandom"]) != 49 {
		t.Fatalf("readrandom combos = %d", len(res.Workload["readrandom"]))
	}
	artcMean := res.MeanError(artc.MethodARTC)
	singleMean := res.MeanError(artc.MethodSingle)
	tempMean := res.MeanError(artc.MethodTemporal)
	t.Logf("mean errors: artc=%.1f%% temporal=%.1f%% single=%.1f%%", artcMean*100, tempMean*100, singleMean*100)
	t.Logf("worst decile: artc=%.1f%% temporal=%.1f%% single=%.1f%%",
		res.WorstDecileError(artc.MethodARTC)*100,
		res.WorstDecileError(artc.MethodTemporal)*100,
		res.WorstDecileError(artc.MethodSingle)*100)
	if artcMean >= tempMean {
		t.Errorf("ARTC mean error (%.1f%%) not below temporal (%.1f%%)", artcMean*100, tempMean*100)
	}
	if artcMean >= singleMean {
		t.Errorf("ARTC mean error (%.1f%%) not below single (%.1f%%)", artcMean*100, singleMean*100)
	}
	if res.WorstDecileError(artc.MethodARTC) >= res.WorstDecileError(artc.MethodSingle) {
		t.Error("ARTC should avoid extreme inaccuracy best")
	}
	// fillsync: every method accurate (single-writer pattern).
	for _, cell := range res.Workload["fillsync"] {
		for _, run := range cell.Runs {
			if run.Err > 0.30 {
				t.Errorf("fillsync %s->%s %s err = %.1f%%", cell.Source, cell.Target, run.Method, run.Err*100)
			}
		}
	}
	if len(res.Errors[artc.MethodARTC]) == 0 {
		t.Error("no ARTC error samples")
	}
}

func TestAblationShape(t *testing.T) {
	res, err := Ablation(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// No cross-thread ordering: races produce semantic errors and a
	// too-fast replay.
	if res.Rows[0].SemErr == 0 {
		t.Error("thread_seq-only replay should race")
	}
	if res.Rows[0].Elapsed >= res.Original {
		t.Error("underconstrained replay should finish too fast")
	}
	// Every constrained row is semantically clean.
	for _, row := range res.Rows[1:] {
		if row.SemErr != 0 {
			t.Errorf("%s: %d semantic errors", row.Name, row.SemErr)
		}
	}
	// program_seq's edges are consecutive-action edges: far shorter than
	// fd_stage's resource edges (the Figure 8 insight at mode level).
	last := res.Rows[len(res.Rows)-1]
	if last.Modes != (core.ModeSet{ProgramSeq: true}) {
		t.Fatal("ladder order changed")
	}
	if last.MeanLen*10 >= res.Rows[1].MeanLen {
		t.Errorf("program_seq mean span %v not << fd_stage %v", last.MeanLen, res.Rows[1].MeanLen)
	}
}
