package magritte

import (
	"testing"
	"time"

	"rootreplay/internal/artc"
	"rootreplay/internal/core"
	"rootreplay/internal/sim"
	"rootreplay/internal/stack"
)

func TestSpecsCount(t *testing.T) {
	if len(Specs) != 34 {
		t.Fatalf("Magritte has %d traces, want 34", len(Specs))
	}
	apps := map[string]int{}
	for _, s := range Specs {
		apps[s.App]++
	}
	want := map[string]int{"iphoto": 6, "itunes": 5, "imovie": 4, "pages": 8, "numbers": 4, "keynote": 7}
	for app, n := range want {
		if apps[app] != n {
			t.Errorf("%s has %d traces, want %d", app, apps[app], n)
		}
	}
	if _, ok := SpecByName("iphoto_edit400"); !ok {
		t.Error("SpecByName failed")
	}
	if _, ok := SpecByName("nope_zzz"); ok {
		t.Error("bogus name found")
	}
}

func TestGenerateProducesOSXTrace(t *testing.T) {
	spec, _ := SpecByName("itunes_startsmall1")
	gen, err := Generate(spec, GenOptions{Scale: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if gen.Trace.Platform != "osx" {
		t.Fatalf("platform = %s", gen.Trace.Platform)
	}
	if len(gen.Trace.Records) < 200 {
		t.Fatalf("only %d records", len(gen.Trace.Records))
	}
	// Must contain OS X-specific calls needing emulation on Linux.
	hasAttrList := false
	hasDevRandom := false
	for _, r := range gen.Trace.Records {
		if gen.Trace.Str(r.Call) == "getattrlist" {
			hasAttrList = true
		}
		if gen.Trace.Str(r.Path) == "/dev/random" {
			hasDevRandom = true
		}
	}
	if !hasAttrList {
		t.Error("no getattrlist calls in OS X trace")
	}
	if !hasDevRandom {
		t.Error("itunes startup should read /dev/random")
	}
	// Multithreaded.
	if len(gen.Trace.Threads()) < 3 {
		t.Errorf("only %d threads", len(gen.Trace.Threads()))
	}
	// Snapshot stripped of xattrs by default (iBench fidelity).
	for _, e := range gen.Snapshot.Entries {
		if len(e.Xattrs) > 0 {
			t.Fatal("snapshot retains xattr init info")
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec, _ := SpecByName("numbers_start5")
	g1, err := Generate(spec, GenOptions{Scale: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Generate(spec, GenOptions{Scale: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(g1.Trace.Records) != len(g2.Trace.Records) {
		t.Fatalf("lengths differ: %d vs %d", len(g1.Trace.Records), len(g2.Trace.Records))
	}
	for i := range g1.Trace.Records {
		a, b := g1.Trace.Records[i], g2.Trace.Records[i]
		if a.Call != b.Call || a.Path != b.Path || a.TID != b.TID || a.Ret != b.Ret {
			t.Fatalf("record %d differs: %+v vs %+v", i, a, b)
		}
	}
}

// The Table 3 shape on a handoff-heavy trace: unconstrained replay has
// orders of magnitude more semantic errors than ARTC, and ARTC's
// residual errors are exactly the missing-xattr accesses.
func TestTable3ShapeHandoffHeavy(t *testing.T) {
	spec, _ := SpecByName("iphoto_import400")
	res, err := RunOne(spec, DefaultSuiteOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.UCErrors == 0 {
		t.Error("unconstrained replay produced no errors on a handoff-heavy trace")
	}
	if res.ARTCErrors > spec.XattrMissing {
		t.Errorf("ARTC errors = %d, want <= %d (missing xattr inits)", res.ARTCErrors, spec.XattrMissing)
	}
	if res.UCErrors < 10*max(res.ARTCErrors, 1) {
		t.Errorf("UC (%d) not far worse than ARTC (%d)", res.UCErrors, res.ARTCErrors)
	}
}

// Traces without cross-thread sharing replay cleanly even unconstrained
// (the keynote_start20 row of Table 3).
func TestTable3ShapeIndependentThreads(t *testing.T) {
	spec, _ := SpecByName("keynote_start20")
	res, err := RunOne(spec, DefaultSuiteOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.ARTCErrors != 0 {
		t.Errorf("ARTC errors = %d on a no-missing-xattr trace", res.ARTCErrors)
	}
	// Not necessarily zero (shared caches dir), but small.
	if res.UCErrors > res.Events/100 {
		t.Errorf("UC errors = %d of %d events; expected near-clean", res.UCErrors, res.Events)
	}
}

func TestKeepXattrInitRemovesARTCErrors(t *testing.T) {
	spec, _ := SpecByName("pages_start15") // XattrMissing = 4
	opts := DefaultSuiteOptions()
	opts.Gen.KeepXattrInit = true
	res, err := RunOne(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.ARTCErrors != 0 {
		t.Errorf("with full xattr init, ARTC errors = %d, want 0", res.ARTCErrors)
	}
	opts.Gen.KeepXattrInit = false
	res2, err := RunOne(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.ARTCErrors == 0 {
		t.Error("without xattr init, expected residual ARTC errors")
	}
}

// The /dev/random fix: without the symlink, a Linux replay of an
// /dev/random-reading trace takes pathologically long.
func TestDevRandomSymlinkFix(t *testing.T) {
	spec, _ := SpecByName("itunes_startsmall1")
	gen, err := Generate(spec, GenOptions{Scale: 0.02, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := artc.Compile(gen.Trace, gen.Snapshot, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	elapsed := func(symlink bool) time.Duration {
		k := sim.NewKernel()
		sys := stack.New(k, DefaultSuiteOptions().Target)
		if err := InitTarget(sys, b, symlink); err != nil {
			t.Fatal(err)
		}
		rep, err := artc.Replay(sys, b, artc.Options{Method: artc.MethodARTC})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Elapsed
	}
	fixed := elapsed(true)
	broken := elapsed(false)
	if broken < 10*fixed {
		t.Fatalf("blocking /dev/random (%v) should be far slower than symlink fix (%v)", broken, fixed)
	}
}

// Figure 10 shape: SSD replays are several times faster than HDD, and on
// HDD the fsync category is a much larger share for iPhoto-family
// workloads than for Numbers-family ones.
func TestFig10Shape(t *testing.T) {
	run := func(name string, dev stack.DeviceKind) (map[string]time.Duration, time.Duration) {
		spec, ok := SpecByName(name)
		if !ok {
			t.Fatal("unknown spec")
		}
		gen, err := Generate(spec, GenOptions{Scale: 0.02, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		b, err := artc.Compile(gen.Trace, gen.Snapshot, core.DefaultModes())
		if err != nil {
			t.Fatal(err)
		}
		target := stack.Config{
			Name: "linux-" + string(dev), Platform: stack.Linux, Profile: stack.Ext4,
			Device: dev, Scheduler: stack.SchedCFQ,
		}
		byCat, total, err := ThreadTimeRun(b, target, true)
		if err != nil {
			t.Fatal(err)
		}
		return byCat, total
	}
	iphotoHDD, iphotoHDDTotal := run("iphoto_start400", stack.DeviceHDD)
	_, iphotoSSDTotal := run("iphoto_start400", stack.DeviceSSD)
	numbersHDD, numbersHDDTotal := run("numbers_start5", stack.DeviceHDD)

	if iphotoSSDTotal*2 > iphotoHDDTotal {
		t.Errorf("SSD thread-time (%v) should be well under HDD (%v)", iphotoSSDTotal, iphotoHDDTotal)
	}
	iphotoFsyncShare := float64(iphotoHDD["fsync"]) / float64(iphotoHDDTotal)
	numbersFsyncShare := float64(numbersHDD["fsync"]) / float64(numbersHDDTotal)
	if iphotoFsyncShare < 2*numbersFsyncShare {
		t.Errorf("iphoto fsync share %.2f not much larger than numbers %.2f", iphotoFsyncShare, numbersFsyncShare)
	}
	numbersReadStat := float64(numbersHDD["read"]+numbersHDD["stat"]) / float64(numbersHDDTotal)
	if numbersReadStat < 0.5 {
		t.Errorf("numbers read+stat share = %.2f, want dominant", numbersReadStat)
	}
}

func TestCategorize(t *testing.T) {
	cases := map[string]string{
		"pread64":     "read",
		"pwrite":      "write",
		"fsync":       "fsync",
		"getattrlist": "stat",
		"open":        "open/close",
		"rename":      "other",
	}
	for call, want := range cases {
		if got := categorize(call); got != want {
			t.Errorf("categorize(%s) = %s, want %s", call, got, want)
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestIMovieTracesUseAIO(t *testing.T) {
	spec, _ := SpecByName("imovie_export1")
	gen, err := Generate(spec, GenOptions{Scale: 0.05, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, r := range gen.Trace.Records {
		counts[gen.Trace.Str(r.Call)]++
	}
	for _, call := range []string{"aio_read", "aio_suspend", "aio_return"} {
		if counts[call] == 0 {
			t.Errorf("no %s calls in imovie_export1", call)
		}
	}
	// And the trace must still compile + replay cleanly with ARTC.
	res, err := RunOne(spec, DefaultSuiteOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.ARTCErrors > spec.XattrMissing {
		t.Errorf("ARTC errors = %d, want <= %d", res.ARTCErrors, spec.XattrMissing)
	}
}

// The full 34-trace suite (Table 3 end to end) at a small scale.
func TestFullMagritteSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite")
	}
	opts := DefaultSuiteOptions()
	opts.Gen.Scale = 0.004
	results, err := RunSuite(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 34 {
		t.Fatalf("results = %d", len(results))
	}
	totalUC, totalARTC := 0, 0
	for _, r := range results {
		totalUC += r.UCErrors
		totalARTC += r.ARTCErrors
		spec, _ := SpecByName(r.Name)
		if r.ARTCErrors > spec.XattrMissing+2 {
			t.Errorf("%s: ARTC errors %d exceed xattr-miss budget %d", r.Name, r.ARTCErrors, spec.XattrMissing)
		}
	}
	if totalUC < 5*totalARTC {
		t.Errorf("suite UC errors (%d) not far above ARTC (%d)", totalUC, totalARTC)
	}
}
