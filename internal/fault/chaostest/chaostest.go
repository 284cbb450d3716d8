// Package chaostest is the chaos-replay harness: it sweeps
// fault-injection seeds over a compiled benchmark and asserts the chaos
// invariants on every run — the replay terminates without panicking,
// the virtual clock stays monotonic, and the outcome (semantic error
// count, fault counters, elapsed virtual time, exported trace) is
// exactly reproducible for a given seed. The harness is what `artc
// chaos` and the CI chaos lane run; keeping it as a library lets tests
// drive the same invariants in-process.
//
// Panic capture is best-effort: a panic on the driver goroutine (setup,
// report assembly) is converted into a violation, while a panic on a
// simulated thread crashes the process — which CI reports as a failed
// lane, so the invariant still gates merges.
package chaostest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"rootreplay/internal/artc"
	"rootreplay/internal/fault"
	"rootreplay/internal/magritte"
	"rootreplay/internal/obs"
	"rootreplay/internal/par"
)

// Options configures a chaos run. The benchmark is compiled once by the
// caller and shared across seeds; each seed gets its own kernel, target
// stack, and injector.
type Options struct {
	// Bench is the compiled benchmark to replay.
	Bench *artc.Benchmark
	// Spec is the replay every seed runs — target, engine, slicing. Each
	// run fills in the rest: Fault is the plan template (nil means the
	// zero plan) and gets the run's seed, a nil Init becomes the Magritte
	// target rule, and Options.Obs a fresh recorder when Obs is set.
	// Every invariant, Verify's bit-reproducibility included, must hold
	// identically whichever engine Spec selects.
	Spec artc.RunSpec
	// Verify replays each seed twice and demands bit-identical results
	// (error counts, fault counters, elapsed time, and — with Obs — the
	// exported trace bytes).
	Verify bool
	// Obs records spans during each replay so Verify can compare the
	// exported Chrome trace byte-for-byte, and so single-seed runs can
	// export it.
	Obs bool
}

// DefaultPlan is the fault plan `artc chaos` flags default to and artcd
// chaos jobs run: 2% syscall faults returning EIO, 2% transient and 2%
// slow device completions, four attempts per injected failure, and a
// one-minute virtual-time stall watchdog.
func DefaultPlan() fault.Plan {
	return fault.Plan{
		Syscall:  fault.SyscallPlan{Rate: 0.02, Errno: "EIO"},
		Storage:  fault.StoragePlan{ErrorRate: 0.02, SlowRate: 0.02},
		Retry:    fault.RetryPlan{MaxAttempts: 4},
		Watchdog: time.Minute,
	}
}

// Result is one seed's outcome. An empty Violations slice means every
// invariant held.
type Result struct {
	Seed    uint64
	Errors  int
	Elapsed time.Duration
	Stats   fault.Stats
	// Violations describes every invariant that failed for this seed.
	Violations []string
}

// OK reports whether the seed upheld all invariants.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

// String renders a one-line per-seed summary.
func (r *Result) String() string {
	s := fmt.Sprintf("seed %d: errors=%d elapsed=%v %v", r.Seed, r.Errors, r.Elapsed, r.Stats)
	if !r.OK() {
		s += fmt.Sprintf(" VIOLATIONS=%d", len(r.Violations))
	}
	return s
}

// Seeds returns the n consecutive seeds starting at base, the sweep's
// default seed schedule.
func Seeds(base uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = base + uint64(i)
	}
	return out
}

// Sweep runs every seed (in parallel across cores; each run is its own
// simulation) and returns index-aligned results. Invariant failures are
// reported per-seed in Result.Violations, not as an error.
func Sweep(opts Options, seeds []uint64) []Result {
	results := make([]Result, len(seeds))
	par.ForEach(len(seeds), func(i int) error {
		results[i], _ = RunSeed(opts, seeds[i])
		return nil
	})
	return results
}

// RunSeed replays one seed, checking invariants (twice, when Verify is
// set). The returned recorder is the first run's span recorder when
// Obs is set, for export.
func RunSeed(opts Options, seed uint64) (Result, *obs.Recorder) {
	res := Result{Seed: seed}
	repA, recA, viol := replayOnce(opts, seed)
	res.Violations = append(res.Violations, viol...)
	if repA == nil {
		return res, recA
	}
	res.Errors, res.Elapsed = repA.Errors, repA.Elapsed
	if repA.FaultStats != nil {
		res.Stats = *repA.FaultStats
	}
	if !opts.Verify {
		return res, recA
	}

	repB, recB, viol := replayOnce(opts, seed)
	res.Violations = append(res.Violations, viol...)
	if repB == nil {
		return res, recA
	}
	if repA.Errors != repB.Errors {
		res.Violations = append(res.Violations,
			fmt.Sprintf("error count not reproducible: %d vs %d", repA.Errors, repB.Errors))
	}
	sb := fault.Stats{}
	if repB.FaultStats != nil {
		sb = *repB.FaultStats
	}
	if res.Stats != sb {
		res.Violations = append(res.Violations,
			fmt.Sprintf("fault counters not reproducible: %v vs %v", res.Stats, sb))
	}
	if repA.Elapsed != repB.Elapsed {
		res.Violations = append(res.Violations,
			fmt.Sprintf("elapsed time not reproducible: %v vs %v", repA.Elapsed, repB.Elapsed))
	}
	if recA != nil && recB != nil {
		res.Violations = append(res.Violations, exportViolations(recA, recB)...)
	}
	return res, recA
}

// exportViolations compares the two runs' exported traces. An export
// that fails to encode was never compared, so it is a violation too, not
// a pass.
func exportViolations(recA, recB *obs.Recorder) []string {
	var a, b bytes.Buffer
	if err := recA.WriteChrome(&a); err != nil {
		return []string{fmt.Sprintf("trace export failed, reproducibility unchecked: %v", err)}
	}
	if err := recB.WriteChrome(&b); err != nil {
		return []string{fmt.Sprintf("trace export of the verify run failed, reproducibility unchecked: %v", err)}
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return []string{fmt.Sprintf("exported trace not reproducible: %d vs %d bytes", a.Len(), b.Len())}
	}
	return nil
}

// replayOnce is one full kernel + stack + replay cycle for the seed.
func replayOnce(opts Options, seed uint64) (rep *artc.Report, rec *obs.Recorder, violations []string) {
	defer func() {
		if r := recover(); r != nil {
			rep = nil
			violations = append(violations, fmt.Sprintf("panic: %v", r))
		}
	}()
	// Every machine — the serial one or each component replica — gets
	// its own injector built from the seeded plan; decisions are keyed by
	// global action index, so sharded results match the serial replayer's.
	spec := opts.Spec
	var plan fault.Plan
	if spec.Fault != nil {
		plan = *spec.Fault
	}
	plan.Seed = seed
	spec.Fault = &plan
	if spec.Init == nil {
		spec.Init = magritte.TargetInit(opts.Bench, true)
	}
	if opts.Obs {
		// One span per action: an export holds every span, where the
		// default ring would keep only the newest DefaultSpanCap.
		rec = obs.NewRecorder(len(opts.Bench.Trace.Records), 0)
		spec.Options.Obs = rec
	}
	r, _, err := artc.Run(opts.Bench, spec)
	if errors.Is(err, artc.ErrInit) {
		return nil, rec, append(violations, fmt.Sprintf("init: %v", err))
	}
	if err != nil {
		// A stall report or kernel deadlock under random faults means
		// the replayer failed to degrade gracefully.
		return nil, rec, append(violations, fmt.Sprintf("replay did not terminate cleanly: %v", err))
	}
	violations = append(violations, clockViolations(r)...)
	return r, rec, violations
}

// clockViolations checks the monotonic virtual-clock invariant on a
// completed replay: every action issues at or after time zero,
// completes at or after it issued, and none completes after the
// reported elapsed time.
func clockViolations(r *artc.Report) []string {
	var out []string
	var last time.Duration
	for i := range r.DoneAt {
		if r.IssueAt[i] < 0 || r.DoneAt[i] < r.IssueAt[i] {
			out = append(out, fmt.Sprintf(
				"action %d: non-monotonic clock (issue %v, done %v)", i, r.IssueAt[i], r.DoneAt[i]))
			break
		}
		if r.DoneAt[i] > last {
			last = r.DoneAt[i]
		}
	}
	if last > r.Elapsed {
		out = append(out, fmt.Sprintf(
			"latest completion %v after reported elapsed %v", last, r.Elapsed))
	}
	return out
}

// WriteExport writes the seed's outcome as one deterministic JSON
// document: seed, error count, elapsed virtual time, fault counters,
// and — when a recorder is given — the Chrome trace export. Two runs of
// the same (benchmark, plan, seed) must produce identical bytes; the CI
// chaos lane compares exactly this.
func WriteExport(w io.Writer, res *Result, rec *obs.Recorder) error {
	stats, err := json.Marshal(res.Stats)
	if err != nil {
		return err
	}
	viol, err := json.Marshal(res.Violations)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "{\"seed\":%d,\"errors\":%d,\"elapsed_ns\":%d,\"stats\":%s,\"violations\":%s",
		res.Seed, res.Errors, res.Elapsed.Nanoseconds(), stats, viol); err != nil {
		return err
	}
	if rec != nil {
		if _, err := io.WriteString(w, ",\"chrome\":"); err != nil {
			return err
		}
		if err := rec.WriteChrome(w); err != nil {
			return err
		}
	}
	_, err = io.WriteString(w, "}\n")
	return err
}
