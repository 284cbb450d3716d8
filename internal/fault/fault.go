// Package fault is the deterministic fault-injection subsystem: seeded
// storage faults (transient errors and tail-latency spikes at device
// completion time), syscall-level injection plans for the replayer, and
// the resilience knobs the replayer consults (retry with backoff, stall
// watchdog). An action still failing after its retries is counted and
// skipped.
//
// Determinism contract: every injection decision is a pure function of
// (plan seed, site label, event index) — never of wall-clock time, host
// scheduling, or call order across sites. Two runs of the same
// simulation with the same Plan therefore inject byte-identically: the
// same storage completions are delayed or errored, the same replay
// actions fail, and every counter in Stats matches exactly. That is
// what makes a chaos failure a bug report instead of a flake: rerunning
// with the recorded seed reproduces it.
//
// An Injector is bound to one simulation (one sim.Kernel): its counters
// are bumped from kernel context and must not be shared across
// concurrently running kernels.
package fault

import (
	"fmt"
	"time"

	"rootreplay/internal/vfs"
)

// The constants of the plans: how often and how long a device retries a
// transient error, how long a slow completion is deferred, and how the
// replayer backs off between attempts of an injected failure.
const (
	// maxErrorRetries caps a device's internal retries per request, so
	// a saturated error rate cannot live-lock it.
	maxErrorRetries = 8
	// retryDelay is the virtual time before a failed request is
	// resubmitted.
	retryDelay = 500 * time.Microsecond
	// slowExtra is the added completion delay of a slow completion.
	slowExtra = 10 * time.Millisecond
	// backoff is the first replayer retry's virtual-time delay; each
	// later retry doubles it, up to backoffCap.
	backoff    = 100 * time.Microsecond
	backoffCap = 10 * time.Millisecond
)

// StoragePlan configures fault injection on one block device. Faults
// are injected at completion time: the device's elevator/slot logic has
// already serviced the request, and the fault either re-queues it (a
// transient error, retried through the full queue again) or defers its
// completion (a slow-IO tail-latency spike).
type StoragePlan struct {
	// ErrorRate is the probability a completion is turned into a
	// transient error. The device retries internally after 500µs, up to
	// 8 times per request, so upper layers observe only latency — as
	// with a real drive whose firmware retries a flaky sector.
	ErrorRate float64
	// SlowRate is the probability a completion is deferred by 10ms,
	// modelling tail-latency spikes (media retries, thermal throttling).
	SlowRate float64
}

// Enabled reports whether the plan injects anything.
func (p StoragePlan) Enabled() bool { return p.ErrorRate > 0 || p.SlowRate > 0 }

// SyscallPlan configures syscall-level injection in the replayer:
// selected replay actions return an error instead of executing, feeding
// the semantic-error accounting and exercising descriptor-table
// recovery (a failed open never registers its descriptor, so later
// calls on it miss the remap table exactly as after a real failure).
type SyscallPlan struct {
	// Rate is the per-attempt injection probability.
	Rate float64
	// Errno is the injected error's symbolic name (e.g. "EIO", the
	// default, or "ENOSPC").
	Errno string
}

// RetryPlan configures the replayer's per-action retry of injected
// failures, with capped exponential backoff in virtual time: 100µs
// before the first retry, doubling up to 10ms.
type RetryPlan struct {
	// MaxAttempts is the total number of attempts per action (1 = no
	// retry). Values above 16 are clamped.
	MaxAttempts int
}

// Plan is a complete fault-injection configuration. The zero value
// injects nothing.
type Plan struct {
	// Seed drives every injection decision. Two runs with the same seed
	// (and the same workload) inject identically.
	Seed uint64
	// Storage is the storage plan of every leaf device.
	Storage StoragePlan
	// Syscall is the replay-action injection plan.
	Syscall SyscallPlan
	// Retry configures replayer retry of injected failures.
	Retry RetryPlan
	// Watchdog, when positive, arms the replay stall watchdog: if no
	// action completes for this much virtual time, the replay is stopped
	// and a structured StallReport is returned instead of a silent hang.
	Watchdog time.Duration
}

// Stats counts injected faults and the recovery work they triggered.
// All fields are exactly reproducible for a given (plan, workload).
type Stats struct {
	// SyscallInjected counts replay-action attempts that returned an
	// injected error.
	SyscallInjected int64
	// Retries counts replayer retry attempts (after injected failures).
	Retries int64
	// Recovered counts actions that failed an attempt but matched the
	// trace after retrying.
	Recovered int64
	// Skipped counts actions still failing after the retry budget,
	// counted as semantic errors and skipped.
	Skipped int64
	// StorageErrors counts transient device errors (internally retried).
	StorageErrors int64
	// StorageSlow counts completions deferred by a tail-latency spike.
	StorageSlow int64
}

// Add folds another injector's counters into s: a sharded replay has
// one injector per replica and reports their sum.
func (s *Stats) Add(o Stats) {
	s.SyscallInjected += o.SyscallInjected
	s.Retries += o.Retries
	s.Recovered += o.Recovered
	s.Skipped += o.Skipped
	s.StorageErrors += o.StorageErrors
	s.StorageSlow += o.StorageSlow
}

// String renders the counters compactly for logs and chaos tables.
func (s Stats) String() string {
	return fmt.Sprintf("syscall=%d retries=%d recovered=%d skipped=%d dev-err=%d dev-slow=%d",
		s.SyscallInjected, s.Retries, s.Recovered, s.Skipped, s.StorageErrors, s.StorageSlow)
}

// Injector applies a Plan to one simulation. It carries the decision
// streams and the fault counters; create one per kernel (per replay)
// and share it between stack.Config.Faults and artc.Options.Fault so
// storage and syscall counters land in one Stats.
type Injector struct {
	plan    Plan
	syscall stream
	errno   vfs.Errno
	stats   Stats
}

// New builds an Injector for plan, clamping MaxAttempts. It panics on
// an unknown Syscall.Errno name so misconfigured chaos runs fail
// loudly instead of injecting the wrong error.
func New(plan Plan) *Injector {
	plan.Retry.MaxAttempts = min(plan.Retry.MaxAttempts, 16)
	in := &Injector{
		plan:    plan,
		syscall: newStream(plan.Seed, "syscall"),
		errno:   vfs.EIO,
	}
	if name := plan.Syscall.Errno; name != "" {
		e, ok := vfs.ErrnoByName(name)
		if !ok {
			panic(fmt.Sprintf("fault: unknown errno %q in syscall plan", name))
		}
		in.errno = e
	}
	return in
}

// Stats returns a snapshot of the fault counters.
func (in *Injector) Stats() Stats { return in.stats }

// SyscallFault decides whether the given attempt of a replay action
// fails, returning the injected errno. The decision depends only on
// (seed, action, attempt), so replays inject identically regardless of
// interleaving; attempts are capped at 64 per action by construction
// (RetryPlan clamps far below that).
func (in *Injector) SyscallFault(action, attempt int) (vfs.Errno, bool) {
	if !in.syscall.hit(uint64(action)<<6|uint64(attempt&63), in.plan.Syscall.Rate) {
		return vfs.OK, false
	}
	in.stats.SyscallInjected++
	return in.errno, true
}

// RetryAttempts returns the per-action attempt budget (>= 1).
func (in *Injector) RetryAttempts() int {
	if in.plan.Retry.MaxAttempts < 1 {
		return 1
	}
	return in.plan.Retry.MaxAttempts
}

// Backoff returns the virtual-time delay before the given retry
// attempt (attempt 1 = first retry): 100µs doubled per attempt, capped
// at 10ms.
func (in *Injector) Backoff(attempt int) time.Duration {
	d := backoff
	for i := 1; i < attempt && d < backoffCap; i++ {
		d *= 2
	}
	return min(d, backoffCap)
}

// CountRetry records one replayer retry attempt.
func (in *Injector) CountRetry() { in.stats.Retries++ }

// CountRecovered records an action that matched the trace after
// retrying an injected failure.
func (in *Injector) CountRecovered() { in.stats.Recovered++ }

// CountSkipped records an action still failing after its retry budget.
func (in *Injector) CountSkipped() { in.stats.Skipped++ }

// Watchdog returns the stall-watchdog interval (zero = disabled).
func (in *Injector) Watchdog() time.Duration { return in.plan.Watchdog }

// stream is a deterministic per-site decision source. It is stateless:
// decision i is a pure function of (seed, site, i), so sites never
// perturb each other and call order is irrelevant.
type stream struct{ seed uint64 }

// newStream derives a site stream from the plan seed and a label.
func newStream(seed uint64, label string) stream {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return stream{seed: mix64(seed ^ h)}
}

// hit reports whether event i fires at the given rate.
func (s stream) hit(i uint64, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	x := mix64(s.seed + i*0x9e3779b97f4a7c15)
	return float64(x>>11)/(1<<53) < rate
}

// mix64 is the splitmix64 finalizer: a strong 64-bit bijection.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
