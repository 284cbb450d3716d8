package artc

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"rootreplay/internal/core"
	"rootreplay/internal/fault"
	"rootreplay/internal/obs"
	"rootreplay/internal/sim"
	"rootreplay/internal/snapshot"
	"rootreplay/internal/stack"
	"rootreplay/internal/storage"
	"rootreplay/internal/trace"
	"rootreplay/internal/vfs"
)

// Method selects a replay ordering strategy (§5's four competitors).
type Method string

// Replay methods.
const (
	MethodARTC          Method = "artc"
	MethodSingle        Method = "single"
	MethodTemporal      Method = "temporal"
	MethodUnconstrained Method = "unconstrained"
)

// Speed selects how traced inter-call gaps (predelay) are reproduced.
type Speed int

// Speeds.
const (
	// AFAP ignores predelay: as fast as possible.
	AFAP Speed = iota
	// Natural sleeps each action's traced predelay before issuing it.
	Natural
	// Scaled sleeps a multiple of the traced predelay.
	Scaled
)

// Options configure a replay.
type Options struct {
	Method Method
	Speed  Speed
	// Scale multiplies predelay when Speed == Scaled.
	Scale float64
	// Prefix places the replayed tree under a directory (initialization
	// must have used the same prefix).
	Prefix string
	// FullFsyncOnOSX chooses strict durability when emulating a Linux
	// trace's fsync on an OS X target: F_FULLFSYNC instead of plain
	// fsync (§4.3.4).
	FullFsyncOnOSX bool
	// MaxErrorSamples bounds the retained mismatch descriptions. Zero
	// selects the default of 10 (callers cannot disable retention by
	// leaving the field unset); a negative value retains none.
	MaxErrorSamples int
	// SelfCheck re-validates the executed order against the dependency
	// graph after replay (a replayer assertion, cheap and on by default
	// in tests).
	SelfCheck bool
	// Modes, when non-nil, overrides the benchmark's compiled mode set
	// for this replay: the dependency graph is rebuilt from the existing
	// analysis, so individual ordering constraints can be toggled
	// without recompiling (§4.1 "Flexibility"). Only meaningful with
	// MethodARTC.
	Modes *core.ModeSet
	// Obs, when non-nil, receives per-action spans and kernel/stack
	// counter samples during the replay. Off by default; the disabled
	// path costs one pointer check per action.
	Obs *obs.Recorder
	// ObsInterval is the minimum virtual time between counter-probe
	// sweeps; non-positive selects obs.DefaultProbeInterval. Only
	// meaningful with Obs set.
	ObsInterval time.Duration
	// Fault, when non-nil, applies the injector's plan to the replay:
	// selected actions return injected errors (feeding the semantic
	// error accounting), injected failures are retried with capped
	// backoff in virtual time, the stall watchdog converts silent hangs
	// into structured StallReports, and the degrade mode decides between
	// skip-and-count and abort. Pass the same injector in the target's
	// stack.Config.Faults so storage and syscall counters share one
	// fault.Stats. Nil costs one pointer check per action.
	Fault *fault.Injector
}

// Report is the replayer's detailed output (§4.3.3): wall-clock time,
// semantic-accuracy counts, per-call and per-thread timing, and the
// concurrency achieved.
type Report struct {
	Method  Method
	Actions int
	// Elapsed is the virtual wall-clock duration of the replay.
	Elapsed time.Duration
	// Errors counts semantic mismatches: calls whose success/failure or
	// errno differed from the trace.
	Errors int
	// ErrorSamples holds the first few mismatch descriptions.
	ErrorSamples []string
	// Emulated counts calls replayed through the cross-platform
	// emulation layer.
	Emulated int
	// IssueAt and DoneAt record each action's issue and completion
	// times, relative to replay start.
	IssueAt, DoneAt []time.Duration
	// CallTime and CallCount aggregate replay in-call time by call name.
	CallTime  map[string]time.Duration
	CallCount map[string]int64
	// ThreadTime is total in-call time across replay threads; dividing
	// by Elapsed gives the mean number of outstanding calls, the
	// concurrency measure of Figure 9.
	ThreadTime time.Duration
	// PerThread is each traced thread's total in-call time.
	PerThread map[int]time.Duration
	// Graph summarizes the dependency structure replay enforced.
	Graph core.GraphStats
	// FaultStats snapshots the fault injector's counters at the end of
	// the replay (nil when no injector was configured).
	FaultStats *fault.Stats

	// Coord holds the clock-exchange coordinator's wait accounting for
	// sharded replays (nil for serial replays or cross-edge-free plans).
	// Excluded from JSON so sharded exports stay byte-identical to
	// serial ones.
	Coord *CoordStats `json:"-"`

	// graph retains the enforced dependency graph for post-hoc analysis
	// (CriticalPath); unexported so reports stay JSON-light.
	graph *core.Graph
}

// Concurrency returns the mean number of outstanding system calls
// during the replay.
func (r *Report) Concurrency() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.ThreadTime) / float64(r.Elapsed)
}

// CriticalPath computes the replay's longest dependency chain from the
// recorded per-action times and the enforced graph. b must be the
// benchmark the report came from.
func (r *Report) CriticalPath(b *Benchmark) *obs.CriticalPath {
	if r.graph == nil {
		return &obs.CriticalPath{}
	}
	return obs.Critical(r.graph, b.Trace.Records, r.IssueAt, r.DoneAt)
}

// BlockedAction is one not-yet-completed action in a StallReport, with
// the replayer's explanation of what it is waiting for.
type BlockedAction struct {
	Action int
	TID    int
	Call   string
	Path   string
	// Reason is the wait description: the unsatisfied dependency (with
	// the first genuinely-unsatisfied edge named) for an action parked
	// on the graph, or "in call" for one stuck inside the stack.
	Reason string
}

// String renders the blocked action one line.
func (b BlockedAction) String() string {
	return fmt.Sprintf("action %d [T%d] %s(%s): %s", b.Action, b.TID, b.Call, b.Path, b.Reason)
}

// maxStallBlocked bounds a StallReport's blocked-action list; the rest
// are counted in Truncated.
const maxStallBlocked = 32

// StallReport is the structured error a fault-injected replay returns
// when the stall watchdog fires without progress or the degrade-abort
// error budget is exhausted: which actions were stuck and why, plus the
// critical path of the completed prefix when observability was on. It
// converts a silent hang into an actionable deadlock report.
type StallReport struct {
	// Trigger is "watchdog" or "error-budget".
	Trigger string
	// At is the virtual time of the abort, relative to replay start;
	// Window is the watchdog interval that elapsed without progress
	// (zero for error-budget aborts).
	At, Window time.Duration
	// Completed of Total actions had finished; Errors semantic
	// mismatches had accumulated.
	Completed, Total int
	Errors           int
	// Blocked lists stuck actions with wait reasons (capped at
	// maxStallBlocked; Truncated counts the omitted remainder).
	Blocked   []BlockedAction
	Truncated int
	// Crit is the critical path over the completed prefix, attached when
	// the replay ran with Options.Obs set.
	Crit *obs.CriticalPath
}

// Error implements the error interface with a one-paragraph summary
// naming every reported blocked action and its wait reason.
func (s *StallReport) Error() string {
	msg := fmt.Sprintf("artc: replay stalled (%s) at %v: %d/%d actions done, %d error(s), %d blocked",
		s.Trigger, s.At, s.Completed, s.Total, s.Errors, len(s.Blocked)+s.Truncated)
	for _, b := range s.Blocked {
		msg += "; " + b.String()
	}
	if s.Truncated > 0 {
		msg += fmt.Sprintf("; ... %d more", s.Truncated)
	}
	return msg
}

// Init restores the benchmark's initial snapshot into sys under prefix.
func Init(sys *stack.System, b *Benchmark, prefix string) error {
	return snapshot.Restore(sys, prefix, b.Snapshot)
}

// DeltaInit restores the snapshot with minimal work after a prior
// replay.
func DeltaInit(sys *stack.System, b *Benchmark, prefix string) (snapshot.DeltaStats, error) {
	return snapshot.DeltaRestore(sys, prefix, b.Snapshot)
}

// replayState is the shared bookkeeping the replay threads use.
type replayState struct {
	sys  *stack.System
	b    *Benchmark
	opts Options
	g    *core.Graph

	// remaining[i] counts action i's unsatisfied dependency edges: it
	// starts at the graph indegree and is decremented once per edge when
	// the edge's From issues (WaitIssue) or completes (WaitComplete).
	// The decrement that reaches zero unparks waiting[i] exactly once, so
	// a blocked action wakes once instead of re-scanning its dependency
	// list on every predecessor broadcast.
	remaining []int32
	issueAt   []time.Duration
	doneAt    []time.Duration
	// status tracks each action's lifecycle explicitly (actIssued,
	// actDone bits). issueAt/doneAt alone cannot distinguish "not yet
	// issued" from "legitimately issued at virtual time 0".
	status []uint8
	// waiting[i] is action i's replay thread while it is parked on the
	// dependency counter, nil otherwise. Registering the thread directly
	// and using the kernel's pooled park/unpark path replaces a lazily
	// allocated sim.Cond per blocked action.
	waiting []*sim.Thread
	// hot holds the per-action plans interned before replay (see
	// hotTables); native[c] says whether call slot c is on the target's
	// native surface. remap[s] is the replay-time value of resource slot
	// s — the descriptor number or AIOCB id the target handed out where
	// the trace saw another — or unmapped. Traced numbers map through the
	// resource identity (name@generation), so descriptors that shared a
	// number in the trace can coexist during replay (§4.2).
	hot    *hotTables
	native []bool
	remap  []int64
	tot    totals
	start  time.Duration

	// Observability (all nil/empty when opts.Obs is nil). releasedEdge[i]
	// is the graph edge whose satisfaction zeroed remaining[i] (-1 if the
	// action never had dependencies outstanding); releasedAt[i] is when.
	obs          *obs.Recorder
	releasedEdge []int32
	releasedAt   []time.Duration
	obsDetach    func()

	// Fault injection (all nil/zero when opts.Fault is nil). completed
	// counts finished actions — the watchdog's progress signal;
	// lastProgress is the count at the previous watchdog fire; stall is
	// set (and the kernel stopped) when the watchdog fires without
	// progress or the degrade-abort budget is exhausted.
	inj          *fault.Injector
	completed    int
	lastProgress int
	watchdog     *sim.Timer
	stall        *StallReport

	// sub is set when this state replays one component of a sharded
	// replay (see sharded.go); nil for a whole-benchmark replay. All
	// shard-specific work hides behind this one pointer check.
	sub *subState

	// sampleAt records, parallel to rep.ErrorSamples, each sample's
	// completion time — the sharded merge key. Only filled when sub is
	// set; the serial path leaves it nil.
	sampleAt []time.Duration

	rep *Report
}

// gi maps a state-local action index to its trace-global index. For a
// whole-benchmark replay they are the same; for a shard member the
// component's actions are renumbered densely and gi translates back for
// everything user-visible (reports, spans, samples, stall reasons,
// fault-injection keys).
func (rs *replayState) gi(idx int) int {
	if rs.sub != nil {
		return int(rs.sub.global[idx])
	}
	return idx
}

// unmapped marks a resource slot no replayed call has created yet.
const unmapped = math.MinInt64

// Action lifecycle bits in replayState.status.
const (
	actIssued uint8 = 1 << iota
	actDone
)

// Replay executes the benchmark on sys (which must already be
// initialized via Init) and runs the simulation to completion.
func Replay(sys *stack.System, b *Benchmark, opts Options) (*Report, error) {
	rs, err := start(sys, b, opts)
	if err != nil {
		return nil, err
	}
	if err := sys.K.Run(); err != nil {
		return nil, fmt.Errorf("artc: replay stalled: %w", err)
	}
	return rs.finish()
}

// ConcurrentItem pairs a benchmark with its replay options for
// ReplayConcurrent.
type ConcurrentItem struct {
	B    *Benchmark
	Opts Options
}

// ReplayConcurrent replays several benchmarks simultaneously on one
// system — the §4.3.2 scenario of browsing photos in iPhoto while
// listening to music in iTunes. Each benchmark's snapshot must have been
// restored first (overlay init: call Init once per benchmark, with
// distinct prefixes if their trees collide). Reports are returned in
// argument order.
func ReplayConcurrent(sys *stack.System, items []ConcurrentItem) ([]*Report, error) {
	states := make([]*replayState, len(items))
	for i, it := range items {
		rs, err := start(sys, it.B, it.Opts)
		if err != nil {
			return nil, fmt.Errorf("artc: benchmark %d: %w", i, err)
		}
		states[i] = rs
	}
	if err := sys.K.Run(); err != nil {
		return nil, fmt.Errorf("artc: concurrent replay stalled: %w", err)
	}
	// A watchdog or degrade abort stops the whole kernel, leaving the
	// other benchmarks incomplete: report the stall, not the incidental
	// self-check failures of its victims.
	for i, rs := range states {
		if rs.stall != nil {
			return nil, fmt.Errorf("artc: benchmark %d: %w", i, rs.stall)
		}
	}
	reports := make([]*Report, len(states))
	for i, rs := range states {
		rep, err := rs.finish()
		if err != nil {
			return nil, fmt.Errorf("artc: benchmark %d: %w", i, err)
		}
		reports[i] = rep
	}
	return reports, nil
}

// methodGraph resolves the replay method's dependency graph, defaulting
// the method in opts.
func methodGraph(b *Benchmark, opts *Options) (*core.Graph, error) {
	switch opts.Method {
	case MethodARTC, "":
		opts.Method = MethodARTC
		g := b.Graph
		if opts.Modes != nil {
			g = b.GraphFor(*opts.Modes)
		}
		return g, nil
	case MethodTemporal:
		return core.TemporalGraph(b.Analysis), nil
	case MethodSingle, MethodUnconstrained:
		return core.UnconstrainedGraph(b.Analysis), nil
	default:
		return nil, fmt.Errorf("artc: unknown replay method %q", opts.Method)
	}
}

// start validates options, builds the method's graph, and spawns the
// replay threads; the caller runs the kernel and then calls finish.
func start(sys *stack.System, b *Benchmark, opts Options) (*replayState, error) {
	if opts.MaxErrorSamples == 0 {
		opts.MaxErrorSamples = 10
	}
	g, err := methodGraph(b, &opts)
	if err != nil {
		return nil, err
	}
	rs := newReplayState(sys, b, opts, g)
	rs.spawnThreads()
	return rs, nil
}

// newReplayState builds the replay bookkeeping for one benchmark on one
// system: dependency counters, observability probes, and the fault
// watchdog. opts must already have MaxErrorSamples normalized and the
// method defaulted (see start).
func newReplayState(sys *stack.System, b *Benchmark, opts Options, g *core.Graph) *replayState {
	n := len(b.Trace.Records)
	remaining := make([]int32, n)
	for i := range remaining {
		remaining[i] = int32(g.Indegree(i))
	}
	hot := b.hot()
	native := make([]bool, len(hot.calls))
	for i, c := range hot.calls {
		native[i] = stack.Native(sys.Conf.Platform, c.op)
	}
	remap := make([]int64, hot.nSlots)
	for i := range remap {
		remap[i] = unmapped
	}
	rs := &replayState{
		sys:       sys,
		b:         b,
		opts:      opts,
		g:         g,
		remaining: remaining,
		issueAt:   make([]time.Duration, n),
		doneAt:    make([]time.Duration, n),
		status:    make([]uint8, n),
		waiting:   make([]*sim.Thread, n),
		hot:       hot,
		native:    native,
		remap:     remap,
		tot:       newTotals(hot),
		start:     sys.K.Now(),
		rep: &Report{
			Method:  opts.Method,
			Actions: n,
			IssueAt: make([]time.Duration, n),
			DoneAt:  make([]time.Duration, n),
			graph:   g,
		},
	}

	if opts.Obs != nil {
		rs.obs = opts.Obs
		rs.releasedEdge = make([]int32, n)
		for i := range rs.releasedEdge {
			rs.releasedEdge[i] = -1
		}
		rs.releasedAt = make([]time.Duration, n)
		probes := []obs.Probe{
			{Kind: obs.CounterRunq, Fn: func() float64 { return float64(sys.K.RunqLen()) }},
		}
		if sys.Sched != nil {
			probes = append(probes,
				obs.Probe{Kind: obs.CounterIOQueued, Fn: func() float64 {
					return float64(sys.Sched.Outstanding() - sys.Sched.InFlight())
				}},
				obs.Probe{Kind: obs.CounterIOInflight, Fn: func() float64 {
					return float64(sys.Sched.InFlight())
				}})
		}
		if sys.Dev != nil {
			// Windowed utilization: busy-time delta over the virtual time
			// since the previous sweep, in percent.
			par := sys.Dev.Parallelism()
			lastBusy := sys.Dev.Stats().BusyTime
			lastAt := sys.K.Now()
			probes = append(probes, obs.Probe{Kind: obs.CounterDevUtil, Fn: func() float64 {
				now := sys.K.Now()
				busy := sys.Dev.Stats().BusyTime
				u := storage.Stats{BusyTime: busy - lastBusy}.Util(now-lastAt, par)
				lastBusy, lastAt = busy, now
				return u * 100
			}})
		}
		rs.obsDetach = rs.obs.InstallProbes(sys.K, opts.ObsInterval, probes...)
	}

	if opts.Fault != nil {
		rs.inj = opts.Fault
		if wd := rs.inj.Watchdog(); wd > 0 && n > 0 {
			// The watchdog fires every wd of virtual time; a fire that
			// sees no completions since the previous one declares the
			// replay stalled, records the structured report, and stops
			// the kernel. Once every action is done it simply does not
			// re-arm. lastProgress starts at -1 so the first fire always
			// records a baseline rather than stalling; detection latency
			// is therefore at most two windows.
			rs.lastProgress = -1
			rs.watchdog = sys.K.NewTimer(func() {
				switch {
				case rs.completed >= n:
				case rs.completed == rs.lastProgress:
					rs.stall = rs.buildStall("watchdog")
					rs.sys.K.Stop()
				default:
					rs.lastProgress = rs.completed
					rs.watchdog.Reset(wd)
				}
			})
			rs.watchdog.Reset(wd)
		}
	}
	return rs
}

// spawnThreads creates the replay threads: one per traced thread (in TID
// order), or a single thread for MethodSingle.
func (rs *replayState) spawnThreads() {
	n := len(rs.b.Trace.Records)
	if rs.opts.Method == MethodSingle {
		rs.sys.K.Spawn("replay-single", func(t *sim.Thread) {
			for i := 0; i < n; i++ {
				rs.playAction(t, i)
			}
		})
		return
	}
	// Each thread's actions, in trace order, carved from one slab.
	counts := make([]int, len(rs.hot.tids))
	for i := range rs.hot.acts {
		counts[rs.hot.acts[i].thread]++
	}
	slab := make([]int32, n)
	byThread := make([][]int32, len(counts))
	for ts, c := range counts {
		byThread[ts], slab = slab[:0:c], slab[c:]
	}
	for i := range rs.hot.acts {
		ts := rs.hot.acts[i].thread
		byThread[ts] = append(byThread[ts], int32(i))
	}
	for ts, tid := range rs.hot.tids {
		actions := byThread[ts]
		if len(actions) == 0 {
			continue // a shard that holds none of this thread
		}
		rs.sys.K.Spawn(fmt.Sprintf("replay-T%d", tid), func(t *sim.Thread) {
			for _, idx := range actions {
				rs.playAction(t, int(idx))
			}
		})
	}
}

// buildStall assembles the structured stall report: every action that
// has not completed, with its wait reason, plus the critical path of
// the completed prefix when observability is on.
func (rs *replayState) buildStall(trigger string) *StallReport {
	s := &StallReport{
		Trigger:   trigger,
		At:        rs.sys.K.Now() - rs.start,
		Completed: rs.completed,
		Total:     len(rs.b.Trace.Records),
		Errors:    rs.rep.Errors,
	}
	if trigger == "watchdog" && rs.inj != nil {
		s.Window = rs.inj.Watchdog()
	}
	for i := range rs.status {
		if rs.status[i]&actDone != 0 {
			continue
		}
		rec := rs.b.Trace.Records[i]
		ba := BlockedAction{Action: rs.gi(i), TID: rec.TID, Call: rec.Call, Path: rec.Path}
		switch {
		case rs.waiting[i] != nil:
			ba.Reason = rs.waitReason(i)
		case rs.sub != nil && rs.sub.crossWaitEdge[i] >= 0:
			// Parked on a clock-exchange barrier: name the peer shard and
			// edge rather than reporting a spurious local deadlock.
			ba.Reason = rs.sub.crossReason(i)
		case rs.status[i]&actIssued != 0:
			ba.Reason = "in call"
		default:
			// Not yet reached by its replay thread; its turn never came,
			// which the blocked actions ahead of it already explain.
			continue
		}
		if len(s.Blocked) >= maxStallBlocked {
			s.Truncated++
			continue
		}
		s.Blocked = append(s.Blocked, ba)
	}
	if rs.obs != nil {
		s.Crit = obs.Critical(rs.g, rs.b.Trace.Records, rs.issueAt, rs.doneAt)
	}
	return s
}

// finishSub tears down the replay machinery after the simulation has
// run and reports a stall. It is all a member of a sharded replay does:
// the merge reads the raw state instead of a report.
func (rs *replayState) finishSub() error {
	if rs.watchdog != nil {
		rs.watchdog.Stop()
		rs.watchdog = nil
	}
	if rs.obsDetach != nil {
		rs.obsDetach()
		rs.obsDetach = nil
	}
	if rs.stall != nil {
		return rs.stall
	}
	return nil
}

// finish assembles the serial replay's report.
func (rs *replayState) finish() (*Report, error) {
	if err := rs.finishSub(); err != nil {
		return nil, err
	}
	rs.finishReport()
	if rs.opts.SelfCheck {
		if err := rs.g.ValidateOrder(rs.issueAt, rs.doneAt); err != nil {
			return nil, fmt.Errorf("artc: self-check failed: %w", err)
		}
	}
	return rs.rep, nil
}

// depSatisfied records that edge ei (one of To's dependency edges) is
// satisfied; the decrement that empties the counter wakes To's replay
// thread, if it is already parked on the action. A counter driven
// negative means the graph's Indegree disagrees with its edge list — a
// construction bug that would otherwise surface as a silent ordering
// violation, so it panics instead.
func (rs *replayState) depSatisfied(ei int32) {
	e := &rs.g.Edges[ei]
	to := e.To
	rs.remaining[to]--
	switch {
	case rs.remaining[to] == 0:
		if rs.obs != nil {
			rs.releasedEdge[to] = ei
			rs.releasedAt[to] = rs.sys.K.Now() - rs.start
		}
		if w := rs.waiting[to]; w != nil {
			rs.sys.K.Unpark(w)
		}
	case rs.remaining[to] < 0:
		panic(fmt.Sprintf(
			"artc: dependency counter underflow on action %d (edge %d->%d satisfied after count reached zero): malformed graph",
			to, e.From, to))
	}
}

// waitReason describes why action idx is blocked; it is only rendered
// for deadlock reports, never on the replay fast path. It names the
// first genuinely unsatisfied dependency edge, judged by the
// predecessor's explicit lifecycle bits — issueAt/doneAt times cannot
// be used here because an action legitimately issued at virtual time 0
// is indistinguishable from one that never ran.
func (rs *replayState) waitReason(idx int) string {
	for _, ei := range rs.g.Deps(idx) {
		e := rs.g.Edges[ei]
		sat := rs.status[e.From]&actDone != 0
		if e.Kind == core.WaitIssue {
			sat = rs.status[e.From]&actIssued != 0
		}
		if !sat {
			return fmt.Sprintf("action %d: %d dep(s) left, e.g. on action %d (%s)",
				rs.gi(idx), rs.remaining[idx], rs.gi(e.From), e.Res)
		}
	}
	return fmt.Sprintf("action %d: %d dep(s) left", rs.gi(idx), rs.remaining[idx])
}

// playAction waits for the action's dependency count to drain, applies
// predelay, and executes it, releasing successor edges at issue and
// completion.
func (rs *replayState) playAction(t *sim.Thread, idx int) {
	if rs.sub != nil {
		// A sliced-off thread predecessor must complete before this
		// action even begins its wait: the serial replayer's thread
		// would not have arrived here yet. Runs before the wait-start
		// sample so sliced spans open at the serial instant.
		rs.sub.waitThreadPrev(t, idx)
	}
	var waitStart time.Duration
	if rs.obs != nil {
		waitStart = rs.sys.K.Now() - rs.start
	}
	if rs.remaining[idx] > 0 {
		rs.waiting[idx] = t
		for rs.remaining[idx] > 0 {
			t.ParkFn(func() string { return rs.waitReason(idx) })
		}
		rs.waiting[idx] = nil
	}
	if rs.sub != nil {
		rs.sub.waitCross(t, idx)
	}
	var slept time.Duration
	switch rs.opts.Speed {
	case Natural:
		slept = rs.hot.predelay[idx]
		t.Sleep(slept)
	case Scaled:
		slept = time.Duration(float64(rs.hot.predelay[idx]) * rs.opts.Scale)
		t.Sleep(slept)
	}
	now := rs.sys.K.Now()
	rs.issueAt[idx] = now - rs.start
	rs.status[idx] |= actIssued
	for _, ei := range rs.g.Succs(idx) {
		if rs.g.Edges[ei].Kind == core.WaitIssue {
			rs.depSatisfied(ei)
		}
	}
	if rs.sub != nil {
		rs.sub.publishCross(idx, core.WaitIssue, now)
	}

	ret, errno, emulated, injected := rs.execute(t, idx, 0)
	if rs.inj != nil && injected && errno != vfs.OK && rs.b.Trace.Records[idx].OK() {
		// The failure was injected and the trace expected success: retry
		// with capped exponential backoff in virtual time. Each attempt
		// re-decides injection independently (transient faults), and a
		// genuine model failure on a retry ends the loop.
		for attempt := 1; attempt < rs.inj.RetryAttempts(); attempt++ {
			rs.inj.CountRetry()
			t.Sleep(rs.inj.Backoff(attempt))
			ret, errno, emulated, injected = rs.execute(t, idx, attempt)
			if errno == vfs.OK || !injected {
				break
			}
		}
		if errno == vfs.OK {
			rs.inj.CountRecovered()
		}
	}

	end := rs.sys.K.Now()
	rs.doneAt[idx] = end - rs.start
	rs.status[idx] |= actDone
	rs.completed++
	for _, ei := range rs.g.Succs(idx) {
		if rs.g.Edges[ei].Kind == core.WaitComplete {
			rs.depSatisfied(ei)
		}
	}
	if rs.sub != nil {
		rs.sub.publishCross(idx, core.WaitComplete, end)
	}

	rec := rs.b.Trace.Records[idx]
	ha := &rs.hot.acts[idx]
	d := end - now
	rs.tot.callTime[ha.call] += d
	rs.tot.callCount[ha.call]++
	rs.tot.threadTime[ha.thread] += d
	rs.tot.threadActs[ha.thread]++
	rs.rep.ThreadTime += d
	if emulated {
		rs.rep.Emulated++
	}
	if rs.obs != nil {
		sp := obs.Span{
			Action:     int32(rs.gi(idx)),
			TID:        int32(rec.TID),
			Call:       rec.Call,
			WaitStart:  waitStart,
			Issue:      rs.issueAt[idx],
			Done:       rs.doneAt[idx],
			Predelay:   slept,
			ReleasedBy: -1,
		}
		if rs.sub != nil {
			sp.Shard = rs.sub.orig
			rs.sub.fillReleasedBy(rs, idx, &sp)
		} else if re := rs.releasedEdge[idx]; re >= 0 {
			e := &rs.g.Edges[re]
			sp.ReleasedBy = int32(e.From)
			sp.ReleasedAt = rs.releasedAt[idx]
			if e.Res != (core.ResourceID{}) {
				sp.ReleaseRes = e.Res.String()
			}
		}
		rs.obs.Record(sp)
	}
	if mismatched := rs.compare(idx, rec, ret, errno); mismatched && rs.inj != nil {
		if injected {
			// An injected failure survived the retry budget: in skip
			// mode it is counted and the replay degrades gracefully.
			rs.inj.CountSkipped()
		}
		if mode, budget := rs.inj.Degrade(); mode == fault.DegradeAbort &&
			rs.rep.Errors > budget && rs.stall == nil {
			rs.stall = rs.buildStall("error-budget")
			rs.sys.K.Stop()
		}
	}
}

// compare records a semantic mismatch between the traced and replayed
// outcome of an action, reporting whether one occurred.
func (rs *replayState) compare(idx int, rec *trace.Record, ret int64, errno vfs.Errno) bool {
	tracedOK := rec.OK()
	replayOK := errno == vfs.OK
	mismatch := ""
	switch {
	case tracedOK && !replayOK:
		mismatch = fmt.Sprintf("traced success, replay failed with %v", errno)
	case !tracedOK && replayOK:
		mismatch = fmt.Sprintf("traced %s, replay succeeded", rec.Err)
	case !tracedOK && !replayOK && errno.String() != rec.Err:
		mismatch = fmt.Sprintf("traced %s, replay %v", rec.Err, errno)
	}
	if mismatch == "" {
		return false
	}
	rs.rep.Errors++
	if len(rs.rep.ErrorSamples) < rs.opts.MaxErrorSamples {
		rs.rep.ErrorSamples = append(rs.rep.ErrorSamples,
			fmt.Sprintf("action %d [T%d] %s(%s): %s", rs.gi(idx), rec.TID, rec.Call, rec.Path, mismatch))
		if rs.sub != nil {
			rs.sampleAt = append(rs.sampleAt, rs.doneAt[idx])
		}
	}
	return true
}

// finishReport fills derived fields after the simulation ends.
func (rs *replayState) finishReport() {
	var last time.Duration
	for _, d := range rs.doneAt {
		if d > last {
			last = d
		}
	}
	rs.rep.Elapsed = last
	rs.tot.render(rs.hot, rs.rep)
	copy(rs.rep.IssueAt, rs.issueAt)
	copy(rs.rep.DoneAt, rs.doneAt)
	rs.rep.Graph = rs.g.Stats(rs.b.Analysis)
	if rs.inj != nil {
		st := rs.inj.Stats()
		rs.rep.FaultStats = &st
	}
}

// actionTouches is one action's precomputed FD/AIO resource plan: the
// indices into the action's touches of the descriptor resource it uses
// and the one it creates on success (-1 = none). Compile derives it once
// per action and the binary codec stores it; buildHot resolves the
// indices to resource slots, which is what the replayer reads.
type actionTouches struct {
	fdUse, fdCreate, aioUse, aioCreate int16
}

// planOne resolves action i's touch plan from its analysis record.
func planOne(an *core.Analysis, i int) actionTouches {
	rec, touches := an.Trace.Records[i], an.Touches(i)
	p := actionTouches{fdUse: findFDTouch(an, touches, rec.FD, false), fdCreate: -1,
		aioUse: findAIOTouch(touches, false), aioCreate: -1}
	if num := createdFDNum(rec); num >= 0 {
		p.fdCreate = findFDTouch(an, touches, num, true)
	}
	switch stack.Canonical(rec.Call) {
	case "aio_read", "aio_write":
		p.aioCreate = findAIOTouch(touches, true)
	}
	return p
}

// planTouches precomputes every action's touch plan.
func planTouches(an *core.Analysis) []actionTouches {
	out := make([]actionTouches, len(an.Actions))
	for i := range an.Actions {
		out[i] = planOne(an, i)
	}
	return out
}

// createdFDNum returns the traced descriptor number a record creates on
// success, or -1 if the call creates none.
func createdFDNum(rec *trace.Record) int64 {
	switch stack.Canonical(rec.Call) {
	case "open", "creat", "dup":
		return rec.Ret
	case "dup2":
		return rec.FD2
	case "fcntl":
		if rec.Name == "F_DUPFD" {
			return rec.Ret
		}
	}
	return -1
}

// findFDTouch locates the fd resource an action references with the
// given number and role class, returning its touch index or -1. Only a
// descriptor touch of the right role has its name read from the
// resource table.
func findFDTouch(an *core.Analysis, touches []core.Touch, num int64, create bool) int16 {
	name := strconv.FormatInt(num, 10)
	for ti, tc := range touches {
		if tc.Kind == core.KFD && create == (tc.Role == core.RoleCreate) && an.Resources[tc.Idx].Name == name {
			return int16(ti)
		}
	}
	return -1
}

func findAIOTouch(touches []core.Touch, create bool) int16 {
	for ti, tc := range touches {
		if tc.Kind == core.KAIO && create == (tc.Role == core.RoleCreate) {
			return int16(ti)
		}
	}
	return -1
}

// execute performs the given attempt of the action against the target
// system: fault injection, path prefixing, descriptor and AIOCB
// remapping, and cross-platform emulation. The final result reports
// whether the attempt's failure was injected (an injected fault
// replaces execution entirely, like a call failing in the kernel's
// entry path, so a failed attempt leaves no partial state behind).
func (rs *replayState) execute(t *sim.Thread, idx, attempt int) (int64, vfs.Errno, bool, bool) {
	an := rs.b.Analysis
	act := &an.Actions[idx]
	rec := rs.b.Trace.Records[idx]
	if rs.inj != nil {
		// Fault decisions key on the global action index so an injection
		// plan selects the same actions whether the replay is sharded or
		// serial.
		if e, ok := rs.inj.SyscallFault(rs.gi(idx), attempt, rec.Call, rec.Path); ok {
			return -1, e, false, true
		}
	}
	ha := &rs.hot.acts[idx]
	op := rs.hot.calls[ha.call].op

	// The record is shared with every other replay of the benchmark, so
	// what replay substitutes goes beside it: canonical, prefixed paths
	// and remapped identifiers.
	a := stack.Redirect{Path: rec.Path, Path2: rec.Path2, FD: rec.FD, AIO: rec.AIO}
	if act.CanonPath >= 0 {
		a.Path = rs.prefixPath(an.Paths[act.CanonPath], op == stack.OpSymlink)
	}
	if act.CanonPath2 >= 0 {
		a.Path2 = rs.prefixPath(an.Paths[act.CanonPath2], false)
	}
	if ha.fdUse >= 0 {
		if actual := rs.remap[ha.fdUse]; actual != unmapped {
			a.FD = actual
		}
	}
	if ha.aioUse >= 0 {
		if actual := rs.remap[ha.aioUse]; actual != unmapped {
			a.AIO = actual
		}
	}

	ret, errno, emulated := rs.applyWithEmulation(t, ha, op, rec, &a)

	// Register created resources.
	if errno == vfs.OK {
		if ha.fdCreate >= 0 {
			rs.remap[ha.fdCreate] = ret
		}
		if ha.aioCreate >= 0 {
			rs.remap[ha.aioCreate] = ret
		}
	}
	return ret, errno, emulated, false
}

// prefixPath joins the replay prefix with a canonical absolute path.
// Symlink targets are prefixed only when absolute.
func (rs *replayState) prefixPath(p string, symlinkTarget bool) string {
	if rs.opts.Prefix == "" {
		return p
	}
	if symlinkTarget && len(p) > 0 && p[0] != '/' {
		return p
	}
	return rs.opts.Prefix + p
}
