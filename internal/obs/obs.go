// Package obs is the replayer's observability layer: a low-overhead,
// ring-buffered recorder for per-action spans and virtual-clock counter
// samples, a critical-path analysis over the enforced dependency graph,
// and exporters (Chrome trace_event JSON for Perfetto, fixed-width text
// summaries).
//
// Recording is off by default: the replayer only touches the recorder
// when one is supplied, and a nil *Recorder is a safe no-op for every
// method, so the disabled path costs a pointer check. When enabled, a
// span is stored in place: the span ring grows a fixed-size chunk at a
// time (one allocation per spanChunk spans, nothing ever copied) up to its
// capacity and allocates nothing after that; the sample ring is an
// append-grown slice, amortized rather than free until it reaches its
// capacity. When a ring fills, the oldest entries are overwritten and the
// drop is counted rather than ever blocking or growing without bound.
// A span is a 64-byte row of numbers: its call and resource names are
// indices into the recorder's name table, so the ring holds no pointer
// for the collector to scan.
//
// All times are virtual (sim-kernel) durations relative to replay start,
// so recorded data — and every export derived from it — is deterministic
// across runs and hosts.
package obs

import (
	"fmt"
	"time"

	"rootreplay/internal/sim"
)

// Name indexes a Recorder's name table (Recorder.Str reads one,
// Recorder.Intern adds one). The zero Name is the empty string.
type Name int32

// Span is one replayed action's lifecycle: when its replay thread began
// waiting to issue it, when it issued, and when it completed, plus the
// predelay sleep applied and the dependency edge whose satisfaction
// released it.
//
// A span is a row of numbers with no pointer in it: its two strings are
// Names in the recording Recorder's table, and the 4-byte fields come
// before the 8-byte ones so that the struct packs into 64 bytes.
type Span struct {
	// Action is the trace index of the action.
	Action int32
	// TID is the traced thread the action belongs to.
	TID int32
	// Call names the traced call ("open", "pread", ...).
	Call Name
	// ReleasedBy is the action whose issue/completion satisfied this
	// action's final dependency edge, or -1 if the action has no
	// dependency edge in the replayed graph.
	ReleasedBy int32
	// ReleaseRes names the resource of the satisfying edge (0, the empty
	// name, if none).
	ReleaseRes Name
	// Shard is the replay component the action executed on (0 for a
	// serial replay, which runs everything as one component).
	Shard int32
	// WaitStart is when the replay thread reached this action;
	// WaitStart..Issue covers dependency wait plus any predelay sleep.
	WaitStart time.Duration
	// Issue and Done bracket the in-call time.
	Issue, Done time.Duration
	// Predelay is the inter-call gap slept before issuing (zero under
	// AFAP replay).
	Predelay time.Duration
	// ReleasedAt is the virtual time the final dependency edge was
	// satisfied (meaningful when ReleasedBy >= 0).
	ReleasedAt time.Duration
}

// Wait returns the span's pre-issue time (dependency wait + predelay).
func (s *Span) Wait() time.Duration { return s.Issue - s.WaitStart }

// InCall returns the span's in-call service time.
func (s *Span) InCall() time.Duration { return s.Done - s.Issue }

// CounterKind identifies a sampled counter track.
type CounterKind uint8

// Counter tracks the kernel/stack probes sample.
const (
	// CounterRunq is the sim kernel's run-queue length: replay threads
	// ready to run but not running.
	CounterRunq CounterKind = iota
	// CounterIOQueued is the I/O scheduler's queued depth (submitted to
	// the scheduler, not yet dispatched to the device).
	CounterIOQueued
	// CounterIOInflight is the device's in-flight request count.
	CounterIOInflight
	// CounterDevUtil is device utilization over the sampling window, in
	// percent, normalized by device parallelism.
	CounterDevUtil
	// CounterCrossWait is a sliced replay member's cumulative virtual
	// time spent awaiting cross-slice edges, in nanoseconds. Sampled per
	// slice replica; the virtual measurement is deterministic, so the
	// track is byte-identical across hosts and GOMAXPROCS.
	CounterCrossWait

	numCounters
)

// String names the counter track as it appears in exports.
func (k CounterKind) String() string {
	switch k {
	case CounterRunq:
		return "runq"
	case CounterIOQueued:
		return "io_queued"
	case CounterIOInflight:
		return "io_inflight"
	case CounterDevUtil:
		return "dev_util_pct"
	case CounterCrossWait:
		return "cross_wait_ns"
	default:
		return fmt.Sprintf("counter_%d", uint8(k))
	}
}

// Sample is one counter observation on the virtual clock.
type Sample struct {
	At    time.Duration
	Kind  CounterKind
	Value float64
}

// Default ring capacities.
const (
	DefaultSpanCap   = 1 << 16
	DefaultSampleCap = 1 << 14
)

// spanChunk is how many spans one chunk of the span ring holds. A ring
// sized for a whole replay holds hundreds of thousands of spans; grown by
// doubling, every regrowth would copy them all.
const (
	spanChunkShift = 10
	spanChunk      = 1 << spanChunkShift
)

// Recorder collects spans and samples into bounded rings. The zero value
// is not usable; call NewRecorder. A nil *Recorder is a valid no-op
// receiver for every method.
type Recorder struct {
	// Ring position p is chunks[p>>spanChunkShift][p&(spanChunk-1)];
	// positions [0, spanLen) are in use. The chunk that reaches spanCap is
	// cut to fit.
	spanChunks [][]Span
	spanLen    int
	spanCap    int
	spanHead   int // next overwrite position once spanLen == spanCap
	spanDrop   int

	samples    []Sample
	sampleCap  int
	sampleHead int
	sampleDrop int

	// last recorded value per counter, for change-only sampling.
	lastVal   [numCounters]float64
	lastValid [numCounters]bool

	// names is the table spans' Names index; names[0] is "". ids maps
	// each name back to its index.
	names []string
	ids   map[string]Name
}

// NewRecorder returns a recorder whose span and sample rings hold at
// most the given numbers of entries; values <= 0 select the defaults.
func NewRecorder(spanCap, sampleCap int) *Recorder {
	if spanCap <= 0 {
		spanCap = DefaultSpanCap
	}
	if sampleCap <= 0 {
		sampleCap = DefaultSampleCap
	}
	return &Recorder{spanCap: spanCap, sampleCap: sampleCap, names: []string{""}, ids: make(map[string]Name)}
}

// Intern returns the Name of s in the recorder's table, adding s on
// first sight (0 for a nil recorder).
func (r *Recorder) Intern(s string) Name {
	if r == nil || s == "" {
		return 0
	}
	if n, ok := r.ids[s]; ok {
		return n
	}
	n := Name(len(r.names))
	r.names = append(r.names, s)
	r.ids[s] = n
	return n
}

// Str returns the string n names in the recorder's table.
func (r *Recorder) Str(n Name) string {
	if n == 0 {
		return ""
	}
	return r.names[n]
}

// Names returns the recorder's name table, indexed by Name (nil for a
// nil recorder). The slice is the recorder's own; do not modify it.
func (r *Recorder) Names() []string {
	if r == nil {
		return nil
	}
	return r.names
}

// SampleCap reports the counter-sample ring capacity (0 for a nil
// recorder).
func (r *Recorder) SampleCap() int {
	if r == nil {
		return 0
	}
	return r.sampleCap
}

// Record appends a span, overwriting the oldest when the ring is full.
func (r *Recorder) Record(sp Span) {
	if r == nil {
		return
	}
	pos := r.spanLen
	if pos < r.spanCap {
		if pos>>spanChunkShift == len(r.spanChunks) {
			r.spanChunks = append(r.spanChunks, make([]Span, min(spanChunk, r.spanCap-pos)))
		}
		r.spanLen++
	} else {
		pos = r.spanHead
		r.spanHead = (r.spanHead + 1) % r.spanCap
		r.spanDrop++
	}
	*r.spanAt(pos) = sp
}

// spanAt returns the span at ring position pos.
func (r *Recorder) spanAt(pos int) *Span {
	return &r.spanChunks[pos>>spanChunkShift][pos&(spanChunk-1)]
}

// Sample appends a counter observation. Consecutive identical values on
// the same track are coalesced (counters render as steps, so repeats
// carry no information), keeping tracks small.
func (r *Recorder) Sample(at time.Duration, kind CounterKind, v float64) {
	if r == nil {
		return
	}
	if int(kind) < len(r.lastVal) {
		if r.lastValid[kind] && r.lastVal[kind] == v {
			return
		}
		r.lastVal[kind] = v
		r.lastValid[kind] = true
	}
	s := Sample{At: at, Kind: kind, Value: v}
	if len(r.samples) < r.sampleCap {
		r.samples = append(r.samples, s)
		return
	}
	r.samples[r.sampleHead] = s
	r.sampleHead = (r.sampleHead + 1) % r.sampleCap
	r.sampleDrop++
}

// Spans returns the recorded spans in record order (oldest first). The
// returned slice is a copy.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	out := make([]Span, 0, r.spanLen)
	for i := 0; i < r.spanLen; i++ {
		out = append(out, *r.spanAt((r.spanHead + i) % r.spanLen))
	}
	return out
}

// Samples returns the recorded counter samples in record order (oldest
// first). The returned slice is a copy.
func (r *Recorder) Samples() []Sample {
	if r == nil {
		return nil
	}
	out := make([]Sample, 0, len(r.samples))
	out = append(out, r.samples[r.sampleHead:]...)
	out = append(out, r.samples[:r.sampleHead]...)
	return out
}

// ClearSamples discards the recorded counter samples (spans are kept).
// Counter probes observe per-replica scheduler and device state, so a
// sliced replay's samples legitimately differ from a serial run's;
// differential byte comparisons drop them before exporting.
func (r *Recorder) ClearSamples() {
	if r == nil {
		return
	}
	r.samples = r.samples[:0]
	r.sampleHead, r.sampleDrop = 0, 0
	r.lastVal = [numCounters]float64{}
	r.lastValid = [numCounters]bool{}
}

// Dropped reports how many spans and samples were overwritten by ring
// wrap-around.
func (r *Recorder) Dropped() (spans, samples int) {
	if r == nil {
		return 0, 0
	}
	return r.spanDrop, r.sampleDrop
}

// Reset clears recorded data, keeping capacities and the name table.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.spanLen, r.spanHead, r.spanDrop = 0, 0, 0
	r.samples = r.samples[:0]
	r.sampleHead, r.sampleDrop = 0, 0
	r.lastVal = [numCounters]float64{}
	r.lastValid = [numCounters]bool{}
}

// Probe binds a counter track to a sampling function.
type Probe struct {
	Kind CounterKind
	Fn   func() float64
}

// DefaultProbeInterval is the minimum virtual time between probe
// sweeps when InstallProbes is given a non-positive interval.
const DefaultProbeInterval = 100 * time.Microsecond

// InstallProbes hooks the probes into k's scheduling loop: at every
// scheduling point, if at least interval of virtual time has passed
// since the last sweep, each probe is invoked and its value recorded.
// Probes therefore add no events to the kernel and cannot keep a
// simulation alive. The returned func detaches the hook.
func (r *Recorder) InstallProbes(k *sim.Kernel, interval time.Duration, probes ...Probe) (remove func()) {
	if r == nil || len(probes) == 0 {
		return func() {}
	}
	if interval <= 0 {
		interval = DefaultProbeInterval
	}
	last := time.Duration(-1)
	return k.AddSchedHook(func() {
		now := k.Now()
		if last >= 0 && now-last < interval {
			return
		}
		last = now
		for _, p := range probes {
			r.Sample(now, p.Kind, p.Fn())
		}
	})
}
