package serve

import (
	"fmt"
	"time"

	"rootreplay/internal/stack"
)

// State is a job's lifecycle position. Transitions:
//
//	queued → running → done | failed | canceled
//	queued → canceled                       (cancel before start)
//
// Terminal states never change; a cancel that lands while the job is
// running wins over completion, so DELETE is deterministic for callers.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// terminal reports whether st is an end state.
func terminal(st State) bool {
	return st == StateDone || st == StateFailed || st == StateCanceled
}

// Job is one admitted unit of work. Mutable fields are guarded by the
// server's mu; the cancel channel is closed at most once (when a cancel
// lands on a running job) and observed by the runner at phase
// boundaries.
type Job struct {
	ID     string
	Tenant string
	Kind   string

	state    State
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time

	req        jobRequest
	cancel     chan struct{}
	canceled   bool
	result     []byte
	resultType string
	// resultEvicted: the job is done but later jobs of its tenant pushed
	// its result bytes out of retention (see retainResultLocked).
	resultEvicted bool
}

// jobRequest is the submission document. Unknown fields are rejected;
// zero values select the CLI's defaults so a job and the equivalent
// artc invocation describe the same replay.
type jobRequest struct {
	// Kind selects the work: "replay" (deterministic report JSON),
	// "export" (Perfetto/Chrome trace export, byte-identical to
	// `artc trace`), "chaos" (seeded fault sweep verdict), or "sleep"
	// (test kinds only).
	Kind string `json:"kind"`
	// Trace is the uploaded trace blob id ("sha256:<hex>").
	Trace string `json:"trace,omitempty"`
	// Snapshot optionally names an uploaded initial-state snapshot.
	Snapshot string `json:"snapshot,omitempty"`
	// Format is the trace encoding: "native" (default) or "strace".
	Format string `json:"format,omitempty"`
	// Target is the simulated machine (default linux-ext4-ssd-noop,
	// matching `artc trace`).
	Target string `json:"target,omitempty"`
	// Method is the replay ordering method (default artc).
	Method string `json:"method,omitempty"`
	// Shards > 0 replays through the sharded replayer with that worker
	// bound; SliceActions/SliceMax add resource-cut slicing. SliceMax
	// is at most maxShards, and a sliced job without one runs with that.
	Shards       int  `json:"shards,omitempty"`
	SliceActions int  `json:"slice_actions,omitempty"`
	SliceMax     int  `json:"slice_max,omitempty"`
	Warm         bool `json:"warm,omitempty"`
	NoSamples    bool `json:"no_samples,omitempty"`
	// Chaos controls: Seeds consecutive seeds starting at Seed, each
	// verified (replayed twice, compared bit-for-bit) when Verify.
	Seed   uint64 `json:"seed,omitempty"`
	Seeds  int    `json:"seeds,omitempty"`
	Verify bool   `json:"verify,omitempty"`
	// Ms is the sleep duration for the "sleep" test kind.
	Ms int `json:"ms,omitempty"`
}

// maxima for strictly validated numeric fields; work a single job may
// claim must be bounded at admission, not discovered at run time.
const (
	maxSeeds   = 256
	maxShards  = 64
	maxSleepMs = 60_000
)

// normalize validates req and fills defaults, returning a contract
// error message ("" when valid). It never mutates on failure paths the
// caller can observe — failures reject the submission outright.
func (s *Server) normalize(req *jobRequest) string {
	switch req.Kind {
	case "replay", "export", "chaos":
	case "sleep":
		if !s.cfg.EnableTestKinds {
			return `unknown kind "sleep"`
		}
		if req.Ms < 0 || req.Ms > maxSleepMs {
			return fmt.Sprintf("ms out of range [0, %d]", maxSleepMs)
		}
		return ""
	default:
		return fmt.Sprintf("unknown kind %q (want replay, export, or chaos)", req.Kind)
	}
	if req.Trace == "" {
		return "trace is required"
	}
	if req.Format == "" {
		req.Format = "native"
	}
	switch req.Format {
	case "native", "strace":
	default:
		return fmt.Sprintf("unknown format %q (want native or strace)", req.Format)
	}
	if req.Target == "" {
		req.Target = "linux-ext4-ssd-noop"
	}
	if _, err := stack.ParseTarget(req.Target, 0, 0); err != nil {
		return err.Error()
	}
	if req.Method == "" {
		req.Method = "artc"
	}
	switch req.Method {
	case "artc", "single", "temporal", "unconstrained":
	default:
		return fmt.Sprintf("unknown method %q", req.Method)
	}
	if req.Shards < 0 || req.Shards > maxShards {
		return fmt.Sprintf("shards out of range [0, %d]", maxShards)
	}
	if req.SliceActions < 0 {
		return "slice_actions must be >= 0"
	}
	if req.SliceMax < 0 || req.SliceMax > maxShards {
		return fmt.Sprintf("slice_max out of range [0, %d]", maxShards)
	}
	if (req.SliceActions > 0 || req.SliceMax > 0) && req.Shards == 0 {
		return "slice_actions and slice_max require shards"
	}
	if req.SliceActions > 0 && req.SliceMax == 0 {
		// Uncapped, slice_actions 1 cuts a slice — a full replica system,
		// a kernel and a goroutine, all alive at once — per atom.
		req.SliceMax = maxShards
	}
	if req.Kind == "chaos" {
		if req.Seeds == 0 {
			req.Seeds = 1
		}
		if req.Seeds < 1 || req.Seeds > maxSeeds {
			return fmt.Sprintf("seeds out of range [1, %d]", maxSeeds)
		}
		if req.Seed == 0 {
			req.Seed = 1
		}
	} else if req.Seeds != 0 || req.Seed != 0 || req.Verify {
		return "seed/seeds/verify apply only to kind chaos"
	}
	if req.Ms != 0 {
		return "ms applies only to kind sleep"
	}
	return ""
}

// admit creates and enqueues a job for tenant t. The caller holds mu
// and has already checked the queue bound and draining state.
func (s *Server) admitLocked(t *tenant, req jobRequest) *Job {
	t.seq++
	j := &Job{
		ID:      fmt.Sprintf("j%06d", t.seq),
		Tenant:  t.name,
		Kind:    req.Kind,
		state:   StateQueued,
		created: time.Now(),
		req:     req,
		cancel:  make(chan struct{}),
	}
	t.jobs[j.ID] = j
	t.jobOrder = append(t.jobOrder, j.ID)
	t.queue = append(t.queue, j)
	t.queued++
	s.liveJobs++
	s.counters.Add("artcd_jobs_submitted", 1)
	s.counters.Add("artcd_jobs_queued", 1)
	s.cond.Broadcast()
	return j
}

// cancelJobLocked moves j toward canceled (caller holds mu): a queued
// job finalizes immediately; a running one has its cancel channel
// closed and finalizes when the runner next observes it. Terminal jobs
// are untouched.
func (s *Server) cancelJobLocked(t *tenant, j *Job) {
	switch j.state {
	case StateQueued:
		j.canceled = true
		for i, q := range t.queue {
			if q == j {
				t.queue = append(t.queue[:i], t.queue[i+1:]...)
				break
			}
		}
		s.finalizeLocked(t, j, StateCanceled, "")
	case StateRunning:
		if !j.canceled {
			j.canceled = true
			close(j.cancel)
		}
	}
}

// runJob executes one dispatched job on a pool worker.
func (s *Server) runJob(j *Job) {
	s.mu.Lock()
	t := s.tenants[j.Tenant]
	if j.canceled || j.state != StateQueued {
		// Canceled between dispatch and start; already finalized.
		s.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	t.queued--
	s.counters.Add("artcd_jobs_queued", -1)
	s.counters.Add("artcd_jobs_running", 1)
	s.mu.Unlock()

	result, ctype, err := s.executeIsolated(j)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.counters.Add("artcd_jobs_running", -1)
	switch {
	case j.canceled:
		s.finalizeLocked(t, j, StateCanceled, "")
	case err != nil:
		s.finalizeLocked(t, j, StateFailed, err.Error())
	default:
		j.result = result
		j.resultType = ctype
		s.retainResultLocked(t, j)
		s.finalizeLocked(t, j, StateDone, "")
	}
}

// retainResultLocked notes that j now holds result bytes and releases
// the oldest held result of the tenant beyond cfg.QueueBound (caller
// holds mu). The bound that caps a tenant's queued work also caps the
// results the service keeps for it, so a long-lived tenant's memory is
// its last QueueBound results, not every result it ever produced. The
// evicted job keeps its status document.
func (s *Server) retainResultLocked(t *tenant, j *Job) {
	t.retained = append(t.retained, j)
	if len(t.retained) <= s.cfg.QueueBound {
		return
	}
	old := t.retained[0]
	t.retained = t.retained[1:]
	old.result = nil
	old.resultEvicted = true
	s.counters.Add("artcd_results_evicted", 1)
}

// finalizeLocked records a terminal state (caller holds mu). It is the
// single place live-job accounting ends, so drain waiters and the
// per-state counters stay consistent.
func (s *Server) finalizeLocked(t *tenant, j *Job, st State, errMsg string) {
	if terminal(j.state) {
		return
	}
	if j.state == StateQueued {
		t.queued--
		s.counters.Add("artcd_jobs_queued", -1)
	}
	j.state = st
	j.errMsg = errMsg
	j.finished = time.Now()
	s.counters.Add("artcd_jobs_"+string(st), 1)
	s.liveJobs--
	s.cond.Broadcast()
}
