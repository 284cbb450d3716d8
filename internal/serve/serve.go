// Package serve is the replay-as-a-service layer: a multi-tenant
// HTTP/JSON front end over the artc pipeline (parse → compile → cache →
// replay/chaos), run by cmd/artcd.
//
// The service exists because ROOT-style replay is deterministic by
// construction — a replay's result is a pure function of (trace,
// options, profile), computed on virtual clocks — so concurrent jobs
// cannot perturb each other's results. That is the property that makes
// replay servable: jobs from unrelated tenants co-schedule on one
// worker pool with no isolation machinery beyond admission control, and
// the artifact cache deduplicates compiles across tenants by content
// address (same trace bytes, same key) without correctness risk.
//
// Contract (the tool-contract style the CLI already follows):
//
//   - Every error response is a single-line JSON object
//     {"error":"<code>","message":"..."} terminated by a newline.
//   - Inputs are strictly validated: unknown JSON fields, out-of-range
//     values, and malformed names are rejected with 400 before any work
//     is admitted.
//   - Backpressure is explicit and bounded: a full per-tenant queue
//     rejects with 429 + Retry-After, an exhausted upload budget with
//     507, an oversized body with 413. Nothing buffers unboundedly.
//   - Shutdown drains: admitted jobs (queued and running) complete,
//     new work is refused with 503, and no goroutines are left behind.
package serve

import (
	"context"
	"net/http"
	"regexp"
	"sync"

	"rootreplay/internal/artifact"
	"rootreplay/internal/obs"
	"rootreplay/internal/par"
	"rootreplay/internal/stack"
)

// Defaults for Config fields left zero.
const (
	DefaultQueueBound        = 16
	DefaultMaxUploadBytes    = 64 << 20
	DefaultTenantBudgetBytes = 256 << 20
)

// Config parameterizes a Server.
type Config struct {
	// Store is the content-addressed compiled-artifact cache shared by
	// every tenant. Nil compiles uncached.
	Store *artifact.Store
	// Workers bounds the job executor pool (< 1 selects GOMAXPROCS).
	Workers int
	// QueueBound caps each tenant's queued (admitted but not yet
	// started) jobs. Submissions beyond it are rejected with 429. It
	// also caps how many finished jobs per tenant keep their result
	// bytes; older results answer 410.
	QueueBound int
	// MaxUploadBytes caps a single trace upload body.
	MaxUploadBytes int64
	// TenantBudgetBytes caps the total bytes a tenant may keep
	// uploaded. Uploads beyond it are rejected with 507.
	TenantBudgetBytes int64
	// EnableTestKinds admits the "sleep" job kind, a deterministic
	// work stand-in used by the backpressure CI lane and tests.
	EnableTestKinds bool
	// Counters receives service metrics; nil allocates a private set.
	Counters *obs.Counters
}

// hooks are test-only instrumentation points (nil in production).
type hooks struct {
	// compileStarted runs in the singleflight leader before compiling.
	compileStarted func(key string)
	// inputsDecoded runs in the singleflight leader when it decodes a
	// job's inputs (the snapshot, and a native trace) to key them.
	inputsDecoded func(key string)
	// replicaInit runs on every target machine a replay job builds (one
	// per member of a sharded replay), after it has been initialized.
	replicaInit func(sys *stack.System)
}

// Server is the multi-tenant replay service. Create with New; it
// implements http.Handler. All mutable state is guarded by mu; cond
// signals the dispatcher and drain waiters.
type Server struct {
	cfg      Config
	counters *obs.Counters
	mux      *http.ServeMux
	pool     *par.Pool
	hooks    hooks

	mu       sync.Mutex
	cond     *sync.Cond
	tenants  map[string]*tenant
	order    []string // tenant round-robin rotation for fair dispatch
	rr       int
	blobs    map[string][]byte // content-addressed uploads, deduplicated globally
	flights  map[string]*flight
	keys     map[string]string // flight key → artifact key it compiled under (see loadKeyed)
	liveJobs int               // jobs admitted but not yet terminal
	draining bool
	stopped  bool
	dispWG   sync.WaitGroup
}

// tenant is one namespace: its uploads, its budget, and its job queue.
type tenant struct {
	name     string
	queue    []*Job          // FIFO of jobs awaiting dispatch
	queued   int             // jobs in StateQueued (includes one held by the dispatcher)
	jobs     map[string]*Job // all jobs ever submitted, by id
	jobOrder []string        // submission order, for deterministic listing
	retained []*Job          // done jobs still holding result bytes, oldest first
	seq      int
	uploads  map[string]int64 // blob id → size charged to this tenant
	used     int64            // sum of uploads
}

var tenantNameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9_-]{0,63}$`)

// New builds a Server and starts its dispatcher and worker pool.
func New(cfg Config) *Server {
	if cfg.QueueBound <= 0 {
		cfg.QueueBound = DefaultQueueBound
	}
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = DefaultMaxUploadBytes
	}
	if cfg.TenantBudgetBytes <= 0 {
		cfg.TenantBudgetBytes = DefaultTenantBudgetBytes
	}
	c := cfg.Counters
	if c == nil {
		c = obs.NewCounters()
	}
	s := &Server{
		cfg:      cfg,
		counters: c,
		tenants:  make(map[string]*tenant),
		blobs:    make(map[string][]byte),
		flights:  make(map[string]*flight),
		keys:     make(map[string]string),
		pool:     par.NewPool(cfg.Workers),
	}
	s.cond = sync.NewCond(&s.mu)
	s.routes()
	s.dispWG.Add(1)
	go s.dispatch()
	return s
}

// Counters exposes the server's metric set (for embedding callers).
func (s *Server) Counters() *obs.Counters { return s.counters }

// tenantLocked returns (creating on first use) the named tenant.
func (s *Server) tenantLocked(name string) *tenant {
	t := s.tenants[name]
	if t == nil {
		t = &tenant{
			name:    name,
			jobs:    make(map[string]*Job),
			uploads: make(map[string]int64),
		}
		s.tenants[name] = t
		s.order = append(s.order, name)
		s.counters.Set("artcd_tenants", int64(len(s.tenants)))
	}
	return t
}

// nextLocked pops the next queued job, round-robin across tenants so
// one tenant's burst cannot starve another's queue. The job stays in
// StateQueued (and counted against its tenant's bound) until a worker
// actually starts it — admission reflects work the service is still
// holding, wherever it is held.
func (s *Server) nextLocked() *Job {
	n := len(s.order)
	for i := 0; i < n; i++ {
		t := s.tenants[s.order[(s.rr+i)%n]]
		if len(t.queue) == 0 {
			continue
		}
		s.rr = (s.rr + i + 1) % n
		j := t.queue[0]
		t.queue = t.queue[1:]
		return j
	}
	return nil
}

// dispatch moves queued jobs onto the worker pool. Submit blocks while
// every worker is busy, so at most one dequeued job waits here; it
// still counts as queued for admission purposes.
func (s *Server) dispatch() {
	defer s.dispWG.Done()
	for {
		s.mu.Lock()
		var j *Job
		for {
			if s.stopped {
				s.mu.Unlock()
				return
			}
			if j = s.nextLocked(); j != nil {
				break
			}
			s.cond.Wait()
		}
		s.mu.Unlock()
		s.pool.Submit(func() { s.runJob(j) })
	}
}

// Shutdown gracefully drains the service: new submissions are refused
// (503) immediately, every admitted job — queued or running — runs to
// completion, and the dispatcher and worker pool exit. If ctx expires
// first, remaining jobs are canceled and Shutdown returns ctx's error
// after the executor quiesces. Either way no goroutines are left.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		s.mu.Lock()
		for s.liveJobs > 0 {
			s.cond.Wait()
		}
		s.mu.Unlock()
		close(idle)
	}()

	var err error
	select {
	case <-idle:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancelAll()
		<-idle
	}

	s.mu.Lock()
	s.stopped = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.dispWG.Wait()
	s.pool.Close()
	return err
}

// cancelAll cancels every non-terminal job (it takes the lock
// itself; the name notes it mutates job state, not its caller's lock).
func (s *Server) cancelAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.tenants {
		for _, id := range t.jobOrder {
			s.cancelJobLocked(t, t.jobs[id])
		}
	}
}

// retryAfter estimates how long a rejected submitter should wait before
// retrying: one second is the floor; deeper system backlogs scale it.
func (s *Server) retryAfterLocked() int {
	secs := 1 + s.liveJobs/8
	if secs > 30 {
		secs = 30
	}
	return secs
}
