package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"time"

	"rootreplay/internal/artc"
	"rootreplay/internal/artifact"
	"rootreplay/internal/core"
	"rootreplay/internal/fault/chaostest"
	"rootreplay/internal/magritte"
	"rootreplay/internal/obs"
	"rootreplay/internal/sim"
	"rootreplay/internal/snapshot"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
)

// errCanceled marks a run cut short by cancellation; runJob maps it to
// StateCanceled via the job's canceled flag, never to StateFailed.
var errCanceled = errors.New("canceled")

// marshalLine renders v as one newline-terminated JSON line, the shape
// every service result document shares.
func marshalLine(v any) ([]byte, string, error) {
	doc, err := json.Marshal(v)
	if err != nil {
		return nil, "", err
	}
	return append(doc, '\n'), "application/json", nil
}

// flight is one in-progress compile shared by every job that needs the
// same (trace, snapshot, format) benchmark at the same moment.
type flight struct {
	done    chan struct{}
	waiters int
	b       *artc.Benchmark
	st      artifact.Stats
	err     error
}

// compileShared compiles the job's trace through the artifact store,
// collapsing concurrent identical compiles into one: the first job in
// becomes the leader, later arrivals wait on its flight. Together with
// the content-addressed store this gives cross-tenant dedup at both
// layers — on disk by construction, in memory by singleflight.
func (s *Server) compileShared(j *Job) (*artc.Benchmark, error) {
	req := j.req
	key := req.Format + "|" + req.Trace + "|" + req.Snapshot

	s.mu.Lock()
	if f := s.flights[key]; f != nil {
		f.waiters++
		s.mu.Unlock()
		<-f.done
		s.counters.Add("artcd_compiles_shared", 1)
		return f.b, f.err
	}
	// err is what the waiters see if doCompile panics instead of
	// returning; the flight is released either way, so a compile that
	// panics fails its own jobs and does not hang the next ones.
	f := &flight{done: make(chan struct{}), err: errors.New("shared compile panicked")}
	s.flights[key] = f
	raw := s.blobs[req.Trace]
	snapRaw := s.blobs[req.Snapshot]
	s.mu.Unlock()

	func() {
		defer func() {
			s.mu.Lock()
			delete(s.flights, key)
			s.mu.Unlock()
			close(f.done)
		}()
		f.b, f.st, f.err = s.doCompile(key, req, raw, snapRaw)
	}()

	if f.err == nil && f.st.Key != "" {
		if f.st.Hit {
			s.counters.Add("artcd_cache_hits", 1)
		} else {
			s.counters.Add("artcd_cache_misses", 1)
		}
		s.mu.Lock()
		s.keys[key] = f.st.Key
		s.mu.Unlock()
	}
	return f.b, f.err
}

// doCompile is the singleflight leader's work: load the artifact the
// inputs compiled to before, or decode them and compile through the
// store (or directly when caching is off).
func (s *Server) doCompile(key string, req jobRequest, raw, snapRaw []byte) (*artc.Benchmark, artifact.Stats, error) {
	if s.hooks.compileStarted != nil {
		s.hooks.compileStarted(key)
	}
	s.counters.Add("artcd_compiles", 1)
	if b, st, ok := s.loadKeyed(key); ok {
		return b, st, nil
	}
	if s.hooks.inputsDecoded != nil {
		s.hooks.inputsDecoded(key)
	}
	if raw == nil {
		return nil, artifact.Stats{}, fmt.Errorf("trace blob %s disappeared", req.Trace)
	}
	var snap *snapshot.Snapshot
	if req.Snapshot != "" {
		if snapRaw == nil {
			return nil, artifact.Stats{}, fmt.Errorf("snapshot blob %s disappeared", req.Snapshot)
		}
		var err error
		if snap, err = snapshot.Decode(bytes.NewReader(snapRaw)); err != nil {
			return nil, artifact.Stats{}, fmt.Errorf("snapshot: %w", err)
		}
	}
	modes := core.DefaultModes()
	switch req.Format {
	case "strace":
		return artifact.CompileStrace(s.cfg.Store, raw, snap, modes)
	default: // native, validated at admission
		tr, err := trace.Decode(bytes.NewReader(raw))
		if err != nil {
			return nil, artifact.Stats{}, fmt.Errorf("trace: %w", err)
		}
		return artifact.CompileTrace(s.cfg.Store, tr, snap, modes)
	}
}

// loadKeyed answers a repeat of a compile that succeeded before straight
// from the store, under the artifact key remembered for its inputs: the
// snapshot is not decoded, the raw trace not hashed, a native trace not
// decoded and re-encoded. ok is false for inputs never compiled, with
// caching off, and when the entry is gone or damaged (Get drops a
// damaged one); the caller then takes the full path, which compiles and
// puts the artifact again. An entry of s.keys lives as long as the blobs
// its key names, which are never dropped; a server that drops blobs
// must drop their entries with them.
func (s *Server) loadKeyed(key string) (b *artc.Benchmark, st artifact.Stats, ok bool) {
	s.mu.Lock()
	akey, known := s.keys[key]
	s.mu.Unlock()
	if !known || s.cfg.Store == nil {
		return nil, st, false
	}
	t0 := time.Now()
	b, n, err := s.cfg.Store.Get(akey)
	if err != nil {
		return nil, st, false
	}
	return b, artifact.Stats{Key: akey, Hit: true, LoadNs: time.Since(t0).Nanoseconds(), Bytes: n}, true
}

// executeIsolated is execute with a panic turned into the job's error,
// so a bug one job trips over fails that job and leaves the daemon and
// the other tenants running. A panic inside a simulated thread arrives
// as a *sim.ThreadPanic carrying the thread's name and its own stack;
// anything else panicked on this goroutine and the stack is still here.
//
// Members of a sharded replay run their kernels on goroutines of their
// own, where no recover here could reach; artc.ReplaySharded recovers
// there and returns the panic as its error.
func (s *Server) executeIsolated(j *Job) (result []byte, ctype string, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		result, ctype = nil, ""
		if tp, ok := r.(*sim.ThreadPanic); ok {
			err = tp
		} else {
			err = fmt.Errorf("panic: %v\n\n%s", r, debug.Stack())
		}
	}()
	return s.execute(j)
}

// execute runs one job to produce its result document. Cancellation is
// observed at phase boundaries (before compile, before replay): a
// replay in flight always completes — it is a pure virtual-time
// computation — and the canceled flag decides the terminal state.
func (s *Server) execute(j *Job) ([]byte, string, error) {
	if j.Kind == "sleep" {
		select {
		case <-time.After(time.Duration(j.req.Ms) * time.Millisecond):
			return []byte("{\"slept_ms\":" + fmt.Sprint(j.req.Ms) + "}\n"), "application/json", nil
		case <-j.cancel:
			return nil, "", errCanceled
		}
	}
	if j.isCanceled() {
		return nil, "", errCanceled
	}
	b, err := s.compileShared(j)
	if err != nil {
		return nil, "", err
	}
	if j.isCanceled() {
		return nil, "", errCanceled
	}
	conf, err := stack.ParseTarget(j.req.Target, 0, 0)
	if err != nil {
		return nil, "", err
	}
	switch j.Kind {
	case "chaos":
		return s.runChaos(j, b, conf)
	default: // replay, export
		return s.runReplay(j, b, conf)
	}
}

func (j *Job) isCanceled() bool {
	select {
	case <-j.cancel:
		return true
	default:
		return false
	}
}

// runReplay executes the replay/export kinds through artc.Run, the
// driver `artc trace` also calls, so an export fetched over HTTP is
// byte-identical to the CLI's file for the same trace and options —
// the service-path determinism contract CI enforces.
func (s *Server) runReplay(j *Job, b *artc.Benchmark, conf stack.Config) ([]byte, string, error) {
	req := j.req
	init := magritte.TargetInit(b, true)
	if hook := s.hooks.replicaInit; hook != nil {
		base := init
		init = func(sys *stack.System) error {
			err := base(sys)
			if err == nil {
				hook(sys)
			}
			return err
		}
	}
	spec := artc.RunSpec{
		Options:      artc.Options{Method: artc.Method(req.Method)},
		Target:       conf,
		Init:         init,
		Warm:         req.Warm,
		Shards:       req.Shards,
		SliceActions: req.SliceActions,
		SliceMax:     req.SliceMax,
	}
	var rec *obs.Recorder
	if j.Kind == "export" {
		// One span per action: an export holds every span, where the
		// default ring would keep only the newest DefaultSpanCap.
		rec = obs.NewRecorder(len(b.Trace.Records), 0)
		spec.Options.Obs = rec
	}
	rep, _, err := artc.Run(b, spec)
	if err != nil {
		return nil, "", err
	}
	if j.Kind == "export" {
		if req.NoSamples {
			rec.ClearSamples()
		}
		var buf bytes.Buffer
		if err := rec.WriteChrome(&buf); err != nil {
			return nil, "", err
		}
		return buf.Bytes(), "application/json", nil
	}
	return reportDoc(rep)
}

// reportDoc renders a replay report as deterministic JSON: fixed field
// order, calls sorted by name. Two replays of the same inputs marshal
// to identical bytes.
func reportDoc(rep *artc.Report) ([]byte, string, error) {
	type callDoc struct {
		Name   string `json:"name"`
		Count  int64  `json:"count"`
		TimeNs int64  `json:"time_ns"`
	}
	names := make([]string, 0, len(rep.CallTime))
	for c := range rep.CallTime {
		names = append(names, c)
	}
	sort.Strings(names)
	calls := make([]callDoc, 0, len(names))
	for _, c := range names {
		calls = append(calls, callDoc{c, rep.CallCount[c], rep.CallTime[c].Nanoseconds()})
	}
	doc := struct {
		Method      string    `json:"method"`
		Actions     int       `json:"actions"`
		ElapsedNs   int64     `json:"elapsed_ns"`
		Errors      int       `json:"errors"`
		Emulated    int       `json:"emulated"`
		Concurrency float64   `json:"concurrency"`
		Calls       []callDoc `json:"calls"`
	}{
		Method:      string(rep.Method),
		Actions:     rep.Actions,
		ElapsedNs:   rep.Elapsed.Nanoseconds(),
		Errors:      rep.Errors,
		Emulated:    rep.Emulated,
		Concurrency: rep.Concurrency(),
		Calls:       calls,
	}
	return marshalLine(doc)
}

// runChaos sweeps consecutive fault seeds (fanned out over the par
// pool inside chaostest.Sweep) and renders a deterministic verdict.
// The plan is `artc chaos`'s default one.
func (s *Server) runChaos(j *Job, b *artc.Benchmark, conf stack.Config) ([]byte, string, error) {
	req := j.req
	plan := chaostest.DefaultPlan()
	opts := chaostest.Options{
		Bench: b,
		Spec: artc.RunSpec{
			Target:       conf,
			Fault:        &plan,
			Shards:       req.Shards,
			SliceActions: req.SliceActions,
			SliceMax:     req.SliceMax,
		},
		Verify: req.Verify,
	}
	sweep := chaostest.Sweep(opts, chaostest.Seeds(req.Seed, req.Seeds))
	type seedDoc struct {
		Seed       uint64   `json:"seed"`
		Errors     int      `json:"errors"`
		ElapsedNs  int64    `json:"elapsed_ns"`
		OK         bool     `json:"ok"`
		Violations []string `json:"violations,omitempty"`
	}
	doc := struct {
		OK    bool      `json:"ok"`
		Seeds []seedDoc `json:"seeds"`
	}{OK: true}
	for i := range sweep {
		r := &sweep[i]
		doc.Seeds = append(doc.Seeds, seedDoc{
			Seed: r.Seed, Errors: r.Errors, ElapsedNs: r.Elapsed.Nanoseconds(),
			OK: r.OK(), Violations: r.Violations,
		})
		if !r.OK() {
			doc.OK = false
		}
	}
	return marshalLine(doc)
}
