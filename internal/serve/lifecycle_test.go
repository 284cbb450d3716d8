package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rootreplay/internal/magritte"
	"rootreplay/internal/sim"
	"rootreplay/internal/snapshot"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
	"rootreplay/internal/workload"
)

func TestCancelWhileQueued(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, QueueBound: 8})
	running := submitSleep(t, s, "a", 30_000)
	waitState(t, s, "a", running, StateRunning)
	// With the lone worker busy, the next two jobs stay queued (one may
	// be held by the dispatcher — still cancelable, still "queued").
	b := submitSleep(t, s, "a", 0)
	c := submitSleep(t, s, "a", 0)
	for _, id := range []string{c, b} {
		w := do(s, http.MethodDelete, "/v1/tenants/a/jobs/"+id, nil)
		var doc struct {
			State State `json:"state"`
		}
		json.Unmarshal(w.Body.Bytes(), &doc)
		if doc.State != StateCanceled {
			t.Fatalf("cancel of queued %s: state %s, want canceled immediately", id, doc.State)
		}
	}
	// Canceling a terminal job is a no-op, not an error.
	w := do(s, http.MethodDelete, "/v1/tenants/a/jobs/"+b, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("re-cancel: %d %s", w.Code, w.Body)
	}
	do(s, http.MethodDelete, "/v1/tenants/a/jobs/"+running, nil)
	waitState(t, s, "a", running, StateCanceled)
	if got := s.counters.Get("artcd_jobs_canceled"); got != 3 {
		t.Fatalf("artcd_jobs_canceled = %d, want 3", got)
	}
	if got := s.counters.Get("artcd_jobs_queued"); got != 0 {
		t.Fatalf("queue depth gauge = %d after cancels, want 0", got)
	}
}

func TestCancelWhileRunning(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	id := submitSleep(t, s, "a", 30_000)
	waitState(t, s, "a", id, StateRunning)
	start := time.Now()
	do(s, http.MethodDelete, "/v1/tenants/a/jobs/"+id, nil)
	waitState(t, s, "a", id, StateCanceled)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancel of running job took %v; the runner never observed it", elapsed)
	}
}

// stallingBlobs traces one thread reading 1000 bytes from a blocking
// /dev/random stand-in — 200s of virtual time in a single call, which
// the chaos plan's one-minute watchdog aborts on every seed — and
// returns the trace's and the snapshot's native encodings.
func stallingBlobs(t *testing.T) (traceBlob, snapBlob []byte) {
	t.Helper()
	k := sim.NewKernel()
	sys := stack.New(k, stack.DefaultConfig())
	if err := sys.SetupSpecial("/entropy", stack.SpecialRandomBlocking); err != nil {
		t.Fatal(err)
	}
	snap := snapshot.Capture(sys)
	tr := &trace.Trace{Platform: string(sys.Conf.Platform)}
	sys.SetTracer(func(r *trace.Record) { tr.Records = append(tr.Records, r) })
	k.Spawn("reader", func(th *sim.Thread) {
		fd, _ := sys.Open(th, "/entropy", trace.ORdonly, 0)
		sys.Read(th, fd, 1000)
		sys.Close(th, fd)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	tr.Renumber()
	return encodeBlobs(t, tr, snap)
}

// Graceful drain: admitted jobs — running and queued — complete, new
// work is refused with 503, and no goroutines are left behind, not even
// by a chaos job whose every replay the watchdog aborted mid-call.
func TestDrainCompletesInFlightJobs(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Config{Workers: 2, EnableTestKinds: true})
	tb, sb := stallingBlobs(t)
	traceID, snapID := uploadBlob(t, s, "a", tb), uploadBlob(t, s, "a", sb)
	chaos := submitJob(t, s, "a", fmt.Sprintf(
		`{"kind":"chaos","trace":"%s","snapshot":"%s","seeds":4}`, traceID, snapID))
	waitState(t, s, "a", chaos, StateDone)
	w := do(s, http.MethodGet, "/v1/tenants/a/jobs/"+chaos+"/result", nil)
	if n := strings.Count(w.Body.String(), "stalled (watchdog)"); n != 4 {
		t.Fatalf("chaos verdict shows %d watchdog aborts, want 4: %s", n, w.Body)
	}

	running := submitSleep(t, s, "a", 300)
	waitState(t, s, "a", running, StateRunning)
	queued := submitSleep(t, s, "a", 0)

	done := make(chan error, 1)
	go func() {
		ctx, cancel := timeoutCtx(10 * time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()

	// While draining, new submissions and uploads answer 503.
	deadline := time.Now().Add(5 * time.Second)
	for {
		w := do(s, http.MethodPost, "/v1/tenants/a/jobs", []byte(`{"kind":"sleep","ms":0}`))
		if w.Code == http.StatusServiceUnavailable {
			checkJSONErrorLine(t, w, "draining")
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("submissions never started answering 503 during drain")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st := jobState(t, s, "a", running); st != StateDone {
		t.Fatalf("running job drained to %s, want done", st)
	}
	if st := jobState(t, s, "a", queued); st != StateDone {
		t.Fatalf("queued job drained to %s, want done", st)
	}
	// Leak check: the dispatcher and every pool worker must be gone.
	leakDeadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+1 {
			break
		} else if time.Now().After(leakDeadline) {
			t.Fatalf("goroutines leaked across Shutdown: %d before, %d after", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// An expired drain deadline cancels the stragglers instead of hanging.
func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	s := New(Config{Workers: 1, EnableTestKinds: true})
	id := submitSleep(t, s, "a", 30_000)
	waitState(t, s, "a", id, StateRunning)
	ctx, cancel := timeoutCtx(50 * time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown returned nil despite unfinished jobs at deadline")
	}
	if st := jobState(t, s, "a", id); st != StateCanceled {
		t.Fatalf("straggler state %s, want canceled", st)
	}
}

// A job whose execution panics — here inside a simulated thread, while
// it leads a shared compile — ends failed with the thread and its stack
// in the error, and takes nothing else down: the tenant's next job on
// the same trace is not stuck behind a dangling compile flight, and
// another tenant's job runs as usual.
func TestPanickingJobFailsAlone(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, QueueBound: 8})
	traceID, snapID := uploadMagritte(t, s, "a")
	uploadMagritte(t, s, "b")
	first := true
	s.hooks.compileStarted = func(string) {
		if !first {
			return
		}
		first = false
		k := sim.NewKernel()
		k.Spawn("doomed", func(*sim.Thread) { panic("job exploded") })
		k.Run()
	}
	req := fmt.Sprintf(`{"kind":"replay","trace":"%s","snapshot":"%s"}`, traceID, snapID)
	victim := submitJob(t, s, "a", req)
	waitState(t, s, "a", victim, StateFailed)
	w := do(s, http.MethodGet, "/v1/tenants/a/jobs/"+victim, nil)
	var doc struct {
		Error string `json:"error"`
	}
	json.Unmarshal(w.Body.Bytes(), &doc)
	for _, want := range []string{"doomed(1)", "job exploded", "TestPanickingJobFailsAlone"} {
		if !strings.Contains(doc.Error, want) {
			t.Fatalf("job error lacks %q:\n%s", want, doc.Error)
		}
	}
	waitState(t, s, "a", submitJob(t, s, "a", req), StateDone)
	waitState(t, s, "b", submitJob(t, s, "b", req), StateDone)
	if got := s.counters.Get("artcd_jobs_failed"); got != 1 {
		t.Fatalf("artcd_jobs_failed = %d, want 1", got)
	}
}

// The same for a member of a sharded replay, whose kernel runs on a
// goroutine of the replayer's own where executeIsolated's recover cannot
// reach: a panic in a simulated thread of member 1 of 4 fails that job
// with the thread and the shard named, while another tenant's job that
// was running at the time completes.
func TestPanickingShardMemberFailsAlone(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2, QueueBound: 8})
	// A pipeline corpus: unlike the Magritte traces it cuts into slices.
	tr, snap, err := workload.SynthPipeline(workload.Pipeline{Stages: 4, Ops: 200, Handoff: 16, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	tb, sb := encodeBlobs(t, tr, snap)
	traceID, snapID := uploadBlob(t, s, "a", tb), uploadBlob(t, s, "a", sb)
	uploadBlob(t, s, "b", tb)
	uploadBlob(t, s, "b", sb)
	bystanderRunning, victimFailed := make(chan struct{}), make(chan struct{})
	var release sync.Once
	defer release.Do(func() { close(victimFailed) })
	var replicas atomic.Int32
	s.hooks.replicaInit = func(sys *stack.System) {
		if sys.Conf.Device == stack.DeviceHDD { // the bystander's machine
			close(bystanderRunning)
			<-victimFailed
			return
		}
		if replicas.Add(1) == 2 {
			<-bystanderRunning
			sys.K.Spawn("doomed", func(th *sim.Thread) {
				th.Sleep(time.Millisecond)
				panic("member exploded")
			})
		}
	}
	bystander := submitJob(t, s, "b", fmt.Sprintf(
		`{"kind":"replay","trace":"%s","snapshot":"%s","target":"linux-ext4-hdd"}`, traceID, snapID))
	sharded := fmt.Sprintf(`{"kind":"replay","trace":"%s","snapshot":"%s","shards":4,"slice_actions":%d}`,
		traceID, snapID, len(tr.Records)/4+1)
	victim := submitJob(t, s, "a", sharded)
	waitState(t, s, "a", victim, StateFailed)
	w := do(s, http.MethodGet, "/v1/tenants/a/jobs/"+victim, nil)
	var doc struct {
		Error string `json:"error"`
	}
	json.Unmarshal(w.Body.Bytes(), &doc)
	for _, want := range []string{"artc: shard ", "doomed(", "member exploded", "TestPanickingShardMemberFailsAlone"} {
		if !strings.Contains(doc.Error, want) {
			t.Fatalf("job error lacks %q:\n%s", want, doc.Error)
		}
	}
	if n := replicas.Load(); n < 4 {
		t.Fatalf("the sharded job built %d replicas, want a cluster of at least 4", n)
	}
	release.Do(func() { close(victimFailed) })
	waitState(t, s, "b", bystander, StateDone)
	waitState(t, s, "a", submitJob(t, s, "a", sharded), StateDone)
}

// A job's co-running replicas are bounded at admission: slice_actions 1
// asks for a slice per atom, and without a slice_max this pipeline's one
// component would be cut into 199 replica systems, all alive at once. It
// runs with maxShards.
func TestSliceCountBoundedAtAdmission(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	tr, snap, err := workload.SynthPipeline(workload.Pipeline{Stages: 100, Ops: 8, Handoff: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	tb, sb := encodeBlobs(t, tr, snap)
	traceID, snapID := uploadBlob(t, s, "a", tb), uploadBlob(t, s, "a", sb)
	var replicas atomic.Int32
	s.hooks.replicaInit = func(*stack.System) { replicas.Add(1) }
	job := submitJob(t, s, "a", fmt.Sprintf(
		`{"kind":"replay","trace":"%s","snapshot":"%s","shards":1,"slice_actions":1}`, traceID, snapID))
	waitState(t, s, "a", job, StateDone)
	if n := replicas.Load(); n != maxShards {
		t.Fatalf("slice_actions 1 built %d replicas of the one component, want %d", n, maxShards)
	}
}

// Concurrent submissions of the same trace share one compile: the
// second job joins the first's singleflight instead of compiling again.
func TestConcurrentSameTraceSharesCompile(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2, QueueBound: 8})
	traceID, snapID := uploadMagritte(t, s, "a")

	gate := make(chan struct{})
	entered := make(chan string, 2)
	s.hooks.compileStarted = func(key string) {
		entered <- key
		<-gate
	}
	req := fmt.Sprintf(`{"kind":"replay","trace":"%s","snapshot":"%s"}`, traceID, snapID)
	a := submitJob(t, s, "a", req)
	key := <-entered // first job is now the compile leader, blocked
	b := submitJob(t, s, "a", req)
	// The second job must join the leader's flight, not start its own.
	deadline := time.Now().Add(5 * time.Second)
	for s.flightWaiters(key) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("second job never joined the in-flight compile (waiters=%d)", s.flightWaiters(key))
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(gate)
	waitState(t, s, "a", a, StateDone)
	waitState(t, s, "a", b, StateDone)
	if got := s.counters.Get("artcd_compiles"); got != 1 {
		t.Fatalf("artcd_compiles = %d, want 1 (shared)", got)
	}
	if got := s.counters.Get("artcd_compiles_shared"); got != 1 {
		t.Fatalf("artcd_compiles_shared = %d, want 1", got)
	}
	select {
	case k := <-entered:
		t.Fatalf("a second compile started (key %s)", k)
	default:
	}
}

// magritteBlobs generates a small Magritte trace in-process and returns
// its native encoding and its snapshot's.
func magritteBlobs(t *testing.T) (traceBlob, snapBlob []byte) {
	t.Helper()
	spec, ok := magritte.SpecByName("pages_docphoto15")
	if !ok {
		t.Fatal("unknown magritte spec")
	}
	gen, err := magritte.Generate(spec, magritte.GenOptions{Scale: 0.01, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return encodeBlobs(t, gen.Trace, gen.Snapshot)
}

// encodeBlobs returns the native encodings of a trace and its snapshot,
// the bytes a tenant uploads.
func encodeBlobs(t *testing.T, tr *trace.Trace, snap *snapshot.Snapshot) (traceBlob, snapBlob []byte) {
	t.Helper()
	var tb, sb bytes.Buffer
	if err := tr.Encode(&tb); err != nil {
		t.Fatal(err)
	}
	if err := snap.Encode(&sb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), sb.Bytes()
}

// uploadMagritte uploads magritteBlobs' trace and snapshot, returning
// the blob ids.
func uploadMagritte(t *testing.T, s *Server, tenant string) (traceID, snapID string) {
	t.Helper()
	tb, sb := magritteBlobs(t)
	return uploadBlob(t, s, tenant, tb), uploadBlob(t, s, tenant, sb)
}

// uploadBlob uploads data for tenant and returns its blob id.
func uploadBlob(t *testing.T, s *Server, tenant string, data []byte) string {
	t.Helper()
	w := do(s, http.MethodPost, "/v1/tenants/"+tenant+"/traces", data)
	if w.Code != http.StatusOK {
		t.Fatalf("upload: %d %s", w.Code, w.Body)
	}
	var doc struct {
		ID string `json:"id"`
	}
	json.Unmarshal(w.Body.Bytes(), &doc)
	return doc.ID
}

// flightWaiters reports how many jobs are blocked on the named flight.
func (s *Server) flightWaiters(key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f := s.flights[key]; f != nil {
		return f.waiters
	}
	return 0
}
