package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"testing"
	"time"

	"rootreplay/internal/magritte"
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

// Graceful drain: admitted jobs — running and queued — complete, new
// work is refused with 503, and no goroutines are left behind.
func TestDrainCompletesInFlightJobs(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Config{Workers: 2, EnableTestKinds: true})
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
	submit := func() string {
		w := do(s, http.MethodPost, "/v1/tenants/a/jobs", []byte(req))
		if w.Code != http.StatusAccepted {
			t.Fatalf("submit: %d %s", w.Code, w.Body)
		}
		var doc struct {
			ID string `json:"id"`
		}
		json.Unmarshal(w.Body.Bytes(), &doc)
		return doc.ID
	}
	a := submit()
	key := <-entered // first job is now the compile leader, blocked
	b := submit()
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
	var tb, sb bytes.Buffer
	if err := gen.Trace.Encode(&tb); err != nil {
		t.Fatal(err)
	}
	if err := gen.Snapshot.Encode(&sb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), sb.Bytes()
}

// uploadMagritte uploads magritteBlobs' trace and snapshot, returning
// the blob ids.
func uploadMagritte(t *testing.T, s *Server, tenant string) (traceID, snapID string) {
	t.Helper()
	tb, sb := magritteBlobs(t)
	up := func(data []byte) string {
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
	return up(tb), up(sb)
}
