package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func timeoutCtx(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

// newTestServer builds a Server with the sleep test kind enabled and
// small bounds; the caller must Shutdown it (shut does so, once).
func newTestServer(t *testing.T, cfg Config) (*Server, func()) {
	t.Helper()
	cfg.EnableTestKinds = true
	s := New(cfg)
	var once bool
	shut := func() {
		if once {
			return
		}
		once = true
		// Cancel whatever is still live (long sleepers included), then
		// drain; a healthy server quiesces well inside the deadline.
		s.cancelAll()
		ctx, cancel := timeoutCtx(10 * time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}
	t.Cleanup(shut)
	return s, shut
}

func do(s *Server, method, path string, body []byte) *httptest.ResponseRecorder {
	r := httptest.NewRequest(method, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	return w
}

// submitJob admits one job described by body and returns its id.
func submitJob(t *testing.T, s *Server, tenant, body string) string {
	t.Helper()
	w := do(s, http.MethodPost, "/v1/tenants/"+tenant+"/jobs", []byte(body))
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit %s: status %d body %s", body, w.Code, w.Body)
	}
	var doc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	return doc.ID
}

// submitSleep admits one sleep job and returns its id.
func submitSleep(t *testing.T, s *Server, tenant string, ms int) string {
	t.Helper()
	return submitJob(t, s, tenant, fmt.Sprintf(`{"kind":"sleep","ms":%d}`, ms))
}

func jobState(t *testing.T, s *Server, tenant, id string) State {
	t.Helper()
	w := do(s, http.MethodGet, "/v1/tenants/"+tenant+"/jobs/"+id, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %s: %d %s", id, w.Code, w.Body)
	}
	var doc struct {
		State State `json:"state"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	return doc.State
}

func waitState(t *testing.T, s *Server, tenant, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := jobState(t, s, tenant, id); st == want {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, st, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkJSONErrorLine asserts the error contract: a single line of JSON
// with an "error" code, newline-terminated.
func checkJSONErrorLine(t *testing.T, w *httptest.ResponseRecorder, wantCode string) {
	t.Helper()
	body := w.Body.String()
	if !strings.HasSuffix(body, "\n") || strings.Count(body, "\n") != 1 {
		t.Fatalf("error body is not a single line: %q", body)
	}
	var doc struct {
		Error   string `json:"error"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("error body is not JSON: %q: %v", body, err)
	}
	if doc.Error != wantCode {
		t.Fatalf("error code = %q, want %q (message %q)", doc.Error, wantCode, doc.Message)
	}
}

func TestUploadDedupAndBudget(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, TenantBudgetBytes: 10})
	up := func(tenant, body string) *httptest.ResponseRecorder {
		return do(s, http.MethodPost, "/v1/tenants/"+tenant+"/traces", []byte(body))
	}
	w := up("a", "hello")
	if w.Code != http.StatusOK {
		t.Fatalf("upload: %d %s", w.Code, w.Body)
	}
	var doc struct {
		ID           string `json:"id"`
		Bytes        int    `json:"bytes"`
		Deduplicated bool   `json:"deduplicated"`
	}
	json.Unmarshal(w.Body.Bytes(), &doc)
	if doc.Bytes != 5 || doc.Deduplicated || !strings.HasPrefix(doc.ID, "sha256:") {
		t.Fatalf("upload doc = %+v", doc)
	}
	// Same bytes again: globally deduplicated, charged once.
	w = up("a", "hello")
	json.Unmarshal(w.Body.Bytes(), &doc)
	if !doc.Deduplicated {
		t.Fatalf("re-upload not deduplicated: %+v", doc)
	}
	// Another tenant uploading the same bytes shares storage.
	w = up("b", "hello")
	json.Unmarshal(w.Body.Bytes(), &doc)
	if !doc.Deduplicated {
		t.Fatalf("cross-tenant upload not deduplicated: %+v", doc)
	}
	// Budget: tenant a has 5 of 10 bytes used; 6 more must be refused.
	w = up("a", "abcdef")
	if w.Code != http.StatusInsufficientStorage {
		t.Fatalf("over-budget upload: %d %s", w.Code, w.Body)
	}
	checkJSONErrorLine(t, w, "budget_exhausted")
	// ...but 5 more still fit.
	if w = up("a", "world"); w.Code != http.StatusOK {
		t.Fatalf("in-budget upload: %d %s", w.Code, w.Body)
	}
}

func TestUploadTooLargeAndEmpty(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, MaxUploadBytes: 8})
	w := do(s, http.MethodPost, "/v1/tenants/a/traces", []byte("123456789"))
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: %d %s", w.Code, w.Body)
	}
	checkJSONErrorLine(t, w, "upload_too_large")
	w = do(s, http.MethodPost, "/v1/tenants/a/traces", nil)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("empty upload: %d %s", w.Code, w.Body)
	}
	checkJSONErrorLine(t, w, "empty_upload")
}

// TestReadBodySizedFromDeclaredLength: a declared length sizes the
// buffer once, and is not trusted — a body longer than it declared still
// arrives whole or runs into the reader's limit, a chunked one (-1) and
// a declaration over the limit fall back to io.ReadAll.
func TestReadBodySizedFromDeclaredLength(t *testing.T) {
	const limit = 64
	body := strings.Repeat("x", 40)
	for _, tc := range []struct {
		name     string
		declared int64
		wantCap  int // 0: not checked
	}{
		{"exact", 40, 40 + bytes.MinRead},
		{"declared short", 4, 0},
		{"declared long", 60, 60 + bytes.MinRead},
		{"chunked", -1, 0},
		{"declared over the limit", 1 << 40, 0},
	} {
		got, err := readBody(strings.NewReader(body), tc.declared, limit)
		if err != nil || string(got) != body {
			t.Errorf("%s: read %d bytes, %v", tc.name, len(got), err)
		}
		if tc.wantCap != 0 && cap(got) != tc.wantCap {
			t.Errorf("%s: buffer capacity %d, want %d (sized once, never regrown)", tc.name, cap(got), tc.wantCap)
		}
	}
	// The limit is the reader's, whatever was declared.
	s, _ := newTestServer(t, Config{Workers: 1, MaxUploadBytes: 8})
	r := httptest.NewRequest(http.MethodPost, "/v1/tenants/a/traces", strings.NewReader("123456789"))
	r.ContentLength = 4
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("upload longer than declared and than the limit: %d %s", w.Code, w.Body)
	}
	checkJSONErrorLine(t, w, "upload_too_large")
}

func TestSubmitValidation(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name, body, wantCode string
		wantStatus           int
	}{
		{"unknown field", `{"kind":"sleep","bogus":1}`, "bad_request", 400},
		{"unknown kind", `{"kind":"frobnicate"}`, "bad_request", 400},
		{"missing trace", `{"kind":"replay"}`, "bad_request", 400},
		{"bad format", `{"kind":"replay","trace":"sha256:00","format":"xml"}`, "bad_request", 400},
		{"bad target", `{"kind":"replay","trace":"sha256:00","target":"weird"}`, "bad_request", 400},
		{"bad method", `{"kind":"replay","trace":"sha256:00","method":"magic"}`, "bad_request", 400},
		{"slice without shards", `{"kind":"replay","trace":"sha256:00","slice_actions":5}`, "bad_request", 400},
		{"slice cap without shards", `{"kind":"chaos","trace":"sha256:00","slice_max":2}`, "bad_request", 400},
		{"slice cap over bound", `{"kind":"replay","trace":"sha256:00","shards":1,"slice_actions":5,"slice_max":65}`, "bad_request", 400},
		{"chaos fields on replay", `{"kind":"replay","trace":"sha256:00","seeds":4}`, "bad_request", 400},
		{"seeds over cap", `{"kind":"chaos","trace":"sha256:00","seeds":100000}`, "bad_request", 400},
		{"ms on replay", `{"kind":"replay","trace":"sha256:00","ms":5}`, "bad_request", 400},
		{"unknown trace", `{"kind":"replay","trace":"sha256:00"}`, "unknown_trace", 404},
	}
	for _, tc := range cases {
		w := do(s, http.MethodPost, "/v1/tenants/a/jobs", []byte(tc.body))
		if w.Code != tc.wantStatus {
			t.Errorf("%s: status %d body %s", tc.name, w.Code, w.Body)
			continue
		}
		checkJSONErrorLine(t, w, tc.wantCode)
	}
	// Sleep kind must be rejected when test kinds are off.
	s2 := New(Config{Workers: 1})
	defer func() {
		ctx, cancel := timeoutCtx(time.Second)
		defer cancel()
		s2.Shutdown(ctx)
	}()
	w := do(s2, http.MethodPost, "/v1/tenants/a/jobs", []byte(`{"kind":"sleep"}`))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("sleep without test kinds: %d %s", w.Code, w.Body)
	}
}

func TestBadTenantAndUnknownRoutes(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	w := do(s, http.MethodPost, "/v1/tenants/Bad!Name/jobs", []byte(`{"kind":"sleep"}`))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad tenant: %d", w.Code)
	}
	checkJSONErrorLine(t, w, "bad_tenant")
	w = do(s, http.MethodGet, "/v2/nope", nil)
	if w.Code != http.StatusNotFound {
		t.Fatalf("unknown route: %d", w.Code)
	}
	checkJSONErrorLine(t, w, "not_found")
	w = do(s, http.MethodPut, "/metrics", nil)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("bad method: %d", w.Code)
	}
	checkJSONErrorLine(t, w, "method_not_allowed")
}

// Backpressure: a full tenant queue answers 429 with Retry-After and a
// single-line JSON error, and the rejection is counted.
func TestBackpressure429(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, QueueBound: 2})
	running := submitSleep(t, s, "a", 30_000)
	waitState(t, s, "a", running, StateRunning)
	b := submitSleep(t, s, "a", 0)
	c := submitSleep(t, s, "a", 0)
	w := do(s, http.MethodPost, "/v1/tenants/a/jobs", []byte(`{"kind":"sleep","ms":0}`))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-bound submit: %d %s", w.Code, w.Body)
	}
	checkJSONErrorLine(t, w, "queue_full")
	if ra := w.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := s.counters.Get("artcd_rejected_backpressure"); got != 1 {
		t.Fatalf("artcd_rejected_backpressure = %d, want 1", got)
	}
	// Another tenant's admission is not affected by a's full queue
	// (the bound is per tenant, even though the one worker is shared).
	other := submitSleep(t, s, "b", 0)
	if st := jobState(t, s, "b", other); st != StateQueued && st != StateRunning && st != StateDone {
		t.Fatalf("tenant b job state = %s", st)
	}
	// Unblock: cancel the sleeper; every queued job then drains.
	do(s, http.MethodDelete, "/v1/tenants/a/jobs/"+running, nil)
	waitState(t, s, "a", running, StateCanceled)
	waitState(t, s, "a", b, StateDone)
	waitState(t, s, "a", c, StateDone)
	waitState(t, s, "b", other, StateDone)
}

func TestMetricsEndpoint(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2})
	id := submitSleep(t, s, "a", 0)
	waitState(t, s, "a", id, StateDone)
	w := do(s, http.MethodGet, "/metrics", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{"artcd_jobs_submitted 1", "artcd_jobs_done 1", "artcd_jobs_queued 0", "artcd_tenants 1"} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestResultLifecycleErrors(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, QueueBound: 4})
	running := submitSleep(t, s, "a", 30_000)
	waitState(t, s, "a", running, StateRunning)
	queued := submitSleep(t, s, "a", 0)
	w := do(s, http.MethodGet, "/v1/tenants/a/jobs/"+queued+"/result", nil)
	if w.Code != http.StatusConflict {
		t.Fatalf("result of queued job: %d %s", w.Code, w.Body)
	}
	checkJSONErrorLine(t, w, "job_not_done")
	w = do(s, http.MethodGet, "/v1/tenants/a/jobs/nope/result", nil)
	if w.Code != http.StatusNotFound {
		t.Fatalf("result of unknown job: %d", w.Code)
	}
	do(s, http.MethodDelete, "/v1/tenants/a/jobs/"+running, nil)
	waitState(t, s, "a", running, StateCanceled)
	w = do(s, http.MethodGet, "/v1/tenants/a/jobs/"+running+"/result", nil)
	if w.Code != http.StatusConflict {
		t.Fatalf("result of canceled job: %d", w.Code)
	}
	checkJSONErrorLine(t, w, "job_canceled")
	waitState(t, s, "a", queued, StateDone)
	w = do(s, http.MethodGet, "/v1/tenants/a/jobs/"+queued+"/result", nil)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "slept_ms") {
		t.Fatalf("result of done job: %d %s", w.Code, w.Body)
	}
}

func TestJobListOrder(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2, QueueBound: 8})
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, submitSleep(t, s, "a", 0))
	}
	for _, id := range ids {
		waitState(t, s, "a", id, StateDone)
	}
	w := do(s, http.MethodGet, "/v1/tenants/a/jobs", nil)
	var doc struct {
		Jobs []struct {
			ID string `json:"id"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Jobs) != 3 {
		t.Fatalf("listed %d jobs, want 3", len(doc.Jobs))
	}
	for i, j := range doc.Jobs {
		if j.ID != ids[i] {
			t.Fatalf("list order: got %s at %d, want %s", j.ID, i, ids[i])
		}
	}
}

// A tenant keeps the result bytes of its QueueBound most recent done
// jobs; an older job keeps its status document and answers 410.
func TestResultRetentionBound(t *testing.T) {
	const bound = 2
	s, _ := newTestServer(t, Config{Workers: 1, QueueBound: bound})
	var ids []string
	for i := 0; i < bound+1; i++ {
		id := submitSleep(t, s, "a", 0)
		waitState(t, s, "a", id, StateDone)
		ids = append(ids, id)
	}
	other := submitSleep(t, s, "b", 0) // another tenant's results don't count against a
	waitState(t, s, "b", other, StateDone)

	w := do(s, http.MethodGet, "/v1/tenants/a/jobs/"+ids[0]+"/result", nil)
	if w.Code != http.StatusGone {
		t.Fatalf("result of evicted job: %d %s", w.Code, w.Body)
	}
	checkJSONErrorLine(t, w, "result_evicted")
	w = do(s, http.MethodGet, "/v1/tenants/a/jobs/"+ids[0], nil)
	var doc struct {
		State         State `json:"state"`
		ResultBytes   int   `json:"result_bytes"`
		ResultEvicted bool  `json:"result_evicted"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.State != StateDone || doc.ResultBytes != 0 || !doc.ResultEvicted {
		t.Fatalf("evicted job's status: %s", w.Body)
	}
	for _, path := range []string{"a/jobs/" + ids[1], "a/jobs/" + ids[2], "b/jobs/" + other} {
		w := do(s, http.MethodGet, "/v1/tenants/"+path+"/result", nil)
		if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "slept_ms") {
			t.Fatalf("result of retained job %s: %d %s", path, w.Code, w.Body)
		}
	}
	w = do(s, http.MethodGet, "/metrics", nil)
	if !strings.Contains(w.Body.String(), "artcd_results_evicted 1\n") {
		t.Fatalf("metrics missing the eviction:\n%s", w.Body)
	}
}

// stalledWriter is a ResponseWriter whose client stopped reading: Write
// blocks until release is closed.
type stalledWriter struct {
	header  http.Header
	status  int
	body    bytes.Buffer
	once    sync.Once
	stalled chan struct{} // closed when the first Write starts
	release chan struct{}
}

func newStalledWriter() *stalledWriter {
	return &stalledWriter{header: http.Header{}, stalled: make(chan struct{}), release: make(chan struct{})}
}

func (w *stalledWriter) Header() http.Header    { return w.header }
func (w *stalledWriter) WriteHeader(status int) { w.status = status }
func (w *stalledWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.stalled) })
	<-w.release
	return w.body.Write(p)
}

// TestStalledResponseDoesNotHoldTheLock: upload and submit write their
// response after releasing the server mutex, so a client that stops
// reading leaves /healthz answering, and the bytes it gets once it reads
// again are the response it was owed.
func TestStalledResponseDoesNotHoldTheLock(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	submitSleep(t, s, "a", 60_000) // occupies the worker: the next job stays queued
	sum := sha256.Sum256([]byte("hello"))
	id := "sha256:" + hex.EncodeToString(sum[:])
	cases := []struct {
		name, path, body string
		status           int
		want             func(got []byte) string // the owed response
	}{
		{"upload", "/v1/tenants/a/traces", "hello", http.StatusOK, func([]byte) string {
			return `{"id":"` + id + `","bytes":5,"deduplicated":false}` + "\n"
		}},
		{"submit", "/v1/tenants/a/jobs", `{"kind":"sleep","ms":1}`, http.StatusAccepted, func(got []byte) string {
			var doc statusDoc
			if err := json.Unmarshal(got, &doc); err != nil {
				t.Fatalf("submit response %q: %v", got, err)
			}
			s.mu.Lock()
			want := s.statusDocLocked(s.tenants["a"].jobs[doc.ID])
			s.mu.Unlock()
			js, _ := json.Marshal(want)
			return string(js) + "\n"
		}},
	}
	for _, tc := range cases {
		w := newStalledWriter()
		handled := make(chan struct{})
		go func() {
			defer close(handled)
			s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
		}()
		<-w.stalled
		healthy := make(chan int, 1)
		go func() { healthy <- do(s, http.MethodGet, "/healthz", nil).Code }()
		select {
		case code := <-healthy:
			if code != http.StatusOK {
				t.Errorf("%s: /healthz answered %d while the response was stalled", tc.name, code)
			}
		case <-time.After(time.Second):
			t.Errorf("%s: /healthz waited on a stalled response", tc.name)
		}
		close(w.release)
		<-handled
		if w.status != tc.status || w.header.Get("Content-Type") != "application/json" {
			t.Fatalf("%s: status %d, Content-Type %q", tc.name, w.status, w.header.Get("Content-Type"))
		}
		if got, want := w.body.String(), tc.want(w.body.Bytes()); got != want {
			t.Fatalf("%s: response\n got %q\nwant %q", tc.name, got, want)
		}
	}
}
