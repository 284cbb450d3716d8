package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// routes wires the mux. Method checks live inside each handler so every
// failure — wrong path, wrong method, bad input — speaks the same
// single-line JSON error contract.
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/tenants/{tenant}/traces", s.handleUpload)
	s.mux.HandleFunc("/v1/tenants/{tenant}/jobs", s.handleJobs)
	s.mux.HandleFunc("/v1/tenants/{tenant}/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("/v1/tenants/{tenant}/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.jsonError(w, http.StatusNotFound, "not_found", "unknown endpoint "+r.URL.Path)
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.counters.Add("artcd_http_requests", 1)
	s.mux.ServeHTTP(w, r)
}

// jsonError writes the error contract: one line of JSON, then newline.
func (s *Server) jsonError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	doc, _ := json.Marshal(struct {
		Error   string `json:"error"`
		Message string `json:"message"`
	}{code, msg})
	w.Write(append(doc, '\n'))
}

// writeJSON writes a 2xx JSON document (one line, newline-terminated,
// like every other body the service emits).
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	doc, err := json.Marshal(v)
	if err != nil {
		s.jsonError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(doc, '\n'))
}

// pathTenant validates the {tenant} path segment, writing the error
// response itself on failure.
func (s *Server) pathTenant(w http.ResponseWriter, r *http.Request) (string, bool) {
	name := r.PathValue("tenant")
	if !tenantNameRE.MatchString(name) {
		s.jsonError(w, http.StatusBadRequest, "bad_tenant",
			"tenant must match "+tenantNameRE.String())
		return "", false
	}
	return name, true
}

// methodCheck writes a 405 (with Allow) unless r uses one of the given
// methods.
func (s *Server) methodCheck(w http.ResponseWriter, r *http.Request, allow ...string) bool {
	for _, m := range allow {
		if r.Method == m {
			return true
		}
	}
	for _, m := range allow {
		w.Header().Add("Allow", m)
	}
	s.jsonError(w, http.StatusMethodNotAllowed, "method_not_allowed",
		r.Method+" not allowed here")
	return false
}

// handleUpload is POST /v1/tenants/{t}/traces: store the body as a
// content-addressed blob. Identical bytes — within a tenant or across
// tenants — share one stored copy; each tenant's budget is charged once
// per distinct blob it references.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	if !s.methodCheck(w, r, http.MethodPost) {
		return
	}
	name, ok := s.pathTenant(w, r)
	if !ok {
		return
	}
	body, err := readBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes), r.ContentLength, s.cfg.MaxUploadBytes)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.jsonError(w, http.StatusRequestEntityTooLarge, "upload_too_large",
				fmt.Sprintf("body exceeds %d bytes", s.cfg.MaxUploadBytes))
			return
		}
		s.jsonError(w, http.StatusBadRequest, "bad_body", err.Error())
		return
	}
	if len(body) == 0 {
		s.jsonError(w, http.StatusBadRequest, "empty_upload", "empty body")
		return
	}
	sum := sha256.Sum256(body)
	id := "sha256:" + hex.EncodeToString(sum[:])

	// Like every handler, this one writes only after releasing s.mu: a
	// client that stops reading must not hold up /healthz, the dispatcher
	// and every other tenant.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.jsonError(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	t := s.tenantLocked(name)
	_, dedupGlobal := s.blobs[id]
	if _, charged := t.uploads[id]; !charged {
		if t.used+int64(len(body)) > s.cfg.TenantBudgetBytes {
			s.counters.Add("artcd_rejected_budget", 1)
			s.mu.Unlock()
			s.jsonError(w, http.StatusInsufficientStorage, "budget_exhausted",
				fmt.Sprintf("tenant upload budget %d bytes exhausted", s.cfg.TenantBudgetBytes))
			return
		}
		t.uploads[id] = int64(len(body))
		t.used += int64(len(body))
	}
	if !dedupGlobal {
		s.blobs[id] = body
	}
	s.counters.Add("artcd_uploads", 1)
	s.counters.Add("artcd_upload_bytes", int64(len(body)))
	s.mu.Unlock()
	s.writeJSON(w, http.StatusOK, struct {
		ID           string `json:"id"`
		Bytes        int    `json:"bytes"`
		Deduplicated bool   `json:"deduplicated"`
	}{id, len(body), dedupGlobal})
}

// readBody is io.ReadAll into a buffer sized from the declared length
// when that is within the limit: bytes.MinRead over, so a body of that
// length ends without the buffer growing, and a longer one grows it and
// runs into r's own limit. A chunked body (length -1) goes to io.ReadAll.
func readBody(r io.Reader, declared, limit int64) ([]byte, error) {
	if declared <= 0 || declared > limit {
		return io.ReadAll(r)
	}
	buf := bytes.NewBuffer(make([]byte, 0, declared+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// handleJobs is POST (submit) / GET (list) on /v1/tenants/{t}/jobs.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleSubmit(w, r)
	case http.MethodGet:
		s.handleList(w, r)
	default:
		s.methodCheck(w, r, http.MethodPost, http.MethodGet)
	}
}

// handleSubmit admits a job or rejects it with explicit backpressure:
// 429 + Retry-After on a full tenant queue, 503 while draining.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	name, ok := s.pathTenant(w, r)
	if !ok {
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var req jobRequest
	if err := dec.Decode(&req); err != nil {
		s.jsonError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if msg := s.normalize(&req); msg != "" {
		s.jsonError(w, http.StatusBadRequest, "bad_request", msg)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.jsonError(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	t := s.tenantLocked(name)
	// A job with a trace names only blobs its tenant uploaded.
	for _, up := range []struct{ what, id string }{{"trace", req.Trace}, {"snapshot", req.Snapshot}} {
		if _, ok := t.uploads[up.id]; req.Trace != "" && up.id != "" && !ok {
			s.mu.Unlock()
			s.jsonError(w, http.StatusNotFound, "unknown_"+up.what,
				up.what+" "+up.id+" was not uploaded by this tenant")
			return
		}
	}
	if t.queued >= s.cfg.QueueBound {
		s.counters.Add("artcd_rejected_backpressure", 1)
		retry := strconv.Itoa(s.retryAfterLocked())
		s.mu.Unlock()
		w.Header().Set("Retry-After", retry)
		s.jsonError(w, http.StatusTooManyRequests, "queue_full",
			fmt.Sprintf("tenant queue bound %d reached", s.cfg.QueueBound))
		return
	}
	doc := s.statusDocLocked(s.admitLocked(t, req))
	s.mu.Unlock()
	s.writeJSON(w, http.StatusAccepted, doc)
}

// statusDoc is the job-status JSON shape.
type statusDoc struct {
	ID            string `json:"id"`
	Tenant        string `json:"tenant"`
	Kind          string `json:"kind"`
	State         State  `json:"state"`
	Error         string `json:"error,omitempty"`
	Created       string `json:"created"`
	Started       string `json:"started,omitempty"`
	Finished      string `json:"finished,omitempty"`
	ResultBytes   int    `json:"result_bytes,omitempty"`
	ResultEvicted bool   `json:"result_evicted,omitempty"` // done, bytes no longer held
}

func (s *Server) statusDocLocked(j *Job) statusDoc {
	doc := statusDoc{
		ID:            j.ID,
		Tenant:        j.Tenant,
		Kind:          j.Kind,
		State:         j.state,
		Error:         j.errMsg,
		Created:       j.created.UTC().Format(time.RFC3339Nano),
		ResultBytes:   len(j.result),
		ResultEvicted: j.resultEvicted,
	}
	if !j.started.IsZero() {
		doc.Started = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		doc.Finished = j.finished.UTC().Format(time.RFC3339Nano)
	}
	return doc
}

// handleList is GET /v1/tenants/{t}/jobs: every job in submission
// order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	name, ok := s.pathTenant(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	docs := []statusDoc{}
	if t := s.tenants[name]; t != nil {
		for _, id := range t.jobOrder {
			docs = append(docs, s.statusDocLocked(t.jobs[id]))
		}
	}
	s.mu.Unlock()
	s.writeJSON(w, http.StatusOK, struct {
		Jobs []statusDoc `json:"jobs"`
	}{docs})
}

// lookupJob resolves {tenant}/{id}, writing the 404 itself on failure.
func (s *Server) lookupJobLocked(w http.ResponseWriter, r *http.Request) (*tenant, *Job, bool) {
	name, ok := s.pathTenant(w, r)
	if !ok {
		return nil, nil, false
	}
	t := s.tenants[name]
	if t != nil {
		if j := t.jobs[r.PathValue("id")]; j != nil {
			return t, j, true
		}
	}
	s.jsonError(w, http.StatusNotFound, "unknown_job",
		"no job "+r.PathValue("id")+" for tenant "+name)
	return nil, nil, false
}

// handleJob is GET (status) / DELETE (cancel) on a single job.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.mu.Lock()
		_, j, ok := s.lookupJobLocked(w, r)
		if !ok {
			s.mu.Unlock()
			return
		}
		doc := s.statusDocLocked(j)
		s.mu.Unlock()
		s.writeJSON(w, http.StatusOK, doc)
	case http.MethodDelete:
		s.mu.Lock()
		t, j, ok := s.lookupJobLocked(w, r)
		if !ok {
			s.mu.Unlock()
			return
		}
		s.cancelJobLocked(t, j)
		doc := s.statusDocLocked(j)
		s.mu.Unlock()
		s.writeJSON(w, http.StatusOK, doc)
	default:
		s.methodCheck(w, r, http.MethodGet, http.MethodDelete)
	}
}

// handleResult serves a finished job's artifact: the report JSON
// (replay), the Perfetto export (export), or the chaos verdict (chaos).
// A job that is not done answers 409 with its current state, so pollers
// can distinguish "not yet" from "never"; a done job whose result has
// left retention answers 410.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	if !s.methodCheck(w, r, http.MethodGet) {
		return
	}
	s.mu.Lock()
	_, j, ok := s.lookupJobLocked(w, r)
	if !ok {
		s.mu.Unlock()
		return
	}
	st := j.state
	errMsg := j.errMsg
	result := j.result
	ctype := j.resultType
	evicted := j.resultEvicted
	s.mu.Unlock()
	switch st {
	case StateDone:
		if evicted {
			s.jsonError(w, http.StatusGone, "result_evicted",
				"result no longer retained; only a tenant's most recent results are kept")
			return
		}
		w.Header().Set("Content-Type", ctype)
		w.Header().Set("Content-Length", strconv.Itoa(len(result)))
		w.Write(result)
	case StateFailed:
		s.jsonError(w, http.StatusConflict, "job_failed", errMsg)
	case StateCanceled:
		s.jsonError(w, http.StatusConflict, "job_canceled", "job was canceled")
	default:
		s.jsonError(w, http.StatusConflict, "job_not_done", "job state is "+string(st))
	}
}

// handleMetrics is GET /metrics: the counter set in sorted "name value"
// lines, plus a derived cache hit rate so operators don't divide.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !s.methodCheck(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.counters.WriteTo(w)
	hits := s.counters.Get("artcd_cache_hits")
	misses := s.counters.Get("artcd_cache_misses")
	if total := hits + misses; total > 0 {
		fmt.Fprintf(w, "artcd_cache_hit_rate_permille %d\n", hits*1000/total)
	}
}

// handleHealthz is GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.methodCheck(w, r, http.MethodGet) {
		return
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	s.writeJSON(w, http.StatusOK, struct {
		OK       bool `json:"ok"`
		Draining bool `json:"draining"`
	}{true, draining})
}
