package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"rootreplay/internal/artc"
	"rootreplay/internal/artifact"
	"rootreplay/internal/core"
	"rootreplay/internal/magritte"
	"rootreplay/internal/obs"
	"rootreplay/internal/serve"
	"rootreplay/internal/sim"
	"rootreplay/internal/snapshot"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
)

const (
	svcClients = 2 // closed loop: each client waits for its job before sending the next
	svcTarget  = "linux-ext4-ssd-noop"
	svcPoll    = time.Millisecond
)

// service is the service_magritte workload: the serve package behind a
// real HTTP listener, two closed-loop clients with a tenant each. One
// iteration is one round: every client runs all 34 Magritte traces once,
// in a fixed permutation (the second client half a turn ahead), so each
// round has the same heavy-tailed job mix. The warm-up round compiles
// every trace (artifact-cache misses); timed rounds hit the cache.
type service struct {
	inputs  []traceInput
	records []int // records in each input's trace, as the strace parser sees it
	perm    []int
	store   string // artifact store directory of the server
	direct  string // artifact store directory of the direct driver
	srv     *serve.Server
	ts      *httptest.Server

	rounds  int
	mu      sync.Mutex
	exports map[int]string // input index → digest of the export first fetched for it
	jobs    []jobSample    // every job of every round, warm-up first
	// Server counters as the warm-up round left them.
	warmHits, warmMisses, warmShared int64
}

// jobSample is one job as its client and the server's status document
// saw it, in milliseconds.
type jobSample struct {
	round                    int
	clientMs, queueMs, runMs float64
	uploadMs                 float64
	uploadBytes              int
	failed                   bool
}

func setupService(seed int64, sz sizes, scratch string) (instance, error) {
	ins, err := magritteInputs(seed, sz.svcScale)
	if err != nil {
		return nil, err
	}
	w := &service{inputs: ins, perm: rand.New(rand.NewSource(seed)).Perm(len(ins)),
		store: filepath.Join(scratch, "service-store"), direct: filepath.Join(scratch, "direct-store"),
		exports: make(map[int]string)}
	for _, in := range ins {
		tr, err := trace.ParseStrace(bytes.NewReader(in.strace))
		if err != nil {
			return nil, err
		}
		w.records = append(w.records, len(tr.Records))
	}
	store, err := artifact.Open(w.store, 0)
	if err != nil {
		return nil, err
	}
	w.srv = serve.New(serve.Config{Store: store, Workers: procs, QueueBound: 64})
	w.ts = httptest.NewServer(w.srv)
	return w, nil
}

func (w *service) close() {
	w.ts.Close()
	w.srv.Shutdown(context.Background())
}

// call sends one request and returns the body of a 2xx answer.
func (w *service) call(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, w.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := w.ts.Client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func (w *service) upload(tenant string, body []byte) (string, error) {
	data, err := w.call(http.MethodPost, "/v1/tenants/"+tenant+"/traces", body)
	if err != nil {
		return "", err
	}
	var doc struct {
		ID string `json:"id"`
	}
	err = json.Unmarshal(data, &doc)
	return doc.ID, err
}

// runJob is one job as a user of the service does it: upload the trace
// and its snapshot, submit an export job, poll until it ends, fetch the
// result. The latency runs from the first byte sent to the result bytes
// in hand.
func (w *service) runJob(sp *span, tenant string, input int) (jobSample, []byte, error) {
	in := w.inputs[input]
	js := jobSample{uploadBytes: len(in.strace) + len(in.snap)}
	t0 := time.Now()
	s := sp.child("serve.upload")
	traceID, err := w.upload(tenant, in.strace)
	var snapID string
	if err == nil {
		snapID, err = w.upload(tenant, in.snap)
	}
	s.done()
	js.uploadMs = float64(time.Since(t0)) / 1e6
	if err != nil {
		return js, nil, err
	}
	s = sp.child("serve.submit")
	body, _ := json.Marshal(map[string]any{"kind": "export", "trace": traceID, "snapshot": snapID,
		"format": "strace", "target": svcTarget, "warm": true})
	data, err := w.call(http.MethodPost, "/v1/tenants/"+tenant+"/jobs", body)
	s.done()
	if err != nil {
		return js, nil, err
	}
	var status struct {
		ID, State, Error           string
		Created, Started, Finished time.Time
	}
	if err := json.Unmarshal(data, &status); err != nil {
		return js, nil, err
	}
	s = sp.child("serve.poll")
	for status.State == "queued" || status.State == "running" {
		time.Sleep(svcPoll)
		if data, err = w.call(http.MethodGet, "/v1/tenants/"+tenant+"/jobs/"+status.ID, nil); err == nil {
			err = json.Unmarshal(data, &status)
		}
		if err != nil {
			s.done()
			return js, nil, err
		}
	}
	s.done()
	if status.State != "done" {
		return js, nil, fmt.Errorf("job %s %s: %s", status.ID, status.State, status.Error)
	}
	s = sp.child("serve.result")
	export, err := w.call(http.MethodGet, "/v1/tenants/"+tenant+"/jobs/"+status.ID+"/result", nil)
	s.done()
	js.clientMs = float64(time.Since(t0)) / 1e6
	js.queueMs = float64(status.Started.Sub(status.Created)) / 1e6
	js.runMs = float64(status.Finished.Sub(status.Started)) / 1e6
	return js, export, err
}

// inputOf is the k-th trace of client c's round: the shared permutation,
// each client starting an equal share of a turn after the one before.
func (w *service) inputOf(c, k int) int {
	return w.perm[(k+c*len(w.perm)/svcClients)%len(w.perm)]
}

func (w *service) iterate(sp *span) (iterOut, error) {
	round := w.rounds
	w.rounds++
	var out iterOut
	var wg sync.WaitGroup
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := fmt.Sprintf("client%d", c)
			cs := sp.fork("bench.client", c+1)
			defer cs.done()
			for k := range w.perm {
				input := w.inputOf(c, k)
				js, export, err := func() (jobSample, []byte, error) {
					s := cs.child("bench.job")
					defer s.done()
					return w.runJob(s, tenant, input)
				}()
				js.round = round
				sum := sha256.Sum256(export)
				digest := hex.EncodeToString(sum[:])
				w.mu.Lock()
				out.attempted++
				if first, seen := w.exports[input]; !seen && err == nil {
					w.exports[input] = digest
				} else if err != nil || digest != first {
					// A failed or refused job, or an export that differs from
					// the one this trace produced before.
					js.failed = true
					out.failed++
				}
				if !js.failed {
					out.records += w.records[input]
					out.jobMs = append(out.jobMs, js.clientMs)
				}
				w.jobs = append(w.jobs, js)
				w.mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if round == 0 {
		c := w.srv.Counters()
		w.warmHits, w.warmMisses = c.Get("artcd_cache_hits"), c.Get("artcd_cache_misses")
		w.warmShared = c.Get("artcd_compiles_shared")
	}
	// Every round fetches the same exports, so the digest of a round is
	// the digest of the per-trace export digests.
	h := sha256.New()
	for i := range w.inputs {
		fmt.Fprintf(h, "%d %s\n", i, w.exports[i])
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	return out, nil
}

// directExport is the same job without the service: compile through an
// artifact store and replay with the driver serve/run.go uses, so the
// export must equal the one fetched over HTTP byte for byte.
func directExport(store *artifact.Store, in traceInput) ([]byte, error) {
	snap, err := snapshot.Decode(bytes.NewReader(in.snap))
	if err != nil {
		return nil, err
	}
	b, _, err := artifact.CompileStrace(store, in.strace, snap, core.DefaultModes())
	if err != nil {
		return nil, err
	}
	conf, err := stack.ParseTarget(svcTarget, 0, 0)
	if err != nil {
		return nil, err
	}
	sys := stack.New(sim.NewKernel(), conf)
	if err := magritte.InitTarget(sys, b, true); err != nil {
		return nil, err
	}
	sys.WarmAll()
	rec := obs.NewRecorder(0, 0)
	if _, err := artc.Replay(sys, b, artc.Options{Method: artc.MethodARTC, Obs: rec}); err != nil {
		return nil, err
	}
	var export bytes.Buffer
	err = rec.WriteChrome(&export)
	return export.Bytes(), err
}

// verify compares every export fetched over HTTP with the direct
// driver's export of the same trace.
func (w *service) verify() (attempted, failed int, err error) {
	store, err := artifact.Open(w.direct, 0)
	if err != nil {
		return 0, 0, err
	}
	for i, in := range w.inputs {
		export, err := directExport(store, in)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", in.name, err)
		}
		sum := sha256.Sum256(export)
		attempted++
		if hex.EncodeToString(sum[:]) != w.exports[i] {
			failed++
		}
	}
	return attempted, failed, nil
}

func (w *service) detail(sp *span, m map[string]float64, iterS float64) error {
	var client, queue, run, missRun, overhead []float64
	var uploadBytes, uploadMs float64
	rejected := 0
	for _, j := range w.jobs {
		if j.failed {
			rejected++
			continue
		}
		if j.round == 0 {
			missRun = append(missRun, j.runMs)
			continue
		}
		client = append(client, j.clientMs)
		queue = append(queue, j.queueMs)
		run = append(run, j.runMs)
		overhead = append(overhead, j.clientMs-j.queueMs-j.runMs)
		uploadBytes += float64(j.uploadBytes)
		uploadMs += j.uploadMs
	}
	m["serve.job_latency_p95_ms"] = quantile(client, 0.95)
	m["serve.queue_wait_ms_p50"] = median(queue)
	m["serve.queue_wait_ms_p95"] = quantile(queue, 0.95)
	m["serve.run_ms_p50"] = median(run)
	m["serve.run_ms_p95"] = quantile(run, 0.95)
	// Every timed job hits the artifact cache, every warm-up job that did
	// not share a compile in flight misses it.
	m["serve.hit_run_ms_p50"] = median(run)
	m["serve.miss_run_ms_p50"] = median(missRun)
	m["serve.http_overhead_ms_p50"] = median(overhead)
	m["serve.upload_mb_per_s"] = ratio(uploadBytes/1e6, uploadMs/1e3)
	m["serve.rejected_share"] = ratio(float64(rejected), float64(len(w.jobs)))
	c := w.srv.Counters()
	m["serve.http_requests_per_job"] = ratio(float64(c.Get("artcd_http_requests")), float64(len(w.jobs)))
	// Artifact-cache hits over look-ups in the timed rounds, and compiles
	// the two clients shared in flight during the warm-up round.
	hits, misses := c.Get("artcd_cache_hits")-w.warmHits, c.Get("artcd_cache_misses")-w.warmMisses
	m["serve.cache_hit_share"] = ratio(float64(hits), float64(hits+misses))
	m["serve.compiles_shared"] = float64(w.warmShared)

	// One round's jobs through the direct driver on two goroutines, the
	// artifact store warm as it is for a timed round: what the service
	// adds on top (HTTP, admission, dispatch, polling).
	store, err := artifact.Open(w.direct, 0)
	if err != nil {
		return err
	}
	runtime.GC()
	s := sp.child("bench.directRound")
	t0 := time.Now()
	errs := make([]error, svcClients)
	var wg sync.WaitGroup
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := range w.perm {
				if _, err := directExport(store, w.inputs[w.inputOf(c, k)]); err != nil {
					errs[c] = err
				}
			}
		}(c)
	}
	wg.Wait()
	directS := time.Since(t0).Seconds()
	s.done()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	m["serve.vs_direct_ratio"] = directS / iterS
	return nil
}
