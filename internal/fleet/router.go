package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"occamy/internal/service"
)

// Config sizes a Router.
type Config struct {
	// Workers are the occamy-served base URLs ("http://host:port"),
	// unique, in any order (the ring hashes their names, not their
	// positions).
	Workers []string
	// Replicas is the virtual-node count per worker (default
	// DefaultReplicas).
	Replicas int
	// MaxSweepPoints caps one sweep's expanded grid (default 256); the
	// sweep service checks it in O(axes) before expansion, exactly as a
	// worker does.
	MaxSweepPoints int
	// RatePerClient and Burst shape the per-client token bucket guarding
	// the submission endpoints; RatePerClient <= 0 disables limiting.
	RatePerClient float64
	Burst         float64
	// SweepCacheBytes budgets the router's aggregated-sweep result cache
	// (default 64 MB). Individual run results are never cached here —
	// they live on their home shard.
	SweepCacheBytes int64
	// PointTimeout bounds one sweep point's submit-to-done wait (default
	// 10m).
	PointTimeout time.Duration
	// Client overrides the HTTP client used to reach workers.
	Client *http.Client
	// Logger receives structured request and sweep-lifecycle records
	// (occamy-router wires a JSON handler behind -log-level). nil
	// discards everything.
	Logger *slog.Logger
}

// Counters is the router's own cumulative ledger, reported under
// "router" in GET /v1/stats (the worker ledgers are merged separately).
type Counters struct {
	// Routed counts POST /v1/runs submissions forwarded to a shard;
	// Proxied the forwarded reads/cancels (status, trace, delete).
	Routed  int64 `json:"routed"`
	Proxied int64 `json:"proxied"`
	// Sweeps counts POST /v1/sweeps accepted; SweepCacheHits the ones
	// answered from the aggregated-table cache (both read from the
	// embedded sweep service's ledger); SweepPoints the grid points
	// fanned out to workers.
	Sweeps         int64 `json:"sweeps"`
	SweepCacheHits int64 `json:"sweep_cache_hits"`
	SweepPoints    int64 `json:"sweep_points"`
	// BatchSpecs counts specs submitted through POST /v1/batch.
	BatchSpecs int64 `json:"batch_specs"`
	// RateLimited counts 429s; WorkerErrors the 502s returned because a
	// shard was unreachable.
	RateLimited  int64 `json:"rate_limited"`
	WorkerErrors int64 `json:"worker_errors"`
}

// Router fronts a fleet of occamy-served workers. Runs are routed by
// consistent hash over the spec fingerprint — the same partition key
// the workers' content-addressed caches use — so every spec has exactly
// one home shard and resubmissions are fleet-wide O(1) cache hits.
// Sweeps are jobs of an embedded service.Service whose sweep runner
// fans each grid point out to its home shard and re-assembles the
// aggregate byte-identically to a single-process sweep. The router
// itself holds no simulation state: killing it loses nothing but the
// in-flight sweep aggregations.
type Router struct {
	workers   []string
	ring      *Ring
	client    *http.Client
	limiter   *RateLimiter
	sweeps    *service.Service
	pointWait time.Duration
	started   time.Time
	endpoints service.Endpoints
	logger    *slog.Logger

	mu       sync.Mutex
	counters Counters
}

// NewRouter builds a router over the worker fleet.
func NewRouter(cfg Config) (*Router, error) {
	ring, err := NewRing(cfg.Workers, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	if cfg.SweepCacheBytes <= 0 {
		cfg.SweepCacheBytes = 64 << 20
	}
	if cfg.PointTimeout <= 0 {
		cfg.PointTimeout = 10 * time.Minute
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	rt := &Router{
		workers:   ring.Nodes(),
		ring:      ring,
		client:    client,
		limiter:   NewRateLimiter(cfg.RatePerClient, cfg.Burst),
		pointWait: cfg.PointTimeout,
		started:   time.Now(),
		endpoints: service.NewEndpoints(),
		logger:    cfg.Logger,
	}
	rt.sweeps, err = service.New(service.Config{
		Workers:        sweepWorkers,
		MaxSweepPoints: cfg.MaxSweepPoints,
		CacheBytes:     cfg.SweepCacheBytes,
		Logger:         cfg.Logger,
		SweepRunner:    rt.runSweep,
	})
	if err != nil {
		return nil, err
	}
	return rt, nil
}

// Close shuts the sweep service down: queued sweeps are canceled and
// running ones stop polling their points (which keep running, and stay
// cached, on their shards).
func (rt *Router) Close() { rt.sweeps.Close() }

// Handler returns the router's HTTP API — the same surface as one
// occamy-served, fleet-wide, behind the same instrumented-route
// middleware.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := rt.endpoints.Instrument(mux, rt.logger)
	handle("GET /v1/scenarios", rt.handleScenarios)
	handle("GET /v1/scenarios/{name}", rt.handleScenarioExport)
	handle("POST /v1/runs", rt.handleSubmit)
	handle("GET /v1/runs", rt.handleJobs)
	handle("GET /v1/runs/{id}", rt.handleJob)
	handle("GET /v1/runs/{id}/trace.csv", rt.handleTrace)
	handle("DELETE /v1/runs/{id}", rt.handleCancel)
	handle("POST /v1/sweeps", rt.handleSweep)
	handle("POST /v1/batch", rt.handleBatch)
	handle("GET /v1/cache", rt.handleCache)
	handle("GET /v1/stats", rt.handleStats)
	handle("GET /metrics", rt.handleMetrics)
	return mux
}

// Job-ID shard encoding
//
// The router issues run IDs of the form "w<shard>.<worker id>" (e.g.
// "w1.r42"): the shard index names the worker that owns the job, so
// status polls, trace fetches, and cancels route without any router
// state. Sweep jobs belong to the embedded sweep service; its job
// "r<seq>" is the router's "g<seq>".

func routerID(shard int, workerID string) string {
	return fmt.Sprintf("w%d.%s", shard, workerID)
}

// parseRunID splits a router run ID into its shard and the worker's
// path for the job, escaped so the ID cannot smuggle a query or a path
// segment to the worker.
func (rt *Router) parseRunID(id string) (int, string, bool) {
	rest, ok := strings.CutPrefix(id, "w")
	if !ok {
		return 0, "", false
	}
	dot := strings.IndexByte(rest, '.')
	if dot <= 0 {
		return 0, "", false
	}
	shard, err := strconv.Atoi(rest[:dot])
	if err != nil || shard < 0 || shard >= len(rt.workers) {
		return 0, "", false
	}
	return shard, "/v1/runs/" + url.PathEscape(rest[dot+1:]), true
}

// sweepID maps a sweep-service job ID to the router's "g<seq>" form.
func sweepID(serviceID string) string { return "g" + strings.TrimPrefix(serviceID, "r") }

// parseSweepID is sweepID's inverse.
func parseSweepID(id string) (string, bool) {
	seq, ok := strings.CutPrefix(id, "g")
	return "r" + seq, ok
}

// clientKey identifies the rate-limited principal: an explicit
// X-Client-ID header when present, else the remote host (sans port, so
// reconnects share one bucket).
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// admit charges n tokens to the request's client; on refusal it writes
// the 429 (with Retry-After rounded up to whole seconds) and returns
// false.
func (rt *Router) admit(w http.ResponseWriter, r *http.Request, n int) bool {
	ok, retryAfter := rt.limiter.AllowN(clientKey(r), n)
	if ok {
		return true
	}
	rt.count(func(c *Counters) { c.RateLimited++ })
	secs := int(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	service.HTTPError(w, http.StatusTooManyRequests, "rate limit exceeded for client %q; retry in %ds", clientKey(r), secs)
	return false
}

// count bumps one router counter under the lock.
func (rt *Router) count(f func(*Counters)) {
	rt.mu.Lock()
	f(&rt.counters)
	rt.mu.Unlock()
}

// --- worker I/O -------------------------------------------------------

// workerResponse is one buffered worker reply.
type workerResponse struct {
	status int
	header http.Header
	body   []byte
}

// callWorker performs one request against a shard, buffering the body
// (bounded) and propagating the trace ID so the worker's logs and job
// ledger carry the router's request identity. Transport errors — the
// shard is down — come back as an error; HTTP-level failures are the
// caller's to interpret.
func (rt *Router) callWorker(shard int, method, path string, body []byte, trace string) (*workerResponse, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, rt.workers[shard]+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if trace != "" {
		req.Header.Set(service.TraceHeader, trace)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.count(func(c *Counters) { c.WorkerErrors++ })
		return nil, fmt.Errorf("worker %d (%s) unreachable: %v", shard, rt.workers[shard], err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		rt.count(func(c *Counters) { c.WorkerErrors++ })
		return nil, fmt.Errorf("worker %d (%s): reading response: %v", shard, rt.workers[shard], err)
	}
	return &workerResponse{status: resp.StatusCode, header: resp.Header, body: data}, nil
}

// relay copies a buffered worker response to the client verbatim,
// preserving the headers a backoff loop cares about.
func relay(w http.ResponseWriter, resp *workerResponse) {
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.status)
	_, _ = w.Write(resp.body)
}

// reqTrace reads the request's trace ID; the Handler middleware has
// already ensured it is present and well-formed.
func reqTrace(r *http.Request) string { return r.Header.Get(service.TraceHeader) }

// proxyAny forwards a fleet-agnostic read (catalog listing/export) to
// the first worker that answers.
func (rt *Router) proxyAny(w http.ResponseWriter, path, trace string) {
	var lastErr error
	for shard := range rt.workers {
		resp, err := rt.callWorker(shard, http.MethodGet, path, nil, trace)
		if err != nil {
			lastErr = err
			continue
		}
		relay(w, resp)
		return
	}
	service.HTTPError(w, http.StatusBadGateway, "no worker reachable: %v", lastErr)
}

func (rt *Router) handleScenarios(w http.ResponseWriter, r *http.Request) {
	rt.proxyAny(w, "/v1/scenarios", reqTrace(r))
}

func (rt *Router) handleScenarioExport(w http.ResponseWriter, r *http.Request) {
	path := "/v1/scenarios/" + url.PathEscape(r.PathValue("name"))
	if scale := r.URL.Query().Get("scale"); scale != "" {
		path += "?" + url.Values{"scale": {scale}}.Encode()
	}
	rt.proxyAny(w, path, reqTrace(r))
}

// --- runs -------------------------------------------------------------

func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if !rt.admit(w, r, 1) {
		return
	}
	spec, status, err := service.ReadSpec(r)
	if err != nil {
		service.HTTPError(w, status, "%v", err)
		return
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		service.HTTPError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// The spec's home shard is a pure function of its fingerprint — the
	// very key the worker's cache uses — so equal and equivalent specs
	// always land where their result already lives.
	shard := rt.ring.Lookup(fp)
	body, err := spec.Marshal()
	if err != nil {
		service.HTTPError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	resp, err := rt.callWorker(shard, http.MethodPost, "/v1/runs", body, reqTrace(r))
	if err != nil {
		service.HTTPError(w, http.StatusBadGateway, "%v", err)
		return
	}
	rt.count(func(c *Counters) { c.Routed++ })
	if resp.status != http.StatusAccepted {
		relay(w, resp)
		return
	}
	var st service.JobStatus
	if err := json.Unmarshal(resp.body, &st); err != nil {
		service.HTTPError(w, http.StatusBadGateway, "worker %d: undecodable job status: %v", shard, err)
		return
	}
	st.ID = routerID(shard, st.ID)
	service.WriteJSON(w, http.StatusAccepted, st)
}

// jobView mirrors the worker's GET /v1/runs/{id} response shape.
type jobView struct {
	service.JobStatus
	Result json.RawMessage `json:"result,omitempty"`
}

func (rt *Router) handleJobs(w http.ResponseWriter, r *http.Request) {
	var runs []service.JobStatus
	for shard := range rt.workers {
		resp, err := rt.callWorker(shard, http.MethodGet, "/v1/runs", nil, reqTrace(r))
		if err != nil || resp.status != http.StatusOK {
			continue // a dead shard degrades the listing, not the fleet
		}
		var page struct {
			Runs []service.JobStatus `json:"runs"`
		}
		if json.Unmarshal(resp.body, &page) != nil {
			continue
		}
		for _, st := range page.Runs {
			st.ID = routerID(shard, st.ID)
			runs = append(runs, st)
		}
	}
	for _, st := range rt.sweeps.Jobs() {
		st.ID = sweepID(st.ID)
		runs = append(runs, st)
	}
	service.WriteJSON(w, http.StatusOK, map[string]any{"runs": runs})
}

func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if sid, ok := parseSweepID(id); ok {
		st, ok := rt.sweeps.Get(sid)
		if !ok {
			service.HTTPError(w, http.StatusNotFound, "no run %s", id)
			return
		}
		st.ID = id
		view := jobView{JobStatus: st}
		view.Result, _ = rt.sweeps.Result(sid)
		service.WriteJSON(w, http.StatusOK, view)
		return
	}
	shard, path, ok := rt.parseRunID(id)
	if !ok {
		service.HTTPError(w, http.StatusNotFound, "no run %s", id)
		return
	}
	resp, err := rt.callWorker(shard, http.MethodGet, path, nil, reqTrace(r))
	if err != nil {
		service.HTTPError(w, http.StatusBadGateway, "%v", err)
		return
	}
	rt.count(func(c *Counters) { c.Proxied++ })
	if resp.status != http.StatusOK {
		relay(w, resp)
		return
	}
	var view jobView
	if err := json.Unmarshal(resp.body, &view); err != nil {
		service.HTTPError(w, http.StatusBadGateway, "worker %d: undecodable job view: %v", shard, err)
		return
	}
	view.ID = routerID(shard, view.ID)
	service.WriteJSON(w, http.StatusOK, view)
}

func (rt *Router) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	shard, path, ok := rt.parseRunID(id)
	if !ok {
		service.HTTPError(w, http.StatusNotFound, "no run %s", id)
		return
	}
	path += "/trace.csv"
	if stride := r.URL.Query().Get("stride"); stride != "" {
		path += "?" + url.Values{"stride": {stride}}.Encode()
	}
	resp, err := rt.callWorker(shard, http.MethodGet, path, nil, reqTrace(r))
	if err != nil {
		service.HTTPError(w, http.StatusBadGateway, "%v", err)
		return
	}
	rt.count(func(c *Counters) { c.Proxied++ })
	relay(w, resp)
}

func (rt *Router) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if sid, ok := parseSweepID(id); ok {
		st, ok := rt.sweeps.Cancel(sid)
		if !ok {
			service.HTTPError(w, http.StatusNotFound, "no run %s", id)
			return
		}
		st.ID = id
		service.WriteJSON(w, http.StatusOK, st)
		return
	}
	shard, path, ok := rt.parseRunID(id)
	if !ok {
		service.HTTPError(w, http.StatusNotFound, "no run %s", id)
		return
	}
	resp, err := rt.callWorker(shard, http.MethodDelete, path, nil, reqTrace(r))
	if err != nil {
		service.HTTPError(w, http.StatusBadGateway, "%v", err)
		return
	}
	rt.count(func(c *Counters) { c.Proxied++ })
	if resp.status != http.StatusOK {
		relay(w, resp)
		return
	}
	var st service.JobStatus
	if err := json.Unmarshal(resp.body, &st); err != nil {
		service.HTTPError(w, http.StatusBadGateway, "worker %d: undecodable job status: %v", shard, err)
		return
	}
	st.ID = routerID(shard, st.ID)
	service.WriteJSON(w, http.StatusOK, st)
}
