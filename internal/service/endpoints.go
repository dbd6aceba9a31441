package service

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"occamy/internal/metrics"
)

// Shared HTTP plumbing
//
// occamy-served and occamy-router serve the same route set through the
// same middleware and the same JSON response helpers; this file is the
// one copy both tiers use.

// endpointPatterns is the instrumented route set; both tiers' handlers
// register exactly these.
var endpointPatterns = []string{
	"GET /v1/scenarios",
	"GET /v1/scenarios/{name}",
	"POST /v1/runs",
	"GET /v1/runs",
	"GET /v1/runs/{id}",
	"GET /v1/runs/{id}/trace.csv",
	"DELETE /v1/runs/{id}",
	"POST /v1/sweeps",
	"POST /v1/batch",
	"GET /v1/cache",
	"GET /v1/stats",
	"GET /metrics",
}

// Endpoints holds one handler-latency histogram per route pattern. The
// histograms are internally lock-free, so the map is read-only after
// NewEndpoints.
type Endpoints map[string]*metrics.Histogram

// NewEndpoints allocates the histograms for the instrumented route set.
func NewEndpoints() Endpoints {
	e := make(Endpoints, len(endpointPatterns))
	for _, pat := range endpointPatterns {
		e[pat] = metrics.NewLatencyHistogram()
	}
	return e
}

// Instrument returns the route registrar for mux. Every route it
// registers records its handler latency, establishes the
// X-Occamy-Trace ID (minting one when absent) and echoes it on the
// response, and emits a debug-level structured request record.
func (e Endpoints) Instrument(mux *http.ServeMux, logger *slog.Logger) func(pattern string, fn http.HandlerFunc) {
	return func(pattern string, fn http.HandlerFunc) {
		h := e[pattern]
		if h == nil {
			// A pattern missing from endpointPatterns is a programming
			// error; fail loudly in tests rather than silently dropping
			// its latency series.
			panic(fmt.Sprintf("service: route %q not in endpointPatterns", pattern))
		}
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			trace := EnsureTrace(r)
			w.Header().Set(TraceHeader, trace)
			sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
			fn(sw, r)
			d := time.Since(start)
			h.Record(d)
			logger.Debug("http",
				"method", r.Method, "route", pattern, "status", sw.status,
				"trace", trace, "dur_ms", durToMs(d))
		})
	}
}

// Snapshot summarizes the routes that have served at least one request.
func (e Endpoints) Snapshot() map[string]metrics.HistSnapshot {
	out := make(map[string]metrics.HistSnapshot, len(e))
	for pat, h := range e {
		if h.Count() > 0 {
			out[pat] = h.Snapshot()
		}
	}
	return out
}

// AddProm renders the per-route request counter and latency histogram
// families, in endpointPatterns order.
func (e Endpoints) AddProm(p *metrics.Prom) {
	reqs := make([]metrics.PromSample, 0, len(endpointPatterns))
	subs := make([]metrics.HistogramSub, 0, len(endpointPatterns))
	for _, pat := range endpointPatterns {
		h := e[pat]
		lbl := []metrics.Label{{Name: "endpoint", Value: pat}}
		reqs = append(reqs, metrics.PromSample{Labels: lbl, Value: float64(h.Count())})
		subs = append(subs, metrics.HistogramSub{Labels: lbl, H: h})
	}
	p.Counter("occamy_requests_total", "HTTP requests served, by route pattern.", reqs...)
	p.HistogramFamily("occamy_request_duration_seconds", "HTTP handler latency, by route pattern.", subs...)
}

// statusWriter captures the response status for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// HTTPError writes a JSON error body with the given status.
func HTTPError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// WriteJSON writes v as a JSON response.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// durToMs renders a duration in milliseconds with µs precision, the
// same shape the latency snapshots use.
func durToMs(d time.Duration) float64 {
	if d < 0 {
		d = 0
	}
	return float64(d/time.Microsecond) / 1000
}
