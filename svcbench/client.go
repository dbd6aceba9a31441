package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"occamy/internal/service"
)

// newHTTPClient returns the generator's only client. conns caps the
// connections to each tier, so the generator never opens more than the
// host has CPUs.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// call does one HTTP request, tagging it with the X-Occamy-Trace ID
// trace when non-empty, and returns the status and the whole body.
func call(ctx context.Context, hc *http.Client, method, url string, body []byte, trace string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if trace != "" {
		req.Header.Set(service.TraceHeader, trace)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: reading body: %w", method, url, err)
	}
	return resp.StatusCode, data, nil
}

// resultKey separates a job view's status fields from its result
// document. Both tiers encode the view as the JobStatus fields followed
// by "result", and a JSON string cannot hold an unescaped quote, so the
// first occurrence is the top-level key.
var resultKey = []byte(`,"result":`)

// splitJobView decodes the status part of a GET /v1/runs/{id} body and
// returns the result document's bytes as served, without scanning the
// (up to 2 MB) document.
func splitJobView(body []byte) (service.JobStatus, []byte, error) {
	var st service.JobStatus
	head, result := body, []byte(nil)
	if i := bytes.Index(body, resultKey); i >= 0 {
		end := bytes.LastIndexByte(body, '}')
		if end < i+len(resultKey) {
			return st, nil, fmt.Errorf("malformed job view")
		}
		head = append(body[:i:i], '}')
		result = body[i+len(resultKey) : end]
	}
	if err := json.Unmarshal(head, &st); err != nil {
		return st, nil, fmt.Errorf("decoding job status: %w", err)
	}
	return st, result, nil
}

// submit POSTs body to base+path and decodes the 202 job status.
func submit(ctx context.Context, hc *http.Client, url string, body []byte, trace string) (service.JobStatus, error) {
	var st service.JobStatus
	code, data, err := call(ctx, hc, http.MethodPost, url, body, trace)
	if err != nil {
		return st, err
	}
	if code != http.StatusAccepted {
		return st, fmt.Errorf("POST %s: status %d: %s", url, code, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return st, fmt.Errorf("POST %s: decoding status: %w", url, err)
	}
	return st, nil
}

// awaitJob polls GET base/v1/runs/{id} until the job is terminal and
// returns its final status, result bytes and the number of GETs made.
// The poll interval starts at 1ms and grows by a fifth per poll up to
// 10ms, so short jobs are not rounded up to a long interval and long
// ones are not flooded with polls.
func awaitJob(ctx context.Context, hc *http.Client, base, id, trace string, tr *tracer, parent int) (service.JobStatus, []byte, int, error) {
	wait := time.Millisecond
	for polls := 1; ; polls++ {
		sp := tr.start("http.get", trace, parent)
		code, body, err := call(ctx, hc, http.MethodGet, base+"/v1/runs/"+id, nil, trace)
		tr.end(sp)
		if err != nil {
			return service.JobStatus{}, nil, polls, err
		}
		if code != http.StatusOK {
			return service.JobStatus{}, nil, polls, fmt.Errorf("GET run %s: status %d", id, code)
		}
		st, result, err := splitJobView(body)
		if err != nil {
			return st, nil, polls, err
		}
		if st.State.Terminal() {
			if st.State != service.JobDone {
				return st, nil, polls, fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
			}
			return st, result, polls, nil
		}
		select {
		case <-ctx.Done():
			return st, nil, polls, ctx.Err()
		case <-time.After(wait):
		}
		wait = min(wait*6/5, 10*time.Millisecond)
	}
}

// fleetStats reads every worker's GET /v1/stats directly.
func fleetStats(ctx context.Context, hc *http.Client, workers []string) ([]service.Stats, error) {
	out := make([]service.Stats, len(workers))
	for i, u := range workers {
		code, data, err := call(ctx, hc, http.MethodGet, u+"/v1/stats", nil, "")
		if err != nil {
			return nil, err
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("GET %s/v1/stats: status %d", u, code)
		}
		if err := json.Unmarshal(data, &out[i]); err != nil {
			return nil, fmt.Errorf("decoding %s/v1/stats: %w", u, err)
		}
	}
	return out, nil
}
