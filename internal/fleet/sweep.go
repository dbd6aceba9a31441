package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"occamy/internal/scenario"
	"occamy/internal/service"
)

// sweepWorkers sizes the embedded sweep service's pool. A router sweep
// job only waits on HTTP — each point's backpressure is its home
// shard's queue — so the pool just bounds how many sweeps fan out at
// once; further sweeps queue, and past the queue they draw the worker's
// 503.
const sweepWorkers = 16

// pollInterval is the cadence at which a sweep polls its point jobs.
const pollInterval = 5 * time.Millisecond

// handleSweep submits the grid to the embedded sweep service, which
// parses, caps, caches and coalesces it exactly as a worker would, then
// runs it through runSweep.
func (rt *Router) handleSweep(w http.ResponseWriter, r *http.Request) {
	if !rt.admit(w, r, 1) {
		return
	}
	st, ok := rt.sweeps.SubmitSweepRequest(w, r)
	if !ok {
		return
	}
	st.ID = sweepID(st.ID)
	service.WriteJSON(w, http.StatusAccepted, st)
}

// runSweep is the sweep service's runner: every point runs on its
// fingerprint's home shard (concurrently — each shard's own queue
// provides the backpressure), and the finished tables re-assemble into
// the exact rows and bytes a single-process sweep would emit (a
// contract pinned by TestFleetSweepByteIdentity).
func (rt *Router) runSweep(spec scenario.Spec, axes []scenario.SweepAxis, trace string, canceled func() bool, pointDone func()) ([]byte, error) {
	pointSpecs, _, err := scenario.Expand(spec, axes)
	if err != nil {
		return nil, err
	}
	rt.count(func(c *Counters) { c.SweepPoints += int64(len(pointSpecs)) })
	tables := make([]scenario.TableDoc, len(pointSpecs))
	errs := make([]error, len(pointSpecs))
	var wg sync.WaitGroup
	for i, ps := range pointSpecs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tables[i], errs[i] = rt.runPoint(ps, service.ChildTrace(trace, "", i), canceled)
			if errs[i] == nil {
				pointDone()
			}
		}()
	}
	wg.Wait()
	// A failed point outranks a cancel: its error says more.
	for _, err := range errs {
		if err != nil && !errors.Is(err, scenario.ErrCanceled) {
			return nil, err
		}
	}
	if canceled() {
		return nil, scenario.ErrCanceled
	}
	table, err := scenario.AssembleSweepTable(spec, axes, tables)
	if err != nil {
		return nil, err
	}
	return table.Encode()
}

// runPoint submits one grid point to its home shard and polls it to a
// terminal state, returning the point's summary table. Every request it
// makes — submission and polls alike — carries the sweep trace's ".N"
// child ID, so the worker-side job for grid point N greps back to the
// router sweep that spawned it.
func (rt *Router) runPoint(spec scenario.Spec, trace string, canceled func() bool) (scenario.TableDoc, error) {
	fp, err := spec.Fingerprint()
	if err != nil {
		return scenario.TableDoc{}, err
	}
	shard := rt.ring.Lookup(fp)
	st, err := rt.submitPoint(shard, spec, trace, canceled)
	if err != nil {
		return scenario.TableDoc{}, err
	}
	deadline := time.Now().Add(rt.pointWait)
	for {
		if canceled() {
			return scenario.TableDoc{}, scenario.ErrCanceled
		}
		resp, err := rt.callWorker(shard, http.MethodGet, "/v1/runs/"+st.ID, nil, trace)
		if err != nil {
			return scenario.TableDoc{}, err
		}
		if resp.status != http.StatusOK {
			return scenario.TableDoc{}, fmt.Errorf("worker %d: polling %s: status %d", shard, st.ID, resp.status)
		}
		var view struct {
			service.JobStatus
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(resp.body, &view); err != nil {
			return scenario.TableDoc{}, fmt.Errorf("worker %d: undecodable job view: %v", shard, err)
		}
		if view.State.Terminal() {
			if view.State != service.JobDone {
				if view.Error != "" {
					return scenario.TableDoc{}, fmt.Errorf("point %q on worker %d: %s", spec.Name, shard, view.Error)
				}
				return scenario.TableDoc{}, fmt.Errorf("point %q on worker %d ended %s", spec.Name, shard, view.State)
			}
			// Only the summary row participates in the aggregate; the full
			// result document stays on (and is served by) its home shard.
			var doc struct {
				Summary scenario.TableDoc `json:"summary"`
			}
			if err := json.Unmarshal(view.Result, &doc); err != nil {
				return scenario.TableDoc{}, fmt.Errorf("point %q: undecodable result: %v", spec.Name, err)
			}
			return doc.Summary, nil
		}
		if time.Now().After(deadline) {
			return scenario.TableDoc{}, fmt.Errorf("point %q on worker %d: no result within %s", spec.Name, shard, rt.pointWait)
		}
		time.Sleep(pollInterval)
	}
}

// submitPoint POSTs one point spec to its shard, absorbing transient
// 503s (queue briefly full, instance draining) with a short bounded
// backoff that honors Retry-After. A transport error means the shard is
// down — the sweep fails rather than silently re-homing the point,
// because a re-homed point would dodge the shard's cache and violate
// the "equal specs, equal home" invariant.
func (rt *Router) submitPoint(shard int, spec scenario.Spec, trace string, canceled func() bool) (service.JobStatus, error) {
	body, err := spec.Marshal()
	if err != nil {
		return service.JobStatus{}, err
	}
	const attempts = 4
	for attempt := 1; ; attempt++ {
		if canceled() {
			return service.JobStatus{}, scenario.ErrCanceled
		}
		resp, err := rt.callWorker(shard, http.MethodPost, "/v1/runs", body, trace)
		if err != nil {
			return service.JobStatus{}, err
		}
		switch {
		case resp.status == http.StatusAccepted:
			var st service.JobStatus
			if err := json.Unmarshal(resp.body, &st); err != nil {
				return service.JobStatus{}, fmt.Errorf("worker %d: undecodable job status: %v", shard, err)
			}
			return st, nil
		case resp.status == http.StatusServiceUnavailable && attempt < attempts:
			wait := 50 * time.Millisecond * time.Duration(attempt)
			if ra := resp.header.Get("Retry-After"); ra != "" {
				if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
					wait = time.Duration(secs) * time.Second
				}
			}
			if wait > time.Second {
				wait = time.Second
			}
			time.Sleep(wait)
		default:
			return service.JobStatus{}, fmt.Errorf("point %q on worker %d: status %d: %s",
				spec.Name, shard, resp.status, string(resp.body))
		}
	}
}
