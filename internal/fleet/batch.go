package fleet

import (
	"encoding/json"
	"io"
	"net/http"

	"occamy/internal/scenario"
	"occamy/internal/service"
)

// batchRequest mirrors the worker's POST /v1/batch wire format.
type batchRequest struct {
	Specs []json.RawMessage `json:"specs"`
	Scale string            `json:"scale,omitempty"`
}

const maxBatchSpecs = 512

// maxBodyBytes bounds a submitted batch body, matching the worker's
// spec-size bound.
const maxBodyBytes = 1 << 20

// handleBatch routes one multi-spec submission across the fleet: specs
// are parsed and fingerprinted router-side, grouped by home shard, and
// forwarded as one sub-batch per worker — so a 500-spec batch costs
// O(workers) upstream requests, not O(specs). The response items come
// back in request order with fleet-routable job IDs; a dead shard
// degrades to per-item 502s on its specs only.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil || len(body) > maxBodyBytes {
		service.HTTPError(w, http.StatusBadRequest, "bad batch body (max %d bytes)", maxBodyBytes)
		return
	}
	var req batchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		service.HTTPError(w, http.StatusBadRequest, "parsing batch request: %v", err)
		return
	}
	if len(req.Specs) == 0 {
		service.HTTPError(w, http.StatusBadRequest, "batch request has no specs")
		return
	}
	if len(req.Specs) > maxBatchSpecs {
		service.HTTPError(w, http.StatusBadRequest, "batch has %d specs (cap %d)", len(req.Specs), maxBatchSpecs)
		return
	}
	var scale scenario.Scale
	if req.Scale != "" {
		if scale, err = scenario.ParseScale(req.Scale); err != nil {
			service.HTTPError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	// A batch of n specs is n requests' worth of admission, charged
	// all-or-nothing up front.
	if !rt.admit(w, r, len(req.Specs)) {
		return
	}
	rt.count(func(c *Counters) { c.BatchSpecs += int64(len(req.Specs)) })

	items := make([]service.BatchItem, len(req.Specs))
	// perShard groups the indices of the specs homed on each worker; the
	// scale override is resolved *before* fingerprinting, because the
	// fingerprint (and so the home shard) is a function of the scaled
	// spec.
	perShard := make(map[int][]int)
	shardSpecs := make(map[int][]json.RawMessage)
	for i, raw := range req.Specs {
		spec, err := scenario.ParseSpec(raw)
		if err != nil {
			items[i] = service.BatchItem{Error: err.Error(), Code: http.StatusBadRequest}
			continue
		}
		if req.Scale != "" {
			spec.Scale = scale
		}
		fp, err := spec.Fingerprint()
		if err != nil {
			items[i] = service.BatchItem{Error: err.Error(), Code: http.StatusInternalServerError}
			continue
		}
		scaled, err := json.Marshal(spec)
		if err != nil {
			items[i] = service.BatchItem{Error: err.Error(), Code: http.StatusInternalServerError}
			continue
		}
		shard := rt.ring.Lookup(fp)
		perShard[shard] = append(perShard[shard], i)
		shardSpecs[shard] = append(shardSpecs[shard], scaled)
	}

	// Each shard's sub-batch carries a ".w<shard>" child of the request
	// trace; the worker then stamps ".N" per item (its own batch handler
	// derives children), so every job ID in the fleet is grep-reachable
	// from the one client submission.
	trace := reqTrace(r)
	for shard, idxs := range perShard {
		sub, err := json.Marshal(batchRequest{Specs: shardSpecs[shard]})
		if err != nil {
			fillShardError(items, idxs, err.Error(), http.StatusInternalServerError)
			continue
		}
		resp, err := rt.callWorker(shard, http.MethodPost, "/v1/batch", sub, service.ChildTrace(trace, "w", shard))
		if err != nil {
			fillShardError(items, idxs, err.Error(), http.StatusBadGateway)
			continue
		}
		var page struct {
			Runs []service.BatchItem `json:"runs"`
		}
		if resp.status != http.StatusAccepted || json.Unmarshal(resp.body, &page) != nil || len(page.Runs) != len(idxs) {
			fillShardError(items, idxs, "worker returned an unusable batch response", http.StatusBadGateway)
			continue
		}
		for k, item := range page.Runs {
			if item.Job != nil {
				item.Job.ID = routerID(shard, item.Job.ID)
			}
			items[idxs[k]] = item
		}
	}
	service.WriteJSON(w, http.StatusAccepted, map[string]any{"runs": items})
}

func fillShardError(items []service.BatchItem, idxs []int, msg string, code int) {
	for _, i := range idxs {
		items[i] = service.BatchItem{Error: msg, Code: code}
	}
}
