package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"occamy/internal/service"
)

// serviceLayer derives the service and fleet metrics from the workers'
// /v1/stats read before and after a pass that asked for points
// simulations (or cache hits).
func serviceLayer(before, after []service.Stats, points int) map[string]metric {
	var getP99, postP99, util float64
	var hits, misses, restored, calls int64
	var subs []float64
	for i := range after {
		a, b := after[i], before[i]
		getP99 = max(getP99, a.Endpoints["GET /v1/runs/{id}"].P99Ms)
		postP99 = max(postP99, a.Endpoints["POST /v1/runs"].P99Ms)
		util += a.Utilization / float64(len(after))
		hits += a.Cache.Hits - b.Cache.Hits
		misses += a.Cache.Misses - b.Cache.Misses
		restored += a.Cache.Restored - b.Cache.Restored
		for ep, h := range a.Endpoints {
			if ep != "GET /v1/stats" {
				calls += int64(h.Count) - int64(b.Endpoints[ep].Count)
			}
		}
		subs = append(subs, float64(a.Counters.Submitted-b.Counters.Submitted))
	}
	return map[string]metric{
		"service.get_ms_p99":           {getP99, "ms"},
		"service.post_ms_p99":          {postP99, "ms"},
		"service.utilization":          {util, "ratio"},
		"service.cache_hit_frac":       {ratio(float64(hits), float64(hits+misses)), "ratio"},
		"service.cache_restore_frac":   {ratio(float64(restored), float64(hits)), "ratio"},
		"fleet.worker_calls_per_point": {ratio(float64(calls), float64(points)), "count"},
		"fleet.shard_skew":             {ratio(maxOf(subs), mean(subs)), "ratio"},
	}
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// hopJobs and hopReps size the router-hop probe: the first hopJobs
// simulated jobs of each worker, each fetched hopReps times both ways.
const (
	hopJobs = 8
	hopReps = 3
)

// hopProbe times the same GET /v1/runs/{id} through the router and
// directly from the job's home worker, alternating which goes first,
// and returns the per-pair differences in ms: the cost of the hop.
func (b *bench) hopProbe(ctx context.Context, tr *tracer, jobs [][]service.JobStatus) ([]float64, error) {
	var hops []float64
	for w, list := range jobs {
		for k, j := range list[:min(len(list), hopJobs)] {
			for rep := 0; rep < hopReps; rep++ {
				id := fmt.Sprintf("hop.w%d.%d.%d", w, k, rep)
				routed := func() (time.Duration, error) {
					return b.timedGet(ctx, tr, "fleet.get", id, fmt.Sprintf("%s/v1/runs/w%d.%s", b.t.routerURL, w, j.ID))
				}
				direct := func() (time.Duration, error) {
					return b.timedGet(ctx, tr, "service.get", id, b.t.workerURLs[w]+"/v1/runs/"+j.ID)
				}
				first, second := routed, direct
				if rep%2 == 1 {
					first, second = direct, routed
				}
				d1, err := first()
				if err != nil {
					return nil, err
				}
				d2, err := second()
				if err != nil {
					return nil, err
				}
				if rep%2 == 1 {
					d1, d2 = d2, d1
				}
				hops = append(hops, msOf(d1-d2))
			}
		}
	}
	return hops, nil
}

// timedGet fetches url under a span and returns how long it took.
func (b *bench) timedGet(ctx context.Context, tr *tracer, name, id, url string) (time.Duration, error) {
	sp := tr.start(name, id, 0)
	start := time.Now()
	code, _, err := call(ctx, b.hc, http.MethodGet, url, nil, id)
	d := time.Since(start)
	tr.end(sp)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", url, code)
	}
	return d, err
}
