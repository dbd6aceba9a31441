package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"occamy/internal/fleet"
	"occamy/internal/scenario"
	"occamy/internal/service"
)

// coldEntries are the full-scale catalog entries that simulate in at
// most about 1.5s on one core.
var coldEntries = []string{
	"leafspine-demo", "buffer-choking", "degraded-leafspine", "bursty-allreduce",
	"priority-inversion-8", "multiclass-fabric-drr", "wan-degraded-leafspine",
	"flaky-tor-incast", "duplicate-storm", "jittery-allreduce", "mixed-load-90",
}

// coldCycle is how long one cycle through coldEntries takes on the
// reference host (2 CPUs). A cold run is a fixed number of cycles sized
// from its window by this constant, so every run on every host does the
// same simulation work.
const coldCycle = 6 * time.Second

func coldRequests(d time.Duration) int { return max(1, int(d/coldCycle)) * len(coldEntries) }

// The sweep workload's grid: a tiny raw-injection spec whose DT points
// bypass Occamy's expulsion path and whose Occamy points exercise it.
const sweepBase = "burst-absorb"

var sweepAxes = []string{"policy.kind=dt,occamy", "policy.alpha=1,8"}

// sweepPoints is the grid size of sweepAxes.
const sweepPoints = 4

// request is one generated submission.
type request struct {
	id    string        // X-Occamy-Trace ID and span request ID
	spec  scenario.Spec // the run spec, or the sweep's base spec
	body  []byte        // POST body
	fp    string        // fingerprint of a run spec
	entry int           // hot: working-set index
}

// sample is the client-side record of one request.
type sample struct {
	req    request
	due    time.Time // when it was due: its schedule slot in an open loop, its send time in a closed one
	sent   time.Time
	done   time.Time
	late   time.Duration // send time minus the slot, or minus the previous completion on a closed-loop connection
	polls  int           // GET /v1/runs/{id} calls
	rx     int64         // simulated switch packet arrivals in the result
	status service.JobStatus
	result []byte // served result bytes, kept on traced passes
	err    error
}

func (s *sample) latencyMs() float64 { return msOf(s.done.Sub(s.due)) }

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// derive returns input seed i of a named stream. The benchmark's seed
// argument alone fixes the traffic; held-out mode draws from a disjoint
// salt.
func (b *bench) derive(stream string, i int) uint64 { return b.mix(b.opts.seed, stream, i) }

// pool returns seed i of a stream that does not depend on the seed
// argument, only on held-out mode: inputs every run shares.
func (b *bench) pool(stream string, i int) uint64 { return b.mix(0, stream, i) }

func (b *bench) mix(seed uint64, stream string, i int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	if b.opts.heldout {
		h.Write([]byte("/held-out"))
	}
	x := splitmix(splitmix(seed^h.Sum64()) + uint64(i)*0x9e3779b97f4a7c15)
	return x&(1<<53-1) | 1
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// coldRequest builds request i: cycle i/len(coldEntries) runs every
// entry once, in catalog-list order rotated by an offset drawn from the
// seed argument, each with a spec seed from a pool shared by all runs. A
// fresh spec seed per request makes every request miss the cache;
// sharing the pool keeps the work of a run the same for every seed
// argument, since one entry's work varies by up to 2x between spec
// seeds. --heldout swaps in another pool. Every cycle uses the same
// rotation, so each run follows the same run as in every other cycle:
// what a run inherits from its predecessor (garbage, cache contents)
// stays put.
func (b *bench) coldRequest(i int) (request, error) {
	n := len(coldEntries)
	cycle := i / n
	e := (i + int(b.derive("cold.order", 0)%uint64(n))) % n
	sc, _ := scenario.Get(coldEntries[e])
	spec := sc.SpecAt(scenario.ScaleFull)
	spec.Seed = b.pool("cold.spec", cycle*n+e)
	return runRequest(fmt.Sprintf("cold.%d", i), spec, -1)
}

func runRequest(id string, spec scenario.Spec, entry int) (request, error) {
	body, err := spec.Marshal()
	if err != nil {
		return request{}, err
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		return request{}, err
	}
	return request{id: id, spec: spec, body: body, fp: fp, entry: entry}, nil
}

func (b *bench) sweepRequest(i int) (request, error) {
	sc, _ := scenario.Get(sweepBase)
	spec := sc.SpecAt(scenario.ScaleQuick)
	spec.Seed = b.derive("sweep", i)
	sj, err := spec.Marshal()
	if err != nil {
		return request{}, err
	}
	body, err := json.Marshal(map[string]any{"spec": json.RawMessage(sj), "axes": sweepAxes})
	if err != nil {
		return request{}, err
	}
	return request{id: fmt.Sprintf("sweep.%d", i), spec: spec, body: body}, nil
}

// hotFirst are the five most popular entries of the hot working set,
// most popular first; the rest follow in name order. The order puts the
// median and the p95 inside one document's share rather than on a
// border between two documents of different size, where a percentile
// flips between their latencies from run to run: the most popular
// document (~245 KB) spans the 38th to 71st percentile of latency, and
// the 2 MB document, third, holds the top 10%.
var hotFirst = []string{"duplicate-storm", "burst-absorb", "mixed-class-incast", "quickstart", "incast-storm-256"}

// hotSet is the hot working set: every runnable catalog entry at quick
// scale, in popularity order.
func hotSet() ([]request, error) {
	names := slices.Clone(hotFirst)
	for _, name := range scenario.Names() {
		// Figure harnesses (Tables set) cannot run over the API.
		if sc, _ := scenario.Get(name); sc.Tables == nil && !slices.Contains(hotFirst, name) {
			names = append(names, name)
		}
	}
	var out []request
	for _, name := range names {
		sc, ok := scenario.Get(name)
		if !ok {
			return nil, fmt.Errorf("hot working set: no catalog entry %q", name)
		}
		r, err := runRequest("hot.warm."+name, sc.SpecAt(scenario.ScaleQuick), len(out))
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// hotZipfS is the popularity skew over the working set.
const hotZipfS = 1.1

// hotBlock is the number of hot requests over which every entry's share
// follows the zipf law exactly.
const hotBlock = 100

// hotCounts splits hotBlock requests over n entries in proportion to the
// zipf weight (rank+1)^-hotZipfS, by largest remainder.
func hotCounts(n int) []int {
	w := make([]float64, n)
	var total float64
	for k := range w {
		w[k] = math.Pow(float64(k+1), -hotZipfS)
		total += w[k]
	}
	counts := make([]int, n)
	order := make([]int, n)
	left := hotBlock
	for k := range w {
		counts[k] = int(hotBlock * w[k] / total)
		left -= counts[k]
		order[k] = k
	}
	frac := func(k int) float64 { return hotBlock*w[k]/total - float64(counts[k]) }
	sort.SliceStable(order, func(a, c int) bool { return frac(order[a]) > frac(order[c]) })
	for _, k := range order[:left] {
		counts[k]++
	}
	return counts
}

// hotRequest returns request i of a hot stream. Each block of hotBlock
// requests holds every entry exactly hotCounts times, in an order drawn
// from the seed argument: the seed moves which request comes when, not
// how often each document is fetched, so the mix of 120 KB and 2 MB
// documents is the same in every run.
func (b *bench) hotRequest(stream string, i int) request {
	block := make([]int, 0, hotBlock)
	for e, c := range hotCounts(len(b.hot)) {
		for range c {
			block = append(block, e)
		}
	}
	rng := rand.New(rand.NewPCG(b.derive(stream, i/hotBlock), 0))
	rng.Shuffle(len(block), func(a, c int) { block[a], block[c] = block[c], block[a] })
	r := b.hot[block[i%hotBlock]]
	r.id = fmt.Sprintf("%s.%d", stream, i)
	return r
}

// doRun submits a run spec through the router and waits for its result;
// checkRun checks it afterwards, outside the request's time.
func (b *bench) doRun(ctx context.Context, tr *tracer, r request, due time.Time) sample {
	s := sample{req: r, due: due, sent: time.Now()}
	root := tr.start("client.request", r.id, 0)
	defer func() { tr.end(root) }()
	sp := tr.start("http.post", r.id, root)
	st, err := submit(ctx, b.hc, b.t.routerURL+"/v1/runs", r.body, r.id)
	tr.end(sp)
	if err != nil {
		s.err = err
		s.done = time.Now()
		return s
	}
	s.status, s.result, s.polls, s.err = awaitJob(ctx, b.hc, b.t.routerURL, st.ID, r.id, tr, root)
	s.done = time.Now()
	tr.record("service.queue_wait", r.id, root, s.status.Submitted, s.status.Started)
	tr.record("service.run", r.id, root, s.status.Started, s.status.Finished)
	return s
}

// checkRun verifies a served run document: the fingerprint must be the
// submitted spec's and, for a hot entry, the bytes those captured at
// warm-up.
func (b *bench) checkRun(s *sample) error {
	if s.req.entry >= 0 && b.hotDocs != nil {
		if !bytes.Equal(s.result, b.hotDocs[s.req.entry]) {
			return fmt.Errorf("%w: %s: served document differs from the warm-up bytes", errCheck, s.req.id)
		}
		s.rx = b.hotRx[s.req.entry]
		return nil
	}
	fp, rx, err := docHead(s.result)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", errCheck, s.req.id, err)
	}
	if fp != s.req.fp {
		return fmt.Errorf("%w: %s: served fingerprint %s, submitted spec has %s", errCheck, s.req.id, fp, s.req.fp)
	}
	s.rx = rx
	return nil
}

// doHot is one hot request: a cache-hit POST, then a GET of the full
// document through the router.
func (b *bench) doHot(ctx context.Context, tr *tracer, r request, due time.Time) sample {
	s := sample{req: r, due: due, sent: time.Now()}
	root := tr.start("client.request", r.id, 0)
	defer func() { tr.end(root) }()
	sp := tr.start("http.post", r.id, root)
	st, err := submit(ctx, b.hc, b.t.routerURL+"/v1/runs", r.body, r.id)
	tr.end(sp)
	if err == nil && !st.Cached {
		err = fmt.Errorf("%w: %s: working-set entry missed the cache", errCheck, r.id)
	}
	if err == nil {
		s.status, s.result, s.polls, err = awaitJob(ctx, b.hc, b.t.routerURL, st.ID, r.id, tr, root)
	}
	s.done = time.Now()
	if err == nil {
		err = b.checkRun(&s)
	}
	s.err = err
	s.result = nil // up to 2 MB per request, and already checked
	return s
}

// doSweep submits one sweep to the router and waits for its table.
func (b *bench) doSweep(ctx context.Context, tr *tracer, r request, due time.Time) sample {
	s := sample{req: r, due: due, sent: time.Now()}
	root := tr.start("client.request", r.id, 0)
	defer func() { tr.end(root) }()
	sp := tr.start("http.post", r.id, root)
	st, err := submit(ctx, b.hc, b.t.routerURL+"/v1/sweeps", r.body, r.id)
	tr.end(sp)
	if err == nil {
		s.status, s.result, s.polls, err = awaitJob(ctx, b.hc, b.t.routerURL, st.ID, r.id, tr, root)
	}
	s.done = time.Now()
	tr.record("fleet.sweep", r.id, root, s.status.Started, s.status.Finished)
	if err == nil {
		var tab scenario.TableDoc
		if uerr := json.Unmarshal(s.result, &tab); uerr != nil || len(tab.Rows) != sweepPoints {
			err = fmt.Errorf("%w: %s: sweep table has %d rows, want %d (%v)", errCheck, r.id, len(tab.Rows), sweepPoints, uerr)
		}
	}
	s.err = err
	return s
}

// closedLoop runs conns connections, each sending its next request when
// the previous one completes, until n requests were sent (n > 0) or the
// deadline passed. Samples come back in send order.
func closedLoop(ctx context.Context, conns, n int, deadline time.Time, do func(i int, due time.Time) sample) []sample {
	var next atomic.Int64
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := time.Now()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if (n > 0 && i >= n) || (n <= 0 && !time.Now().Before(deadline)) {
					return
				}
				now := time.Now()
				s := do(i, now)
				s.late = now.Sub(prev)
				prev = s.done
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(out, func(a, c int) bool { return out[a].sent.Before(out[c].sent) })
	return out
}

// openLoop sends n requests at a fixed rate regardless of completions.
// Each is timed from its slot, so a stall shows in later requests too;
// its lateness is how long after the slot the generator sent it.
func openLoop(ctx context.Context, rate float64, n int, do func(i int, due time.Time) sample) []sample {
	out := make([]sample, n)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(d):
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := do(i, due)
			s.late = s.sent.Sub(due)
			out[i] = s
		}()
	}
	wg.Wait()
	if ctx.Err() != nil {
		for i := range out {
			if out[i].done.IsZero() {
				out[i].err = ctx.Err()
			}
		}
	}
	return out
}

// warmHot submits the whole working set and captures each served
// document: the bytes every later hit must match. Once captured, a
// later set-up in the same run must reproduce them exactly (checkRun).
func (b *bench) warmHot(ctx context.Context) error {
	docs := make([][]byte, len(b.hot))
	rx := make([]int64, len(b.hot))
	errs := make([]error, len(b.hot))
	jobs := closedLoop(ctx, genProcs, len(b.hot), time.Time{}, func(i int, due time.Time) sample {
		return b.doRun(ctx, nil, b.hot[i], due)
	})
	if len(jobs) != len(b.hot) {
		return fmt.Errorf("warming the working set: %w", ctx.Err())
	}
	for _, s := range jobs {
		if s.err == nil {
			s.err = b.checkRun(&s)
		}
		i := s.req.entry
		docs[i], rx[i], errs[i] = s.result, s.rx, s.err
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("warming %s: %w", b.hot[i].spec.Name, err)
		}
	}
	b.hotDocs, b.hotRx = docs, rx
	return nil
}

// workerJobs lists a worker's job ledger directly.
func workerJobs(ctx context.Context, hc *http.Client, base string) ([]service.JobStatus, error) {
	code, data, err := call(ctx, hc, http.MethodGet, base+"/v1/runs", nil, "")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET %s/v1/runs: status %d", base, code)
	}
	var page struct {
		Runs []service.JobStatus `json:"runs"`
	}
	if err := json.Unmarshal(data, &page); err != nil {
		return nil, fmt.Errorf("decoding %s/v1/runs: %w", base, err)
	}
	return page.Runs, nil
}

// simulatedJobs returns every job the workers simulated (not cache hits).
func (b *bench) simulatedJobs(ctx context.Context) ([][]service.JobStatus, error) {
	out := make([][]service.JobStatus, len(b.t.workerURLs))
	for w, u := range b.t.workerURLs {
		jobs, err := workerJobs(ctx, b.hc, u)
		if err != nil {
			return nil, err
		}
		for _, j := range jobs {
			if j.Kind == "run" && j.State == service.JobDone && !j.Cached {
				out[w] = append(out[w], j)
			}
		}
	}
	return out, nil
}

// sweepRx sums the simulated packet arrivals over the grid points of
// the completed sweeps once the timed window is over, reading each
// point's document from its home worker's persistent cache: a point
// missing there was not simulated where the ring places it.
func (b *bench) sweepRx(samples []sample) (int64, error) {
	items, err := sweepItems(samples)
	if err != nil {
		return 0, err
	}
	ring, err := fleet.NewRing(b.t.workerURLs, 0)
	if err != nil {
		return 0, err
	}
	caches := make([]*service.Cache, len(b.t.workerURLs))
	for w := range caches {
		// A one-byte budget holds nothing: every Get reads the disk.
		if caches[w], err = service.NewCache(1, b.t.cacheDir(w)); err != nil {
			return 0, err
		}
	}
	var rx int64
	for _, it := range items {
		fp, err := it.spec.Fingerprint()
		if err != nil {
			return 0, err
		}
		doc := caches[ring.Lookup(fp)].Get(fp)
		if doc == nil {
			return 0, fmt.Errorf("%w: grid point %s is not in its home worker's cache", errCheck, it.req)
		}
		got, n, err := docHead(doc)
		if err != nil || got != fp {
			return 0, fmt.Errorf("%w: grid point %s: cached document for %s has fingerprint %s (%v)", errCheck, it.req, fp, got, err)
		}
		rx += n
	}
	return rx, nil
}

// docHead reads a result document's fingerprint and total.rx_packets,
// decoding members only up to "total", which precedes the per-switch
// and trace sections that make up most of a document's bytes.
func docHead(doc []byte) (fingerprint string, rx int64, err error) {
	dec := json.NewDecoder(bytes.NewReader(doc))
	if t, err := dec.Token(); err != nil || t != json.Delim('{') {
		return "", 0, fmt.Errorf("result is not a JSON object (%v)", err)
	}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return "", 0, err
		}
		switch key {
		case "fingerprint":
			err = dec.Decode(&fingerprint)
		case "total":
			var total struct {
				RxPackets int64 `json:"rx_packets"`
			}
			err = dec.Decode(&total)
			return fingerprint, total.RxPackets, err
		default:
			var skip json.RawMessage
			err = dec.Decode(&skip)
		}
		if err != nil {
			return "", 0, err
		}
	}
	return "", 0, fmt.Errorf("result has no total member")
}

// workload is one traffic mix.
type workload struct {
	cacheMB          int     // each worker's -cache-mb
	warm             bool    // set-up caches the hot working set
	setupReps        int     // set-ups per untraced run; setup_s is their median
	tail             float64 // the percentile latency_tail_ms reports
	pointsPerRequest int     // simulations one request asks for
	tables           bool    // the traced run checks sweep tables
	// measure runs the untraced timed window.
	measure func(ctx context.Context, b *bench, d time.Duration) (window, error)
	// replay sends the fixed traffic of a traced run; tr may be nil.
	replay func(ctx context.Context, b *bench, tr *tracer) []sample
	// items lists the specs a traced run drives through the layers directly.
	items func(b *bench, samples []sample) ([]directItem, error)
}

// window is what a timed run measured.
type window struct {
	lat     []sample      // open-loop samples whose latency is reported; nil for loop's
	loop    []sample      // closed-loop samples behind requests_per_s
	elapsed time.Duration // closed loop, first send to last completion
	rx      int64         // simulated packet arrivals in loop's results
	rssMiB  float64       // the tiers' summed peak RSS at the end of the window
}

// closedWindow summarizes a closed loop that started at start.
func closedWindow(start time.Time, samples []sample) window {
	w := window{loop: samples}
	for _, s := range samples {
		if s.done.Sub(start) > w.elapsed {
			w.elapsed = s.done.Sub(start)
		}
		w.rx += s.rx
	}
	return w
}

// The replay sizes of a traced run: one cycle of the cold entries, and
// enough hot requests and sweeps for a stable median.
const (
	hotReplay   = 150
	sweepReplay = 50
)

// hotRate is the open-loop rate of the hot workload, in requests per
// second: about 40% of the 50-55 requests/s its closed loop measures on
// the reference host (2 CPUs). Nearer half the capacity, queueing behind
// the 2 MB documents made the tail swing by 40% with host speed.
const hotRate = 20

// hotSlices is how many times the hot window alternates between an open
// loop and a closed loop of equal length. Host speed on a shared machine
// drifts over seconds; slicing the phases spreads each over the whole
// window, so a slow spell weighs on both alike. As two halves, a spell
// that hit the open half moved the median latency by 50% in one run of
// ten while capacity read normal.
const hotSlices = 5

var workloads = map[string]*workload{
	"cold": {
		cacheMB: 32, setupReps: 25, tail: 0.75, pointsPerRequest: 1,
		measure: func(ctx context.Context, b *bench, d time.Duration) (window, error) {
			start := time.Now()
			samples := closedLoop(ctx, 1, coldRequests(d), time.Time{}, b.coldDo(ctx, nil))
			w := closedWindow(start, b.checkRuns(samples, false))
			var err error
			w.rssMiB, err = b.t.peakRSSMiB()
			return w, err
		},
		replay: func(ctx context.Context, b *bench, tr *tracer) []sample {
			return b.checkRuns(closedLoop(ctx, 1, len(coldEntries), time.Time{}, b.coldDo(ctx, tr)), tr != nil)
		},
		items: func(_ *bench, samples []sample) ([]directItem, error) {
			items := make([]directItem, len(samples))
			for i, s := range samples {
				items[i] = directItem{req: s.req.id, spec: s.req.spec, served: s.result}
			}
			return items, nil
		},
	},
	"hot": {
		cacheMB: 2, warm: true, setupReps: 3, tail: 0.95, pointsPerRequest: 1,
		measure: func(ctx context.Context, b *bench, d time.Duration) (window, error) {
			var w window
			slice := d / (2 * hotSlices)
			perSlice := int(hotRate * slice.Seconds())
			for k := range hotSlices {
				w.lat = append(w.lat, openLoop(ctx, hotRate, perSlice, b.hotDo(ctx, nil, "hot.open", k*perSlice))...)
				start := time.Now()
				cw := closedWindow(start, closedLoop(ctx, genProcs, 0, start.Add(slice), b.hotDo(ctx, nil, "hot.closed", len(w.loop))))
				w.loop = append(w.loop, cw.loop...)
				w.elapsed += cw.elapsed
				w.rx += cw.rx
			}
			var err error
			w.rssMiB, err = b.t.peakRSSMiB()
			return w, err
		},
		replay: func(ctx context.Context, b *bench, tr *tracer) []sample {
			return openLoop(ctx, hotRate, hotReplay, b.hotDo(ctx, tr, "hot.open", 0))
		},
		items: func(b *bench, _ []sample) ([]directItem, error) {
			items := make([]directItem, len(b.hot))
			for i, r := range b.hot {
				items[i] = directItem{req: r.id, spec: r.spec, served: b.hotDocs[i]}
			}
			return items, nil
		},
	},
	"sweep": {
		cacheMB: 32, setupReps: 25, tail: 0.95, pointsPerRequest: sweepPoints, tables: true,
		measure: func(ctx context.Context, b *bench, d time.Duration) (window, error) {
			start := time.Now()
			samples := closedLoop(ctx, 1, 0, start.Add(d), b.sweepDo(ctx, nil))
			w := closedWindow(start, samples)
			var err error
			if w.rssMiB, err = b.t.peakRSSMiB(); err != nil {
				return w, err
			}
			if okCount(samples) < len(samples) {
				return w, nil // failed sweeps leave partial grids; the run is already incorrect
			}
			rx, err := b.sweepRx(samples)
			w.rx = rx
			return w, err
		},
		replay: func(ctx context.Context, b *bench, tr *tracer) []sample {
			return closedLoop(ctx, 1, sweepReplay, time.Time{}, b.sweepDo(ctx, tr))
		},
		items: func(_ *bench, samples []sample) ([]directItem, error) { return sweepItems(samples) },
	},
}

func (b *bench) coldDo(ctx context.Context, tr *tracer) func(int, time.Time) sample {
	return func(i int, due time.Time) sample {
		r, err := b.coldRequest(i)
		if err != nil {
			return sample{due: due, sent: due, done: due, err: err}
		}
		return b.doRun(ctx, tr, r, due)
	}
}

// checkRuns checks every served document once the loop is over, keeping
// the documents only when keep is set (a traced pass compares them with
// direct runs).
func (b *bench) checkRuns(samples []sample, keep bool) []sample {
	for i := range samples {
		s := &samples[i]
		if s.err == nil {
			s.err = b.checkRun(s)
		}
		if !keep {
			s.result = nil
		}
	}
	return samples
}

// hotDo sends request first+i of a hot stream as the loop's i-th.
func (b *bench) hotDo(ctx context.Context, tr *tracer, stream string, first int) func(int, time.Time) sample {
	return func(i int, due time.Time) sample { return b.doHot(ctx, tr, b.hotRequest(stream, first+i), due) }
}

func (b *bench) sweepDo(ctx context.Context, tr *tracer) func(int, time.Time) sample {
	return func(i int, due time.Time) sample {
		r, err := b.sweepRequest(i)
		if err != nil {
			return sample{due: due, sent: due, done: due, err: err}
		}
		return b.doSweep(ctx, tr, r, due)
	}
}
