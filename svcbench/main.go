// Command svcbench is the service-path benchmark: it starts two
// occamy-served workers behind one occamy-router on loopback, drives one
// seeded workload through them, checks every output, and prints each
// metric by name and unit, the last line as one JSON object. See
// README.md for the workloads, the metrics and the traced mode.
//
//	svcbench -root DIR -bin DIR --workload cold|hot|sweep --seed N --seconds S --trace 0|1 [--heldout]
//
// run.sh builds the binaries and supplies -root and -bin.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"time"
)

// genProcs is the generator's GOMAXPROCS and its connection cap per
// tier: the 2 CPUs of the reference host, or fewer on a smaller host, so
// the generator never opens more connections than there are CPUs.
var genProcs = min(2, runtime.NumCPU())

// runBudget bounds a whole run, set-up and teardown included.
const runBudget = 170 * time.Second

type options struct {
	root, bin string
	workload  string
	seed      uint64
	seconds   int
	trace     bool
	heldout   bool
}

// bench is one run's state.
type bench struct {
	opts   options
	hc     *http.Client
	dir    string // this run's scratch directory
	setups int
	t      *tiers

	hot     []request // hot working set
	hotDocs [][]byte  // served bytes captured at warm-up
	hotRx   []int64
}

// errCheck marks a failed output check, as opposed to a failed request.
var errCheck = errors.New("output check failed")

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var o options
	var traceFlag int
	flag.StringVar(&o.root, "root", ".", "checkout root (writes go under .bench_build/)")
	flag.StringVar(&o.bin, "bin", "", "directory holding the occamy-served and occamy-router binaries")
	flag.StringVar(&o.workload, "workload", "", "cold, hot or sweep")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: every spec seed and popularity draw derives from it")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed window (untraced runs)")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	flag.BoolVar(&o.heldout, "heldout", false, "draw inputs from the held-out seed space, for checking a claim on seeds not used while making it")
	flag.Parse()
	o.trace = traceFlag == 1
	w, ok := workloads[o.workload]
	if !ok || o.bin == "" || o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: svcbench -bin DIR --workload cold|hot|sweep --seed N --seconds S --trace 0|1 [--heldout]")
		return 2
	}
	runtime.GOMAXPROCS(genProcs)
	// The generator reads up to 2 MB per hot request and keeps little:
	// collecting less often leaves more of the CPUs to the tiers.
	debug.SetGCPercent(400)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runBudget)
	defer cancel()

	b := &bench{
		opts: o,
		hc:   newHTTPClient(genProcs),
		dir:  filepath.Join(o.root, ".bench_build", "svcbench", "runs", fmt.Sprintf("%s-%d", o.workload, os.Getpid())),
	}
	defer os.RemoveAll(b.dir)
	defer b.stopTiers()
	var rep report
	var err error
	b.hot, err = hotSet()
	switch {
	case err != nil:
	case o.trace:
		rep, err = b.traced(ctx, w)
	default:
		rep, err = b.untraced(ctx, w)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "svcbench: %s: %v\n", o.workload, err)
		return 1
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// setup launches fresh tiers (fresh cache directories) and puts the
// workload's warm state in place, returning how long that took.
func (b *bench) setup(ctx context.Context, w *workload) (time.Duration, error) {
	b.setups++
	dir := filepath.Join(b.dir, fmt.Sprintf("setup%d", b.setups))
	start := time.Now()
	t, err := startTiers(ctx, b.hc, b.opts.bin, dir, w.cacheMB)
	if err != nil {
		return 0, err
	}
	b.t = t
	if w.warm {
		if err := b.warmHot(ctx); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

func (b *bench) stopTiers() {
	b.t.stop()
	b.t = nil
	b.hc.CloseIdleConnections()
}

// untraced measures the end-to-end metrics: it sets up several times and
// runs the timed window against the fleet of the middle set-up. Splitting
// the set-ups around the window spreads them over the run, so one slow
// spell of a shared host does not move all of them.
func (b *bench) untraced(ctx context.Context, w *workload) (report, error) {
	var setups []float64
	var win window
	var checkErr error
	for rep := 0; rep < w.setupReps; rep++ {
		b.stopTiers()
		d, err := b.setup(ctx, w)
		if err != nil {
			return report{}, err
		}
		setups = append(setups, d.Seconds())
		if rep == (w.setupReps-1)/2 {
			win, checkErr = w.measure(ctx, b, time.Duration(b.opts.seconds)*time.Second)
			if checkErr != nil && !errors.Is(checkErr, errCheck) {
				return report{}, checkErr
			}
		}
	}
	b.stopTiers()

	timed := win.lat
	if timed == nil {
		timed = win.loop
	}
	lat := latencies(timed)
	q, ok := tailQuantile(len(lat), w.tail)
	if !ok || q < w.tail {
		fmt.Fprintf(os.Stderr, "svcbench: warning: %d latency samples: tail reported at p%g, not p%g\n", len(lat), q*100, w.tail*100)
	}
	b.warnLate(timed)
	secs := win.elapsed.Seconds()
	rep := newReport(append(win.lat, win.loop...))
	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", checkErr)
		rep.Correct = false
		rep.Failed++
	}
	rep.add("setup_s", quantile(setups, 0.5), "s")
	rep.add("latency_p50_ms", quantile(lat, 0.5), "ms")
	rep.add("latency_tail_ms", quantile(lat, q), "ms")
	rep.add("requests_per_s", ratio(float64(okCount(win.loop)), secs), "1/s")
	rep.add("sim_pkts_per_s", ratio(float64(win.rx), secs), "1/s")
	rep.add("peak_rss_mb", win.rssMiB, "MiB")
	return rep, nil
}

// traced replays the workload's fixed traffic twice on fresh fleets —
// untraced, then with spans — and drives every replayed spec through
// the layers directly, reporting the per-layer metrics.
func (b *bench) traced(ctx context.Context, w *workload) (report, error) {
	if _, err := b.setup(ctx, w); err != nil {
		return report{}, err
	}
	plain := w.replay(ctx, b, nil)
	b.stopTiers()

	tr := newTracer()
	if _, err := b.setup(ctx, w); err != nil {
		return report{}, err
	}
	before, err := fleetStats(ctx, b.hc, b.t.workerURLs)
	if err != nil {
		return report{}, err
	}
	samples := w.replay(ctx, b, tr)
	after, err := fleetStats(ctx, b.hc, b.t.workerURLs)
	if err != nil {
		return report{}, err
	}
	jobs, err := b.simulatedJobs(ctx)
	if err != nil {
		return report{}, err
	}
	hops, err := b.hopProbe(ctx, tr, jobs)
	if err != nil {
		return report{}, err
	}
	b.stopTiers()

	rep := newReport(append(plain, samples...))
	items, err := w.items(b, samples)
	if err != nil {
		return report{}, err
	}
	dr, derr := directPass(ctx, tr, items, filepath.Join(b.dir, "direct-cache"))
	if derr == nil && w.tables {
		derr = sweepTables(ctx, tr, samples)
	}
	if derr == nil {
		derr = b.checkCounts(dr.counts)
	}
	if derr != nil {
		if !errors.Is(derr, errCheck) {
			return report{}, derr
		}
		fmt.Fprintln(os.Stderr, "svcbench:", derr)
		rep.Correct = false
		rep.Failed++
	}

	spans := tr.snapshot()
	layers := byName(spans)
	c := dr.counts
	runSelf := layers["scenario.run"].SelfMs
	rep.add("sim.ns_per_event", ratio(runSelf*1e6, float64(c.Events)), "ns")
	rep.add("sim.events_per_s", ratio(float64(c.Events), runSelf/1e3), "1/s")
	rep.add("sim.events_per_pkt", ratio(float64(c.Events), float64(c.RxPkts)), "ratio")
	rep.add("sim.events", float64(c.Events), "count")
	rep.add("switchsim.rx_pkts", float64(c.RxPkts), "count")
	rep.add("switchsim.drops", float64(c.Drops), "count")
	rep.add("core.expelled_pkts", float64(c.Expelled), "count")
	rep.add("switchsim.ecn_marked", float64(c.ECN), "count")
	rep.add("transport.timeouts", float64(c.Timeouts), "count")
	rep.add("linkfault.drops", float64(c.LinkDrops), "count")
	rep.add("scenario.run_ms", meanSelfMs(layers, "scenario.run"), "ms")
	rep.add("scenario.doc_ms", meanSelfMs(layers, "scenario.doc"), "ms")
	rep.add("scenario.encode_ms", meanSelfMs(layers, "scenario.encode"), "ms")
	rep.add("scenario.doc_bytes", ratio(float64(dr.docBytes), float64(dr.runs)), "bytes")
	rep.add("scenario.parse_us", 1e3*meanSelfMs(layers, "scenario.parse"), "us")
	rep.add("scenario.fingerprint_us", 1e3*meanSelfMs(layers, "scenario.fingerprint"), "us")
	rep.add("service.cache_put_us", 1e3*meanSelfMs(layers, "service.cache_put"), "us")
	rep.add("service.cache_get_us", 1e3*meanSelfMs(layers, "service.cache_get"), "us")
	rep.add("service.cache_put_mem_us", 1e3*meanSelfMs(layers, "service.cache_put_mem"), "us")
	rep.add("service.cache_get_mem_us", 1e3*meanSelfMs(layers, "service.cache_get_mem"), "us")

	var runMs, waitMs []float64
	for _, list := range jobs {
		for _, j := range list {
			runMs = append(runMs, j.RunMs)
			waitMs = append(waitMs, j.QueueWaitMs)
		}
	}
	rep.add("service.run_ms_p50", quantile(runMs, 0.5), "ms")
	rep.add("service.queue_wait_ms_p50", quantile(waitMs, 0.5), "ms")
	maps.Copy(rep.Metrics, serviceLayer(before, after, len(samples)*w.pointsPerRequest))
	rep.add("fleet.hop_ms_p50", quantile(hops, 0.5), "ms")

	lates, polls := make([]float64, len(samples)), make([]float64, len(samples))
	for i, s := range samples {
		lates[i], polls[i] = msOf(s.late), float64(s.polls)
	}
	rep.add("client.late_p99_ms", quantile(lates, 0.99), "ms")
	rep.add("client.polls_per_request", mean(polls), "count")
	rep.add("client.trace_overhead_ms", quantile(pairedDelta(plain, samples), 0.5), "ms")
	rep.add("failed_frac", ratio(float64(rep.Failed), float64(rep.Attempted)), "ratio")
	b.warnLate(samples)

	path := filepath.Join(b.opts.root, ".bench_build", "svcbench", "spans", b.runName()+".json")
	header := map[string]any{"workload": b.opts.workload, "seed": b.opts.seed, "heldout": b.opts.heldout, "counts": c}
	if err := writeSpans(path, header, spans); err != nil {
		return report{}, err
	}
	fmt.Fprintln(os.Stderr, "svcbench: spans written to", path)
	return rep, nil
}

// runName names a run's output files by workload and seed.
func (b *bench) runName() string {
	name := fmt.Sprintf("%s-seed%d", b.opts.workload, b.opts.seed)
	if b.opts.heldout {
		name += "-heldout"
	}
	return name
}

// checkCounts compares the deterministic counts with those an earlier
// traced run of the same workload and seed recorded in this checkout,
// or records them when there is none.
func (b *bench) checkCounts(c counts) error {
	path := filepath.Join(b.opts.root, ".bench_build", "svcbench", "counts", b.runName()+".json")
	data, err := json.Marshal(c)
	if err != nil {
		return err
	}
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if string(prev) != string(data) {
			return fmt.Errorf("%w: counts %s differ from an earlier traced run of this seed %s (%s)", errCheck, data, prev, path)
		}
		return nil
	case errors.Is(err, os.ErrNotExist):
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, data, 0o644)
	default:
		return err
	}
}

// newReport starts a report over the samples' outcomes.
func newReport(samples []sample) report {
	rep := report{Correct: true, Attempted: len(samples), Metrics: map[string]metric{}}
	for _, s := range samples {
		if s.err != nil {
			rep.Failed++
		}
	}
	if rep.Failed > 0 {
		rep.Correct = false
		for _, s := range samples {
			if s.err != nil {
				fmt.Fprintf(os.Stderr, "svcbench: %s: %v\n", s.req.id, s.err)
				break
			}
		}
		fmt.Fprintf(os.Stderr, "svcbench: %d of %d requests failed\n", rep.Failed, rep.Attempted)
	}
	return rep
}

func (r *report) add(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// latencies returns the latency of every successful sample, in ms.
func latencies(samples []sample) []float64 {
	var out []float64
	for i := range samples {
		if samples[i].err == nil {
			out = append(out, samples[i].latencyMs())
		}
	}
	return out
}

// pairedDelta returns, for every request that succeeded in both passes,
// its latency in the traced pass minus that in the untraced one. Both
// passes replay the same requests under the same IDs; pairing them
// cancels what each request itself costs, which for cold varies over 10x
// between entries and would swamp a difference of medians.
func pairedDelta(plain, traced []sample) []float64 {
	base := make(map[string]float64, len(plain))
	for i := range plain {
		if plain[i].err == nil {
			base[plain[i].req.id] = plain[i].latencyMs()
		}
	}
	var out []float64
	for i := range traced {
		if v, ok := base[traced[i].req.id]; ok && traced[i].err == nil {
			out = append(out, traced[i].latencyMs()-v)
		}
	}
	return out
}

func okCount(samples []sample) int {
	n := 0
	for _, s := range samples {
		if s.err == nil {
			n++
		}
	}
	return n
}

// lateLimit is the generator lateness past which a run is flagged: the
// generator, not the system, would then be shaping the traffic.
const lateLimit = 10 * time.Millisecond

func (b *bench) warnLate(samples []sample) {
	lates := make([]float64, len(samples))
	for i, s := range samples {
		lates[i] = msOf(s.late)
	}
	if p := quantile(lates, 0.99); p > msOf(lateLimit) {
		fmt.Fprintf(os.Stderr, "svcbench: warning: generator fell behind: p99 lateness %.2f ms\n", p)
	}
}
