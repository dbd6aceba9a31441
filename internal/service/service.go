package service

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"occamy/internal/scenario"
)

// ErrQueueFull is the capacity refusal: the not-yet-running backlog is
// at QueueDepth. HTTP maps it to 503 (retryable), unlike validation
// errors (400).
var ErrQueueFull = errors.New("service: job queue full")

// ErrSweepTooLarge rejects sweep grids whose cross-product exceeds
// Config.MaxSweepPoints — checked before expansion, so a sweep bomb
// costs O(axes), not O(points).
var ErrSweepTooLarge = errors.New("service: sweep grid too large")

// ErrClosed refuses submissions to a closed or draining service. HTTP
// maps it to 503 with a Retry-After header — the client should come
// back once a replacement instance is up — unlike ErrQueueFull's plain
// 503 (same process, just saturated right now).
var ErrClosed = errors.New("service: shutting down")

// JobState is a job's lifecycle position.
type JobState string

// Job lifecycle: Submit enqueues (queued), a worker picks it up
// (running), and it ends done, failed, or canceled.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// Job is one asynchronous unit of work: a single scenario run or a
// sweep grid. Fields are guarded by the owning Service's mutex; use the
// Status snapshot outside it.
type Job struct {
	ID   string
	Kind string // "run" | "sweep"

	state       JobState
	spec        scenario.Spec
	axes        []scenario.SweepAxis // sweep jobs only
	fingerprint string
	trace       string // X-Occamy-Trace of the submission that created it
	cached      bool
	errMsg      string
	result      []byte              // canonical JSON (ResultDoc or TableDoc)
	doc         *scenario.ResultDoc // decoded result, run jobs only
	cancel      atomic.Bool
	// progress is the latest live-progress snapshot, published by the
	// running worker at engine chunk boundaries and read lock-free by
	// status polls (see progress.go). nil until the run first reports.
	progress  atomic.Pointer[progressSample]
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// JobStatus is the externally visible snapshot of a job.
type JobStatus struct {
	ID          string    `json:"id"`
	Kind        string    `json:"kind"`
	State       JobState  `json:"state"`
	Scenario    string    `json:"scenario"`
	Fingerprint string    `json:"fingerprint"`
	Trace       string    `json:"trace,omitempty"`
	Cached      bool      `json:"cached"`
	Error       string    `json:"error,omitempty"`
	Submitted   time.Time `json:"submitted"`
	Started     time.Time `json:"started,omitzero"`
	Finished    time.Time `json:"finished,omitzero"`
	// QueueWaitMs is submitted→started; RunMs is started→finished (for a
	// running job, started→now). Rendered server-side so clients don't
	// subtract timestamps. Absent until the job starts.
	QueueWaitMs float64 `json:"queue_wait_ms,omitempty"`
	RunMs       float64 `json:"run_ms,omitempty"`
	// Progress is the live-progress snapshot of a running (or finished)
	// job; see progress.go for the schema. Absent before the first
	// engine chunk reports.
	Progress *Progress `json:"progress,omitempty"`
}

// Config sizes a Service.
type Config struct {
	// Workers is the simulation worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the backlog of not-yet-running jobs; Submit
	// refuses beyond it (default 1024).
	QueueDepth int
	// MaxJobs bounds the job ledger: once exceeded, the oldest terminal
	// jobs (and their result references) are pruned so a long-running
	// server's memory is bounded by the cache budget, not by its request
	// history (default 4096). Live jobs are never pruned.
	MaxJobs int
	// MaxSweepPoints bounds a single sweep's expanded grid; SubmitSweep
	// refuses larger cross-products with ErrSweepTooLarge before
	// expanding them (default 256 — well below QueueDepth, and one
	// sweep job already saturates the worker pool via RunGrid).
	MaxSweepPoints int
	// CacheBytes is the result-cache memory budget (default 256 MB);
	// CacheDir enables disk persistence when non-empty.
	CacheBytes int64
	CacheDir   string
	// Logger receives structured job-lifecycle and request records
	// (occamy-served wires a JSON handler behind -log-level). nil
	// discards everything, so embedders and tests stay silent.
	Logger *slog.Logger
	// SweepRunner executes sweep jobs; nil runs each grid in process
	// (RunSweepWithProgress). The fleet router plugs in its shard
	// fan-out.
	SweepRunner SweepRunner
}

// SweepRunner executes one sweep job's grid and returns its encoded
// summary table. It must return scenario.ErrCanceled once canceled
// reports true, and call pointDone (safe for concurrent use) once per
// finished grid point; trace is the job's X-Occamy-Trace.
type SweepRunner func(spec scenario.Spec, axes []scenario.SweepAxis, trace string, canceled func() bool, pointDone func()) ([]byte, error)

// Service is the scenario-execution engine behind the HTTP API: a
// bounded worker pool draining a job queue, with a content-addressed
// cache short-circuiting any spec that has already been simulated.
type Service struct {
	cache *Cache

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string // submission order, for listing
	// inflight maps fingerprints to their active (queued/running) job,
	// so concurrent submissions of one spec coalesce to one simulation.
	inflight       map[string]*Job
	maxJobs        int
	maxSweepPoints int
	seq            int64
	closed         bool

	// Observability (GET /v1/stats): the cumulative submission ledger,
	// worker-busy nanoseconds (terminal jobs; running ones are credited
	// at snapshot time), and per-endpoint latency histograms. counters
	// and busyNanos are guarded by mu; the histograms are internally
	// lock-free.
	counters  Counters
	busyNanos int64
	workers   int
	started   time.Time
	endpoints Endpoints
	logger    *slog.Logger
	runSweep  SweepRunner

	queue chan *Job
	wg    sync.WaitGroup
}

// New starts a service: the worker pool is running on return.
func New(cfg Config) (*Service, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 4096
	}
	if cfg.MaxSweepPoints <= 0 {
		cfg.MaxSweepPoints = 256
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	if cfg.SweepRunner == nil {
		cfg.SweepRunner = runLocalSweep
	}
	cache, err := NewCache(cfg.CacheBytes, cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cache:          cache,
		jobs:           make(map[string]*Job),
		inflight:       make(map[string]*Job),
		maxJobs:        cfg.MaxJobs,
		maxSweepPoints: cfg.MaxSweepPoints,
		workers:        cfg.Workers,
		started:        time.Now(),
		logger:         cfg.Logger,
		runSweep:       cfg.SweepRunner,
		endpoints:      NewEndpoints(),
		queue:          make(chan *Job, cfg.QueueDepth),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Close stops accepting jobs, cancels the backlog, and waits for the
// workers to finish their current simulations.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	// Flag every non-terminal job so running simulations bail at their
	// next chunk boundary and queued ones are skipped by the workers.
	for _, j := range s.jobs {
		j.cancel.Store(true)
	}
	s.mu.Unlock()
	close(s.queue)
	s.wg.Wait()
}

// Cache exposes the result cache (stats endpoint, tests).
func (s *Service) Cache() *Cache { return s.cache }

// status snapshots a job; the caller holds s.mu.
func (j *Job) status() JobStatus {
	st := JobStatus{
		ID: j.ID, Kind: j.Kind, State: j.state,
		Scenario: j.spec.Name, Fingerprint: j.fingerprint, Trace: j.trace, Cached: j.cached,
		Error: j.errMsg, Submitted: j.submitted, Started: j.started, Finished: j.finished,
	}
	if !j.started.IsZero() {
		st.QueueWaitMs = durToMs(j.started.Sub(j.submitted))
		switch {
		case !j.finished.IsZero():
			st.RunMs = durToMs(j.finished.Sub(j.started))
		case j.state == JobRunning:
			st.RunMs = durToMs(time.Since(j.started))
		}
	}
	st.Progress = j.progressStatus()
	return st
}

// Submit enqueues a validated spec for asynchronous execution and
// returns the job's status snapshot. Three fast paths never touch the
// worker pool: a cache hit returns an already-done job carrying the
// memoized result; an identical spec already queued or running
// coalesces onto that job; a full queue is refused with an error.
func (s *Service) Submit(spec scenario.Spec) (JobStatus, error) {
	return s.SubmitTraced(spec, "")
}

// SubmitTraced is Submit with a request trace ID to stamp on the job
// (see trace.go for the header contract). Coalesced submissions keep
// the first submitter's trace — the job is that submission's work; a
// later joiner learns the original ID from the returned status.
func (s *Service) SubmitTraced(spec scenario.Spec, trace string) (JobStatus, error) {
	fp, err := spec.Fingerprint()
	if err != nil {
		return JobStatus{}, err
	}
	// Probe the cache before taking the service lock: with -cache-dir a
	// miss falls through to disk I/O, which must not stall every status
	// poll. Benign race: an identical run completing in the gap means
	// one extra simulation producing the same bytes.
	cached := s.cache.Get(fp)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobStatus{}, ErrClosed
	}
	s.counters.Submitted++
	if cached != nil {
		s.counters.CacheHits++
		j := s.newJobLocked("run", spec, fp, trace)
		j.state = JobDone
		j.cached = true
		j.result = cached
		j.finished = j.submitted
		s.logJob(j, "cache hit")
		return j.status(), nil
	}
	// Coalesce onto an identical in-flight job — unless it has been
	// cancel-flagged (it is doomed to end canceled; this submission
	// deserves a real run).
	if active, ok := s.inflight[fp]; ok && !active.cancel.Load() {
		s.counters.Coalesced++
		s.logJob(active, "coalesced", "trace_joined", trace)
		return active.status(), nil
	}
	j := s.newJobLocked("run", spec, fp, trace)
	if err := s.enqueueLocked(j); err != nil {
		return JobStatus{}, err
	}
	s.logJob(j, "enqueued")
	return j.status(), nil
}

// SubmitSweep enqueues a sweep grid: the base spec crossed with the
// axes, executed by the configured SweepRunner (by default in process
// through experiments.RunGrid), producing a summary table (one row per
// grid point). Sweep results are content-addressed too —
// by base-spec fingerprint plus the axes — so repeating a grid is a
// cache hit like repeating a run.
func (s *Service) SubmitSweep(spec scenario.Spec, axes []scenario.SweepAxis) (JobStatus, error) {
	return s.SubmitSweepTraced(spec, axes, "")
}

// SubmitSweepTraced is SubmitSweep with a request trace ID to stamp on
// the job (see SubmitTraced).
func (s *Service) SubmitSweepTraced(spec scenario.Spec, axes []scenario.SweepAxis, trace string) (JobStatus, error) {
	// Refuse sweep bombs before expanding anything: the grid size is the
	// exact product of the axis value counts, so an oversize request is
	// rejected in O(axes) — one POST with three 1000-value axes must not
	// allocate a billion specs first.
	points := 1
	for _, ax := range axes {
		if len(ax.Values) == 0 {
			continue
		}
		if points > s.maxSweepPoints/len(ax.Values) {
			points = s.maxSweepPoints + 1
			break
		}
		points *= len(ax.Values)
	}
	if points > s.maxSweepPoints {
		return JobStatus{}, fmt.Errorf("%w: grid has > %d points (cap %d)",
			ErrSweepTooLarge, s.maxSweepPoints, s.maxSweepPoints)
	}
	fp, err := SweepFingerprint(spec, axes)
	if err != nil {
		return JobStatus{}, err
	}
	// Reject bad axes at submit time (unknown fields, unparsable
	// values), not inside a worker: expanding the grid validates both.
	specs, _, err := scenario.Expand(spec, axes)
	if err != nil {
		return JobStatus{}, err
	}
	for _, sp := range specs {
		if err := sp.WithDefaults().Validate(); err != nil {
			return JobStatus{}, err
		}
	}
	cached := s.cache.Get(fp) // outside s.mu, as in Submit
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobStatus{}, ErrClosed
	}
	s.counters.Submitted++
	if cached != nil {
		s.counters.CacheHits++
		j := s.newJobLocked("sweep", spec, fp, trace)
		j.state = JobDone
		j.cached = true
		j.result = cached
		j.finished = j.submitted
		s.logJob(j, "cache hit")
		return j.status(), nil
	}
	if active, ok := s.inflight[fp]; ok && !active.cancel.Load() {
		s.counters.Coalesced++
		s.logJob(active, "coalesced", "trace_joined", trace)
		return active.status(), nil
	}
	j := s.newJobLocked("sweep", spec, fp, trace)
	j.axes = axes
	if err := s.enqueueLocked(j); err != nil {
		return JobStatus{}, err
	}
	s.logJob(j, "enqueued")
	return j.status(), nil
}

// SweepFingerprint extends the spec fingerprint with the sweep axes.
func SweepFingerprint(spec scenario.Spec, axes []scenario.SweepAxis) (string, error) {
	fp, err := spec.Fingerprint()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "occamy/sweep/v%s\n%s\n", scenario.Version, fp)
	for _, ax := range axes {
		// %q-quote each token: values may contain spaces and commas (the
		// reflection setter accepts arbitrary strings), so naive joining
		// would let distinct grids collide on one key.
		fmt.Fprintf(h, "%q", ax.Path)
		for _, v := range ax.Values {
			fmt.Fprintf(h, "=%q", v)
		}
		fmt.Fprintln(h)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), nil
}

// newJobLocked registers a fresh job, pruning the oldest terminal jobs
// past the ledger bound; the caller holds s.mu.
func (s *Service) newJobLocked(kind string, spec scenario.Spec, fp, trace string) *Job {
	s.seq++
	j := &Job{
		ID:          fmt.Sprintf("r%d", s.seq),
		Kind:        kind,
		state:       JobQueued,
		spec:        spec,
		fingerprint: fp,
		trace:       trace,
		submitted:   time.Now().UTC(),
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	if len(s.order) > s.maxJobs {
		s.pruneLocked()
	}
	return j
}

// pruneLocked drops the oldest terminal jobs until the ledger fits the
// bound (live jobs always survive, so the ledger can exceed the bound
// only while that many jobs are actually queued or running); the caller
// holds s.mu. Pruned cache-hit results stay servable — resubmission is
// another O(1) hit — only the job ids expire.
func (s *Service) pruneLocked() {
	kept := s.order[:0]
	excess := len(s.order) - s.maxJobs
	for _, id := range s.order {
		if excess > 0 && s.jobs[id].state.Terminal() {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// enqueueLocked pushes a queued job to the workers; the caller holds
// s.mu.
func (s *Service) enqueueLocked(j *Job) error {
	select {
	case s.queue <- j:
		s.inflight[j.fingerprint] = j
		s.counters.Enqueued++
		return nil
	default:
		delete(s.jobs, j.ID)
		s.order = s.order[:len(s.order)-1]
		s.counters.Refused++
		s.logJob(j, "refused", "queue_cap", cap(s.queue))
		return fmt.Errorf("%w (%d queued)", ErrQueueFull, cap(s.queue))
	}
}

// Get returns a job's status snapshot.
func (s *Service) Get(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return j.status(), true
}

// Jobs lists every job's status in submission order.
func (s *Service) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status())
	}
	return out
}

// Result returns a done job's canonical JSON result bytes.
func (s *Service) Result(id string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || j.state != JobDone {
		return nil, false
	}
	return j.result, true
}

// ResultDoc returns a done run job's decoded result document (cache
// hits decode lazily, once). The decode itself — megabytes of trace
// series for paper-scale runs — happens outside the service lock so a
// trace request never stalls submissions and status polls.
func (s *Service) ResultDoc(id string) (*scenario.ResultDoc, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	var data []byte
	switch {
	case !ok:
		s.mu.Unlock()
		return nil, fmt.Errorf("service: no job %s", id)
	case j.state != JobDone:
		state := j.state
		s.mu.Unlock()
		return nil, fmt.Errorf("service: job %s is %s, not done", id, state)
	case j.Kind != "run":
		kind := j.Kind
		s.mu.Unlock()
		return nil, fmt.Errorf("service: job %s is a %s, not a run", id, kind)
	case j.doc != nil:
		doc := j.doc
		s.mu.Unlock()
		return doc, nil
	}
	data = j.result // terminal: immutable from here on
	s.mu.Unlock()

	doc, err := scenario.DecodeResultDoc(data)
	if err != nil {
		return nil, fmt.Errorf("service: job %s: %w", id, err)
	}
	s.mu.Lock()
	if j.doc == nil {
		j.doc = doc
	} else {
		doc = j.doc // another request decoded first; share its copy
	}
	s.mu.Unlock()
	return doc, nil
}

// Cancel requests a job stop: a queued job is skipped when a worker
// pops it; a running one bails at its next engine chunk. Canceling a
// terminal job is a no-op returning its current state.
func (s *Service) Cancel(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	if !j.state.Terminal() {
		j.cancel.Store(true)
		if j.state == JobQueued {
			// The worker will observe the flag when it pops the job; mark
			// it now so status reads don't lag.
			s.finishLocked(j, JobCanceled, nil, "")
		}
	}
	return j.status(), true
}

// finishLocked moves a job to a terminal state; the caller holds s.mu.
func (s *Service) finishLocked(j *Job, state JobState, result []byte, errMsg string) {
	wasRunning := j.state == JobRunning
	j.state = state
	j.result = result
	j.errMsg = errMsg
	j.finished = time.Now().UTC()
	if s.inflight[j.fingerprint] == j {
		delete(s.inflight, j.fingerprint)
	}
	switch state {
	case JobDone:
		s.counters.Done++
	case JobFailed:
		s.counters.Failed++
	case JobCanceled:
		s.counters.Canceled++
	}
	if wasRunning {
		s.busyNanos += j.finished.Sub(j.started).Nanoseconds()
	}
	attrs := []any{"queue_wait_ms", durToMs(j.started.Sub(j.submitted)), "run_ms", durToMs(j.finished.Sub(j.started))}
	if !wasRunning {
		attrs = nil // canceled straight out of the queue: no durations to report
	}
	if errMsg != "" {
		attrs = append(attrs, "error", errMsg)
	}
	s.logJob(j, string(state), attrs...)
}

// logJob emits one structured job-lifecycle record; the caller holds
// s.mu (slog handlers are safe there, and job transitions are rare
// relative to the lock's request traffic).
func (s *Service) logJob(j *Job, event string, attrs ...any) {
	if !s.logger.Enabled(nil, slog.LevelInfo) {
		return
	}
	base := []any{"job", j.ID, "kind", j.Kind, "scenario", j.spec.Name, "state", string(j.state)}
	if j.trace != "" {
		base = append(base, "trace", j.trace)
	}
	s.logger.Info(event, append(base, attrs...)...)
}

// worker drains the queue until Close.
func (s *Service) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job end to end. Determinism note: the simulation
// seeds every RNG from the spec (WithDefaults pins Seed), so a job's
// result bytes depend only on its fingerprint preimage — never on
// which worker ran it, the pool size, or queue order. That property is
// what makes the cache sound.
func (s *Service) runJob(j *Job) {
	s.mu.Lock()
	if j.state != JobQueued || j.cancel.Load() {
		if !j.state.Terminal() {
			s.finishLocked(j, JobCanceled, nil, "")
		}
		s.mu.Unlock()
		return
	}
	j.state = JobRunning
	j.started = time.Now().UTC()
	spec, axes := j.spec, j.axes
	s.logJob(j, "started", "queue_wait_ms", durToMs(j.started.Sub(j.submitted)))
	s.mu.Unlock()

	var data []byte
	var err error
	if j.Kind == "sweep" {
		data, err = s.runSweep(spec, axes, j.trace, j.cancel.Load, j.sweepProgressFunc(gridPoints(axes)))
	} else {
		data, err = runJobOnce(j, spec)
	}

	if err == nil {
		// Populate the cache before taking the service lock: with
		// -cache-dir this writes the full document to disk.
		s.cache.Put(j.fingerprint, data)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case errors.Is(err, scenario.ErrCanceled):
		s.finishLocked(j, JobCanceled, nil, "")
	case err != nil:
		s.finishLocked(j, JobFailed, nil, err.Error())
	default:
		s.finishLocked(j, JobDone, data, "")
	}
}

// runJobOnce executes a single spec and encodes the canonical document.
// The progress hook fires at engine chunk boundaries, outside the
// deterministic core, and publishes onto the job's atomic snapshot
// (progress.go) — the wall clock is read here, never inside scenario.
func runJobOnce(j *Job, spec scenario.Spec) ([]byte, error) {
	res, err := scenario.RunWithProgress(spec, j.cancel.Load, j.runProgressFunc())
	if err != nil {
		return nil, err
	}
	return res.EncodeJSON(true)
}

// runLocalSweep is the default sweep runner: it executes the grid in
// process and encodes its summary table. The grid fans out through
// experiments.RunGrid inside RunSweepWithProgress, so one sweep job
// saturates the machine the same way the CLI -j path does; the cancel
// flag reaches every grid point's engine loop. Sweep progress is
// point-granular: the pointDone hook fires concurrently from grid
// workers, so it must be (and is) atomic.
func runLocalSweep(spec scenario.Spec, axes []scenario.SweepAxis, _ string, canceled func() bool, pointDone func()) ([]byte, error) {
	tab, err := scenario.RunSweepWithProgress(spec, axes, canceled, pointDone)
	if err != nil {
		return nil, err
	}
	doc := scenario.NewTableDoc(tab)
	return doc.Encode()
}
