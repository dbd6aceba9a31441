package scenario

import (
	"fmt"

	"occamy/internal/sim"
)

// Run progress
//
// A paper-scale run is minutes of wall time; the chunked engine loops in
// build.go already pause every few milliseconds of virtual time to poll
// the cancel check, and the progress hook publishes a snapshot at the
// same seam. The scenario package is inside the deterministic core
// (LINT.md: detrand), so a RunProgress carries only values derived from
// the simulation itself — the virtual clock and the event counter.
// Wall-clock reads, events-per-second rates, and atomic publication
// belong to the caller (internal/service stores snapshots atomically;
// cmd/occamy-scenario renders a live line) — that split is pinned by the
// detrand/nogoroutine fixtures in internal/lint/testdata.

// RunProgress is one deterministic progress sample, published at every
// engine chunk boundary and once more when the run completes.
type RunProgress struct {
	// SimNow is the virtual time reached; SimHorizon the run's nominal
	// span (warmup + duration). SimNow can exceed SimHorizon: gated
	// scenarios run up to a straggler deadline past the horizon, so
	// consumers rendering a fraction should clamp SimNow/SimHorizon at 1.
	SimNow     sim.Time
	SimHorizon sim.Duration
	// Events is the engine's cumulative processed-event count — the
	// numerator of the ROADMAP headline metric (simulated events/sec,
	// once the caller divides by its own wall clock).
	Events uint64
	// Final marks the completion sample: the run finished (it was not
	// canceled) and no further samples follow.
	Final bool
}

// ProgressFunc observes run progress. It is called from the simulation's
// own goroutine between engine chunks — implementations must be cheap
// and must not call back into the run. A nil ProgressFunc is ignored.
type ProgressFunc func(RunProgress)

// RunWithProgress is Run with a cooperative cancel check and a progress
// hook. The engine steps in bounded chunks of virtual time and polls
// canceled between chunks, returning ErrCanceled (and discarding the
// partial run) when it reports true; the job queue in internal/service
// uses it to abort running jobs without a way to interrupt the
// discrete-event engine mid-chunk. progress is invoked with a fresh
// sample at every chunk boundary (the seam the cancel check polls) and
// once more, with Final set, when the run completes. Either hook may be
// nil.
func RunWithProgress(spec Spec, canceled func() bool, progress ProgressFunc) (*Result, error) {
	if _, err := ParseScale(string(spec.Scale)); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", spec.Name, err)
	}
	spec = spec.ApplyScale().WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Raw() {
		return runRaw(spec, canceled, progress)
	}
	return runTransport(spec, canceled, progress)
}
