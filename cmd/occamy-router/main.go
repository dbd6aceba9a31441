// occamy-router fronts a fleet of occamy-served workers with the same
// HTTP API one worker serves, sharding by content: every POST /v1/runs
// is routed by consistent hash over the spec's fingerprint — the key
// the workers' result caches use — so an identical (or semantically
// equivalent) spec always lands on the same worker, and resubmissions
// stay O(1) cache hits no matter how many workers the fleet has.
// Sweeps are jobs in the router's own job table (the worker's job
// lifecycle, embedded): each is expanded router-side and fanned
// point-by-point to each point's home shard, then re-assembled into the
// byte-identical table a single worker would have produced; POST
// /v1/batch fans out the same
// way with one sub-batch per shard. GET /v1/stats and /v1/cache merge
// the whole fleet (the submission-ledger identities reconcile on the
// sums). A per-client token bucket (X-Client-ID header, else remote
// host) answers 429 + Retry-After before one greedy client can starve
// every worker queue.
//
// Usage:
//
//	occamy-router -workers http://h1:8080,http://h2:8080 [-addr :8070]
//	    [-rate 0] [-burst 0] [-max-sweep-points 256] [-sweep-cache-mb 64]
//
//	curl -X POST 'localhost:8070/v1/runs?name=burst-absorb&scale=quick'
//	curl localhost:8070/v1/runs/w0.r1        # shard-addressed job ID
//	curl localhost:8070/v1/stats             # fleet-wide merged ledger
//
// The router holds no simulation state: results live on (and are
// served through) their home shards, so killing and restarting the
// router loses only in-flight sweep aggregations.
//
// See SERVICE.md for the endpoint reference.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"occamy/internal/fleet"
	"occamy/internal/obs"
)

func main() {
	addr := flag.String("addr", ":8070", "listen address")
	workers := flag.String("workers", "", "comma-separated occamy-served base URLs (required)")
	replicas := flag.Int("replicas", 0, "virtual nodes per worker on the hash ring (0 = 128)")
	rate := flag.Float64("rate", 0, "per-client admission rate in requests/second (0 = unlimited)")
	burst := flag.Float64("burst", 0, "per-client burst allowance (0 = max(1, rate))")
	maxSweep := flag.Int("max-sweep-points", 0, "maximum expanded grid points per sweep request (0 = 256)")
	sweepCacheMB := flag.Int64("sweep-cache-mb", 64, "aggregated-sweep result-cache budget in MB")
	pointTimeout := flag.Duration("point-timeout", 10*time.Minute, "per-point submit-to-done budget inside a sweep")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight HTTP requests")
	logLevel := flag.String("log-level", "", "structured JSON logs on stderr at this level (debug, info, warn, error; empty = off)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = off)")
	flag.Parse()

	var urls []string
	for _, u := range strings.Split(*workers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "occamy-router: -workers needs at least one occamy-served URL")
		os.Exit(2)
	}

	logger, err := obs.NewLogger(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "occamy-router:", err)
		os.Exit(2)
	}
	obs.StartPprof(*pprofAddr)

	if err := run(*addr, fleet.Config{
		Workers:         urls,
		Replicas:        *replicas,
		MaxSweepPoints:  *maxSweep,
		RatePerClient:   *rate,
		Burst:           *burst,
		SweepCacheBytes: *sweepCacheMB << 20,
		PointTimeout:    *pointTimeout,
		Logger:          logger,
	}, *drain); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run owns the server lifecycle: every shutdown path goes through
// http.Server.Shutdown so in-flight proxied requests drain before the
// process exits, then closes the router's sweep jobs (the workers keep
// running — the router is stateless).
func run(addr string, cfg fleet.Config, drain time.Duration) error {
	rt, err := fleet.NewRouter(cfg)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	srv := &http.Server{Addr: addr, Handler: rt.Handler()}
	errc := make(chan error, 1)
	go func() {
		log.Printf("occamy-router listening on %s (%d workers, rate=%.1f/s)",
			addr, len(cfg.Workers), cfg.RatePerClient)
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		return err // ListenAndServe never returns nil
	case <-ctx.Done():
	}

	log.Printf("occamy-router: shutting down (draining HTTP for up to %v)", drain)
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Printf("occamy-router: HTTP drain: %v", err)
	}
	rt.Close()
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("occamy-router: bye")
	return nil
}
