package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The tiers listen on fixed loopback ports: the router's ring hashes the
// worker URLs, so random ports would move shard placement between runs.
const routerAddr = "127.0.0.1:27470"

var workerAddrs = []string{"127.0.0.1:27471", "127.0.0.1:27472"}

// tierProcs is GOMAXPROCS and -workers for every tier process: one
// simulation at a time per worker, and one P for the router.
const tierProcs = 1

// maxJobs bounds each worker's job ledger. Finished jobs hold their
// result documents, so a small fixed ledger keeps peak memory from
// growing with the number of requests a run completes.
const maxJobs = 256

// proc is one started tier process.
type proc struct {
	name   string
	url    string // base URL the tier answers on
	cmd    *exec.Cmd
	log    *os.File
	exited chan struct{} // closed once cmd.Wait returns
}

// tiers is a running fleet: two occamy-served workers behind one
// occamy-router, all on loopback.
type tiers struct {
	dir        string // logs and cache directories
	procs      []*proc
	workerURLs []string
	routerURL  string
}

// startTiers launches the fleet with fresh cache directories under dir
// and returns once every tier answers GET /v1/stats. On error every
// process already started is stopped.
func startTiers(ctx context.Context, hc *http.Client, bin, dir string, cacheMB int) (*tiers, error) {
	t := &tiers{dir: dir, routerURL: "http://" + routerAddr}
	for _, a := range append([]string{routerAddr}, workerAddrs...) {
		l, err := net.Listen("tcp", a)
		if err != nil {
			return nil, fmt.Errorf("tier port %s is taken: %w", a, err)
		}
		l.Close()
	}
	for i, a := range workerAddrs {
		t.workerURLs = append(t.workerURLs, "http://"+a)
		err := t.launch(dir, fmt.Sprintf("w%d", i), t.workerURLs[i], filepath.Join(bin, "occamy-served"),
			"-addr", a, "-workers", strconv.Itoa(tierProcs),
			"-cache-mb", strconv.Itoa(cacheMB), "-cache-dir", t.cacheDir(i),
			"-max-jobs", strconv.Itoa(maxJobs), "-drain", "2s")
		if err != nil {
			t.stop()
			return nil, err
		}
	}
	err := t.launch(dir, "router", t.routerURL, filepath.Join(bin, "occamy-router"),
		"-addr", routerAddr, "-workers", strings.Join(t.workerURLs, ","), "-drain", "2s")
	if err != nil {
		t.stop()
		return nil, err
	}
	for _, p := range t.procs {
		if err := waitReady(ctx, hc, p); err != nil {
			t.stop()
			return nil, err
		}
	}
	return t, nil
}

// cacheDir is worker w's persistent cache directory.
func (t *tiers) cacheDir(w int) string {
	return filepath.Join(t.dir, fmt.Sprintf("cache-w%d", w))
}

// launch starts one tier process, logging to <dir>/<name>.log. The
// process is killed if the benchmark itself dies.
func (t *tiers) launch(dir, name, url, path string, args ...string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	log, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return err
	}
	cmd := exec.Command(path, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(tierProcs))
	cmd.Stdout, cmd.Stderr = log, log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, url: url, cmd: cmd, log: log, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped tier carries no information
		close(p.exited)
	}()
	t.procs = append(t.procs, p)
	return nil
}

// waitReady polls the tier's /v1/stats until it answers 200, the tier
// exits, or 15s pass.
func waitReady(ctx context.Context, hc *http.Client, p *proc) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		if st, _, err := call(ctx, hc, http.MethodGet, p.url+"/v1/stats", nil, ""); err == nil && st == http.StatusOK {
			return nil
		}
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited before answering (see its log)", p.name)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(250 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s did not answer within 15s", p.name)
		}
	}
}

// peakRSSMiB sums the tiers' peak resident set sizes.
func (t *tiers) peakRSSMiB() (float64, error) {
	var kb int64
	for _, p := range t.procs {
		v, err := peakRSSKiB(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		kb += v
	}
	return float64(kb) / 1024, nil
}

// stop sends SIGTERM to every tier, router first, and waits for each to
// exit; a tier still running after 10s is killed and waited for.
func (t *tiers) stop() {
	if t == nil {
		return
	}
	for i := len(t.procs) - 1; i >= 0; i-- {
		p := t.procs[i]
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		select {
		case <-p.exited:
		case <-time.After(10 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.exited
		}
		p.log.Close()
	}
	t.procs = nil
}
