package main

import (
	"bytes"
	"context"
	"fmt"

	"occamy/internal/scenario"
	"occamy/internal/service"
)

// directItem is one spec the traced run also drives straight through
// the layers' public APIs, inside the benchmark's own process.
type directItem struct {
	req    string // request ID shared with the HTTP spans of the same spec
	spec   scenario.Spec
	served []byte // the document the service served for it, or nil
}

// counts are deterministic work counts summed over a set of runs. They
// are identity guards: a change that only speeds the program up must
// keep every one exact for the same seed.
type counts struct {
	Events    int64 `json:"sim.events"`
	RxPkts    int64 `json:"switchsim.rx_pkts"`
	Drops     int64 `json:"switchsim.drops"`
	Expelled  int64 `json:"core.expelled_pkts"`
	ECN       int64 `json:"switchsim.ecn_marked"`
	Timeouts  int64 `json:"transport.timeouts"`
	LinkDrops int64 `json:"linkfault.drops"`
}

func (c *counts) add(r *scenario.Result) {
	c.Events += int64(r.Events)
	c.RxPkts += r.Total.RxPackets
	c.Drops += r.Total.Drops()
	c.Expelled += r.Total.DropsExpelled
	c.ECN += r.Total.ECNMarked
	for _, w := range r.Workloads {
		c.Timeouts += w.Timeouts
	}
	for _, l := range r.FaultLinks {
		c.LinkDrops += l.Dropped
	}
}

// directResult sums a direct pass.
type directResult struct {
	counts   counts
	runs     int
	docBytes int64
}

// directPass parses, fingerprints, runs, builds and encodes every item's
// spec, then puts the document into and gets it back from private
// caches — one memory-only, one backed by cacheDir — recording a span
// around each call. A run that does not conserve packets, a document
// that differs from the one the service served, or a cache that returns
// other bytes fails the pass.
func directPass(ctx context.Context, tr *tracer, items []directItem, cacheDir string) (directResult, error) {
	var out directResult
	mem, err := service.NewCache(1<<30, "")
	if err != nil {
		return out, err
	}
	disk, err := service.NewCache(1<<30, cacheDir)
	if err != nil {
		return out, err
	}
	// A one-byte budget admits nothing, so every Get restores from disk.
	restore, err := service.NewCache(1, cacheDir)
	if err != nil {
		return out, err
	}
	for _, it := range items {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		root := tr.start("direct", it.req, 0)
		data, res, fp, err := directRun(tr, it, root)
		if err == nil {
			err = directCache(tr, it.req, root, fp, data, mem, disk, restore)
		}
		tr.end(root)
		if err != nil {
			return out, fmt.Errorf("%s (%s): %w", it.req, it.spec.Name, err)
		}
		if d := res.AccountingDrift(); d != 0 {
			return out, fmt.Errorf("%w: %s: packet accounting drifts by %d", errCheck, it.req, d)
		}
		if it.served != nil && !sameDoc(it.served, data) {
			return out, fmt.Errorf("%w: %s: served document differs from a direct run of the same spec", errCheck, it.req)
		}
		out.counts.add(res)
		out.runs++
		out.docBytes += int64(len(data))
	}
	return out, nil
}

// sameDoc reports whether a document served inside a job view is the
// encoded document: the view embeds it compacted, without the encoder's
// trailing newline.
func sameDoc(served, encoded []byte) bool {
	return bytes.Equal(served, bytes.TrimSuffix(encoded, []byte("\n")))
}

// directRun is the scenario layer's share of one item: it returns the
// encoded document, the run and the spec's fingerprint.
func directRun(tr *tracer, it directItem, root int) ([]byte, *scenario.Result, string, error) {
	body, err := it.spec.Marshal()
	if err != nil {
		return nil, nil, "", err
	}
	sp := tr.start("scenario.parse", it.req, root)
	spec, err := scenario.ParseSpec(body)
	tr.end(sp)
	if err != nil {
		return nil, nil, "", err
	}
	sp = tr.start("scenario.fingerprint", it.req, root)
	fp, err := spec.Fingerprint()
	tr.end(sp)
	if err != nil {
		return nil, nil, "", err
	}
	sp = tr.start("scenario.run", it.req, root)
	res, err := scenario.RunWithProgress(spec, nil, nil)
	tr.end(sp)
	if err != nil {
		return nil, nil, "", err
	}
	sp = tr.start("scenario.doc", it.req, root)
	doc, err := res.Doc(true)
	tr.end(sp)
	if err != nil {
		return nil, nil, "", err
	}
	sp = tr.start("scenario.encode", it.req, root)
	data, err := doc.Encode()
	tr.end(sp)
	return data, res, fp, err
}

// directCache is the service cache's share of one item: a Put and a Get
// on the memory-only cache, a Put on the disk-backed one, and a Get that
// restores the entry from disk.
func directCache(tr *tracer, req string, root int, key string, data []byte, mem, disk, restore *service.Cache) error {
	sp := tr.start("service.cache_put_mem", req, root)
	mem.Put(key, data)
	tr.end(sp)
	sp = tr.start("service.cache_get_mem", req, root)
	got := mem.Get(key)
	tr.end(sp)
	if !bytes.Equal(got, data) {
		return fmt.Errorf("%w: memory cache returned other bytes", errCheck)
	}
	sp = tr.start("service.cache_put", req, root)
	disk.Put(key, data)
	tr.end(sp)
	sp = tr.start("service.cache_get", req, root)
	got = restore.Get(key)
	tr.end(sp)
	if !bytes.Equal(got, data) {
		return fmt.Errorf("%w: disk cache restored other bytes", errCheck)
	}
	return nil
}

// sweepTables checks each router-assembled sweep table against a direct
// scenario.RunSweep of the same base spec and axes, byte for byte.
func sweepTables(ctx context.Context, tr *tracer, samples []sample) error {
	axes, err := parseAxes()
	if err != nil {
		return err
	}
	for _, s := range samples {
		if err := ctx.Err(); err != nil {
			return err
		}
		sp := tr.start("scenario.run_sweep", s.req.id, 0)
		tab, err := scenario.RunSweep(s.req.spec, axes)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", s.req.id, err)
		}
		doc := scenario.NewTableDoc(tab)
		want, err := doc.Encode()
		if err != nil {
			return err
		}
		if !sameDoc(s.result, want) {
			return fmt.Errorf("%w: %s: router-assembled table differs from a direct RunSweep", errCheck, s.req.id)
		}
	}
	return nil
}

// sweepItems expands every sampled sweep into its grid points.
func sweepItems(samples []sample) ([]directItem, error) {
	axes, err := parseAxes()
	if err != nil {
		return nil, err
	}
	var items []directItem
	for _, s := range samples {
		points, _, err := scenario.Expand(s.req.spec, axes)
		if err != nil {
			return nil, err
		}
		for k, p := range points {
			items = append(items, directItem{req: fmt.Sprintf("%s.p%d", s.req.id, k), spec: p})
		}
	}
	return items, nil
}

func parseAxes() ([]scenario.SweepAxis, error) {
	axes := make([]scenario.SweepAxis, len(sweepAxes))
	for i, a := range sweepAxes {
		ax, err := scenario.ParseSweep(a)
		if err != nil {
			return nil, err
		}
		axes[i] = ax
	}
	return axes, nil
}
