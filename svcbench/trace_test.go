package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.request", Start: 0, End: 100},
		// Overlapping children count once: [10,50] covers 40.
		{ID: 2, Parent: 1, Name: "http.get", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "service.run", Start: 20, End: 50},
		// A child spilling past its parent covers only [90,100].
		{ID: 4, Parent: 1, Name: "http.get", Start: 90, End: 120},
		// A grandchild is its parent's business, not the root's.
		{ID: 5, Parent: 3, Name: "inner", Start: 25, End: 35},
		{ID: 6, Name: "other", Start: 200, End: 260},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 60} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	layers := byName(spans)
	if lt := layers["http.get"]; lt.Count != 2 || lt.TotalMs != 50e-6 || lt.SelfMs != 50e-6 {
		t.Errorf("http.get summary = %+v, want 2 spans, 50ns total and self", lt)
	}
	if got := meanSelfMs(layers, "client.request"); got != 50e-6 {
		t.Errorf("mean self of client.request = %g ms, want 5e-05", got)
	}
}

func TestTracerRecordsParentsAndNilIsOff(t *testing.T) {
	var off *tracer
	if id := off.start("x", "r", 0); id != 0 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	off.end(0)
	tr := newTracer()
	root := tr.start("root", "r1", 0)
	child := tr.start("child", "r1", root)
	tr.end(child)
	tr.record("service.run", "r1", root, tr.epoch.Add(time.Millisecond), tr.epoch.Add(2*time.Millisecond))
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 3 || spans[1].Parent != root || spans[2].Parent != root || spans[2].End-spans[2].Start != int64(time.Millisecond) {
		t.Fatalf("spans = %+v", spans)
	}
}
