package switchsim

import (
	"testing"

	"occamy/internal/core"
	"occamy/internal/pkt"
	"occamy/internal/sim"
)

// TestHeadDropSurvivesRecyclingHook: a DropHook that returns expelled
// packets to a pkt.Pool zeroes them in place; HeadDrop must still report
// the true packet size (the expulsion engine's ExpelledBytes accounting
// depends on it).
func TestHeadDropSurvivesRecyclingHook(t *testing.T) {
	eng := sim.NewEngine()
	occ := core.Config{Alpha: 8}
	sw := New("hd", eng, Config{
		Ports: 2, ClassesPerPort: 1, BufferBytes: 64_000,
		Policy: core.New(occ), Occamy: &occ,
	})
	for i := 0; i < 2; i++ {
		sw.AttachPort(i, 1e9, 0, func(*pkt.Packet) {})
	}
	sw.SetRouter(func(p *pkt.Packet) int { return int(p.Dst) })

	pool := pkt.NewPool()
	sw.DropHook = func(p *pkt.Packet, q int, r DropReason) { pool.Put(p) }

	const size = 1000
	for i := 0; i < 10; i++ {
		sw.Receive(&pkt.Packet{ID: uint64(i + 1), Dst: 0, Size: size})
	}
	bytes, cells, ok := sw.HeadDrop(0)
	if !ok {
		t.Fatal("HeadDrop failed on a backlogged queue")
	}
	if bytes != size {
		t.Fatalf("HeadDrop reported %d bytes, want %d (packet recycled before the size was read?)", bytes, size)
	}
	if want := sw.Pool().CellsFor(size); cells != want {
		t.Fatalf("HeadDrop reported %d cells, want %d", cells, want)
	}
}

// A queue that head-drops its last packet leaves the backlog bitmap,
// and rejoins it on the next enqueue.
func TestHeadDropClearsBacklog(t *testing.T) {
	eng := sim.NewEngine()
	occ := core.Config{Alpha: 8}
	sw := New("hd", eng, Config{
		Ports: 2, ClassesPerPort: 1, BufferBytes: 64_000,
		Policy: core.New(occ), Occamy: &occ,
	})
	for i := 0; i < 2; i++ {
		sw.AttachPort(i, 1e9, 0, func(*pkt.Packet) {})
	}
	sw.SetRouter(func(p *pkt.Packet) int { return int(p.Dst) })

	for i := 0; i < 3; i++ { // the first goes straight onto the link
		sw.Receive(&pkt.Packet{ID: uint64(i + 1), Dst: 0, Size: 1000})
	}
	for i := 0; i < 2; i++ {
		if !sw.Backlog().Get(0) {
			t.Fatalf("backlog bit clear with %d bytes queued", sw.QueueLen(0))
		}
		if _, _, ok := sw.HeadDrop(0); !ok {
			t.Fatal("HeadDrop failed on a backlogged queue")
		}
	}
	if sw.Backlog().Get(0) || sw.Backlog().Get(1) {
		t.Fatal("backlog bit set after the queue head-dropped its last packet")
	}
	sw.Receive(&pkt.Packet{ID: 4, Dst: 0, Size: 1000})
	if !sw.Backlog().Get(0) {
		t.Fatal("backlog bit clear after an enqueue")
	}
}
