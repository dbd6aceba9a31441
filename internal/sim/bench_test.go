package sim

import "testing"

// BenchmarkEngineThroughput measures raw event-processing rate — the
// budget every simulation spends.
func BenchmarkEngineThroughput(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(1, func() {})
		if e.Pending() > 1024 {
			e.RunFor(2048)
		}
	}
	e.Run()
}

// BenchmarkEngineTimerChurn measures the arm/cancel pattern the
// transport RTO path generates.
func BenchmarkEngineTimerChurn(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := e.AfterTimer(1000, func() {})
		t.Stop()
		if e.Pending() > 1024 {
			e.RunFor(10)
		}
	}
	e.Run()
}

// BenchmarkEngineTimerRearm measures the re-arm pattern of the
// transport RTO: many pending timers, each pushed back on every ACK,
// with the clock advancing so stale entries reach the top and re-queue.
func BenchmarkEngineTimerRearm(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	var timers [256]Timer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := i & (len(timers) - 1)
		timers[k] = e.ResetTimer(timers[k], 1000, fn)
		if k == len(timers)-1 {
			e.RunFor(10)
		}
	}
	e.Run()
}

// BenchmarkEngineParkedTimers models the event mix of a fabric run: one
// RTO timer parked per live flow (1536 of them, each re-armed in place
// every 1536 packets and almost never due) beside a packet stream whose
// tx-done events go to the heap and whose deliveries queue on 16 lanes.
// One op is one packet: a re-arm, a tx-done and a delivery.
func BenchmarkEngineParkedTimers(b *testing.B) {
	const (
		flows = 1536
		tx    = 100  // ns per packet
		prop  = 1000 // ns on the wire
		rto   = 10 * flows * tx
	)
	e := NewEngine()
	h := &benchHandler{}
	fn := func() {}
	var lanes [16]*Lane
	for i := range lanes {
		lanes[i] = e.NewLane(h)
	}
	var timers [flows]Timer
	for i := range timers {
		timers[i] = e.ResetTimer(timers[i], rto, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % flows
		timers[k] = e.ResetTimer(timers[k], rto, fn)
		e.AfterEvent(tx, h, nil)
		lanes[i&15].After(tx+prop, h)
		e.RunFor(tx)
	}
	b.StopTimer()
	b.ReportMetric(float64(e.Processed())/b.Elapsed().Seconds(), "events/sec")
}

type benchHandler struct{ n int }

func (h *benchHandler) OnEvent(any) { h.n++ }

// BenchmarkEngineTypedEvent measures the zero-capture scheduling path
// the switch and host datapaths use.
func BenchmarkEngineTypedEvent(b *testing.B) {
	e := NewEngine()
	h := &benchHandler{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.AfterEvent(1, h, nil)
		if e.Pending() > 1024 {
			e.RunFor(2048)
		}
	}
	e.Run()
	if h.n != b.N {
		b.Fatalf("handled %d events, want %d", h.n, b.N)
	}
	b.ReportMetric(float64(e.Processed())/b.Elapsed().Seconds(), "events/sec")
}

func BenchmarkRandUint64(b *testing.B) {
	r := NewRand(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkRandExp(b *testing.B) {
	r := NewRand(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Exp(1)
	}
	_ = sink
}
