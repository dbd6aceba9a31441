// Benchmarks: one per table/figure of the paper. Each benchmark runs
// the corresponding experiment harness at a bounded scale and reports
// ns/op, allocs/op, and the simulated-events-per-second the engine
// sustained; `go test -bench=. -benchmem` regenerates every row the
// paper's evaluation reports (at reduced scale — cmd/occamy-sim runs
// paper scale). BenchmarkScenarioCold times the service's simulation
// path, scenario.Run, on catalog entries instead of a figure harness.
// cmd/occamy-bench snapshots the whole suite to JSON.
package occamy_test

import (
	"testing"

	"occamy/internal/bm"
	"occamy/internal/core"
	"occamy/internal/experiments"
	"occamy/internal/scenario"
	"occamy/internal/sim"
)

// benchDPDK is the fixed sweep scale for the Fig 13–16 benchmarks.
func benchDPDK() experiments.DPDKScale {
	sc := experiments.QuickDPDK()
	sc.Queries = 10
	return sc
}

func benchFabric() experiments.FabricScale {
	sc := experiments.QuickFabric()
	sc.Queries = 6
	return sc
}

// benchLoop standardizes the figure benchmarks: allocation reporting
// plus a simulated events/sec metric derived from the harness-level
// event counter (experiments.EventsProcessed).
func benchLoop(b *testing.B, body func()) {
	b.ReportAllocs()
	start := experiments.EventsProcessed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body()
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(experiments.EventsProcessed()-start)/s, "events/sec")
	}
}

func BenchmarkTable1HardwareCost(b *testing.B) {
	benchLoop(b, func() {
		if tab := experiments.Table1HardwareCost(64, 20); len(tab.Rows) != 4 {
			b.Fatal("bad table")
		}
	})
}

func BenchmarkFig3DTBehavior(b *testing.B) {
	benchLoop(b, func() {
		if tab := experiments.Fig3DTBehavior(); len(tab.Rows) != 2 {
			b.Fatal("bad table")
		}
	})
}

func BenchmarkFig6Anomalies(b *testing.B) {
	benchLoop(b, func() {
		if tab := experiments.Fig6Anomalies(4, []float64{2.5}); len(tab.Rows) != 2 {
			b.Fatal("bad table")
		}
	})
}

func BenchmarkFig7Utilization(b *testing.B) {
	sc := benchFabric()
	benchLoop(b, func() {
		bufT, bwT := experiments.Fig7Utilization(sc)
		if len(bufT.Rows) != 2 || len(bwT.Rows) != 3 {
			b.Fatal("bad tables")
		}
	})
}

func BenchmarkFig11QueueEvolution(b *testing.B) {
	benchLoop(b, func() {
		if ts := experiments.Fig11QueueEvolution(20 * sim.Microsecond); len(ts) != 4 {
			b.Fatal("bad tables")
		}
	})
}

func BenchmarkFig12BurstAbsorption(b *testing.B) {
	benchLoop(b, func() {
		if tab := experiments.Fig12BurstAbsorption(); len(tab.Rows) != 18 {
			b.Fatal("bad table")
		}
	})
}

func BenchmarkFig13SoftwareSwitch(b *testing.B) {
	sc := benchDPDK()
	sc.SizeFracs = []float64{0.8}
	benchLoop(b, func() {
		if tab := experiments.Fig13SoftwareSwitch(sc); len(tab.Rows) != 4 {
			b.Fatal("bad table")
		}
	})
}

func BenchmarkFig14Isolation(b *testing.B) {
	sc := benchDPDK()
	sc.Loads = []float64{0.4}
	benchLoop(b, func() {
		if tab := experiments.Fig14Isolation(sc); len(tab.Rows) != 4 {
			b.Fatal("bad table")
		}
	})
}

func BenchmarkFig15BufferChoking(b *testing.B) {
	sc := benchDPDK()
	sc.SizeFracs = []float64{1.0}
	benchLoop(b, func() {
		if tab := experiments.Fig15BufferChoking(sc); len(tab.Rows) != 4 {
			b.Fatal("bad table")
		}
	})
}

func BenchmarkFig16AlphaImpact(b *testing.B) {
	sc := benchDPDK()
	sc.Alphas = []float64{1, 8}
	sc.SizeFracs = []float64{0.8}
	benchLoop(b, func() {
		if tab := experiments.Fig16AlphaImpact(sc); len(tab.Rows) != 2 {
			b.Fatal("bad table")
		}
	})
}

func BenchmarkFig17LargeScale(b *testing.B) {
	sc := benchFabric()
	sc.SizeFracs = []float64{0.8}
	benchLoop(b, func() {
		if tab := experiments.Fig17LargeScale(sc); len(tab.Rows) != 4 {
			b.Fatal("bad table")
		}
	})
}

func BenchmarkFig18AllToAll(b *testing.B) {
	sc := benchFabric()
	sc.FlowSizes = []int64{128_000}
	benchLoop(b, func() {
		if tab := experiments.Fig18AllToAll(sc); len(tab.Rows) != 4 {
			b.Fatal("bad table")
		}
	})
}

func BenchmarkFig19AllReduce(b *testing.B) {
	sc := benchFabric()
	sc.FlowSizes = []int64{128_000}
	benchLoop(b, func() {
		if tab := experiments.Fig19AllReduce(sc); len(tab.Rows) != 4 {
			b.Fatal("bad table")
		}
	})
}

func BenchmarkFig20QueryLoad(b *testing.B) {
	sc := benchFabric()
	sc.QueryLoads = []float64{0.4}
	benchLoop(b, func() {
		if tab := experiments.Fig20QueryLoad(sc); len(tab.Rows) != 4 {
			b.Fatal("bad table")
		}
	})
}

func BenchmarkFig21RoundRobinDrop(b *testing.B) {
	sc := benchFabric()
	sc.SizeFracs = []float64{0.8}
	benchLoop(b, func() {
		if tab := experiments.Fig21RoundRobinDrop(sc); len(tab.Rows) != 2 {
			b.Fatal("bad table")
		}
	})
}

func BenchmarkFig22HeavyLoad(b *testing.B) {
	sc := benchFabric()
	sc.SizeFracs = []float64{0.6}
	benchLoop(b, func() {
		if tab := experiments.Fig22HeavyLoad(sc); len(tab.Rows) != 4 {
			b.Fatal("bad table")
		}
	})
}

func BenchmarkFig23BufferSize(b *testing.B) {
	sc := benchFabric()
	sc.BufferFactors = []float64{5.12}
	benchLoop(b, func() {
		if tab := experiments.Fig23BufferSize(sc); len(tab.Rows) != 4 {
			b.Fatal("bad table")
		}
	})
}

// --- Ablation benches (DESIGN.md design-choice list) ------------------------

// BenchmarkAblationVictimPolicy compares the cost/behaviour of Occamy's
// round-robin victim selection against the Maximum-Finder-based
// longest-queue variant in the raw burst scenario.
func BenchmarkAblationVictimPolicy(b *testing.B) {
	for _, victim := range []core.VictimPolicy{core.RoundRobin, core.LongestQueue} {
		victim := victim
		b.Run(victim.String(), func(b *testing.B) {
			benchLoop(b, func() {
				r := experiments.RunQueueTrace(experiments.QueueTraceConfig{
					Spec:       experiments.OccamySpec(4, victim),
					BurstBytes: 600_000,
				})
				if r.BurstSent == 0 {
					b.Fatal("no burst sent")
				}
			})
		})
	}
}

// BenchmarkAblationTokenGate compares expulsion with the
// redundant-bandwidth token bucket against an effectively ungated
// engine (a token rate far above any physical memory bandwidth).
func BenchmarkAblationTokenGate(b *testing.B) {
	gated := experiments.OccamySpec(4, core.RoundRobin)
	ungated := experiments.PolicySpec{
		Name: "Occamy-nogate",
		Make: func() (bm.Policy, *core.Config) {
			cfg := core.Config{Alpha: 4, TokenRate: 1e15, TokenBurst: 1e9}
			return core.New(cfg), &cfg
		},
	}
	for _, spec := range []experiments.PolicySpec{gated, ungated} {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			benchLoop(b, func() {
				r := experiments.RunQueueTrace(experiments.QueueTraceConfig{
					Spec:       spec,
					BurstBytes: 600_000,
				})
				if r.BurstSent == 0 {
					b.Fatal("no burst sent")
				}
			})
		})
	}
}

// BenchmarkScenarioCold runs scenario.Run — the simulation behind every
// service request — on three of the service benchmark's cold catalog
// entries at quick scale: a loaded fabric with one parked RTO timer per
// live flow, a lossy fabric through the link-fault layer, and the demo
// leaf-spine. It reports simulated events and switch-received packets
// per wall second.
func BenchmarkScenarioCold(b *testing.B) {
	for _, name := range []string{"mixed-load-90", "flaky-tor-incast", "leafspine-demo"} {
		sc, ok := scenario.Get(name)
		if !ok {
			b.Fatalf("no catalog entry %q", name)
		}
		spec := sc.SpecAt(scenario.ScaleQuick)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var events, rx float64
			for i := 0; i < b.N; i++ {
				res, err := scenario.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				events += float64(res.Events)
				rx += float64(res.Total.RxPackets)
			}
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(events/s, "events/sec")
				b.ReportMetric(rx/s, "rxpkts/sec")
			}
		})
	}
}
