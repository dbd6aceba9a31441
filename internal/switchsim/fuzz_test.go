package switchsim

import (
	"fmt"
	"testing"

	"occamy/internal/bm"
	"occamy/internal/core"
	"occamy/internal/pkt"
	"occamy/internal/sim"
)

// allPolicies builds one instance of every BM scheme in the repository,
// wired for a switch with the given engine.
func allPolicies(eng *sim.Engine) []struct {
	name   string
	policy bm.Policy
	occ    *core.Config
} {
	occCfg := core.Config{Alpha: 8}
	occLD := core.Config{Alpha: 8, Victim: core.LongestQueue}
	edt := bm.NewEDT(1, func() int64 { return int64(eng.Now()) })
	return []struct {
		name   string
		policy bm.Policy
		occ    *core.Config
	}{
		{"CS", bm.CompleteSharing{}, nil},
		{"ST", bm.StaticThreshold{Limit: 100_000}, nil},
		{"DT", bm.NewDT(1), nil},
		{"ABM", bm.NewABM(2), nil},
		{"EDT", edt, nil},
		{"TDT", bm.NewTDT(1), nil},
		{"Occamy", core.New(occCfg), &occCfg},
		{"Occamy-LD", core.New(occLD), &occLD},
		{"Pushout", core.NewPushout(), nil},
		{"POT", core.NewPOT(0.5), nil},
		{"QPO", core.NewQPO(), nil},
	}
}

// TestAllPoliciesSoak pushes randomized traffic through every policy and
// checks the system invariants that must hold regardless of scheme:
// packet conservation, cell conservation, non-negative queues, and a
// backlog bitmap that marks exactly the non-empty queues.
func TestAllPoliciesSoak(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		eng := sim.NewEngine()
		for _, pc := range allPolicies(eng) {
			pc := pc
			t.Run(fmt.Sprintf("%s/seed%d", pc.name, seed), func(t *testing.T) {
				eng := sim.NewEngine()
				var policy bm.Policy = pc.policy
				// Policies carry state: rebuild fresh per run.
				switch pc.name {
				case "EDT":
					policy = bm.NewEDT(1, func() int64 { return int64(eng.Now()) })
				case "TDT":
					policy = bm.NewTDT(1)
				case "Occamy":
					policy = core.New(*pc.occ)
				case "Occamy-LD":
					policy = core.New(*pc.occ)
				case "Pushout":
					policy = core.NewPushout()
				case "POT":
					policy = core.NewPOT(0.5)
				case "QPO":
					policy = core.NewQPO()
				}
				sw := New("soak", eng, Config{
					Ports: 4, ClassesPerPort: 2, BufferBytes: 64_000,
					Policy: policy, Occamy: pc.occ,
					Scheduler: SchedKind(int(seed) % 3), ECNThresholdBytes: 16_000,
				})
				for i := 0; i < 4; i++ {
					sw.AttachPort(i, 1e9, 0, func(*pkt.Packet) {})
				}
				sw.SetRouter(func(p *pkt.Packet) int { return int(p.Dst) })

				r := sim.NewRand(seed * 77)
				var id uint64
				for i := 0; i < 3000; i++ {
					at := sim.Time(r.Intn(int(3 * sim.Millisecond)))
					eng.At(at, func() {
						id++
						sw.Receive(&pkt.Packet{
							ID:         id,
							FlowID:     uint64(r.Intn(16)),
							Dst:        pkt.NodeID(r.Intn(4)),
							Size:       40 + r.Intn(1460),
							Priority:   r.Intn(2),
							ECNCapable: r.Intn(2) == 0,
						})
						checkBacklog(t, sw)
					})
				}
				eng.Run()
				checkBacklog(t, sw)
				sw.Pool().CheckInvariants()
				st := sw.Stats()
				if st.TxPackets+st.Drops()+st.DropsExpelled != st.RxPackets {
					t.Fatalf("packet conservation: %+v", st)
				}
				for q := 0; q < sw.NumQueues(); q++ {
					if sw.QueueLen(q) != 0 {
						t.Fatalf("queue %d not drained: %d bytes", q, sw.QueueLen(q))
					}
				}
				if sw.Occupancy() != 0 {
					t.Fatalf("occupancy %d after drain", sw.Occupancy())
				}
			})
		}
	}
}

// checkBacklog asserts that the backlog bitmap the expulsion scan reads
// marks exactly the non-empty queues.
func checkBacklog(t *testing.T, sw *Switch) {
	t.Helper()
	for q := 0; q < sw.NumQueues(); q++ {
		if got, want := sw.Backlog().Get(q), sw.QueueLen(q) > 0; got != want {
			t.Fatalf("backlog bit %d = %v, queue holds %d bytes", q, got, sw.QueueLen(q))
		}
	}
}
