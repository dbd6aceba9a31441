package netsim

import (
	"occamy/internal/linkfault"
	"occamy/internal/pkt"
	"occamy/internal/sim"
	"occamy/internal/switchsim"
	"occamy/internal/transport"
)

// Network bundles an engine, hosts, and switches, and hands out flow and
// packet IDs.
type Network struct {
	Eng      *sim.Engine
	Rand     *sim.Rand
	Hosts    []*Host
	Switches []*switchsim.Switch
	// Pool is the engine-wide packet freelist shared by every host.
	Pool *pkt.Pool
	// Faults is the link-fault plan wrapped around the topology's links;
	// nil when the topology config enabled no fault profile.
	Faults *linkfault.Plan

	nextFlow uint64
	pktIDs   uint64 // last packet ID handed out by a host's NewPacket
}

// NewFlowID returns a fresh unique flow identifier.
func (n *Network) NewFlowID() uint64 {
	n.nextFlow++
	return n.nextFlow
}

// FlowHandle tracks one flow started via StartFlow.
type FlowHandle struct {
	Spec     transport.FlowSpec
	Sender   *transport.Sender
	Receiver *transport.Receiver
	Started  sim.Time
}

// FlowOptions parameterizes StartFlow.
type FlowOptions struct {
	Priority int
	ECN      bool
	// NewCC builds the congestion controller; nil defaults to DCTCP.
	NewCC func(mss, initSegs int) transport.CC
	// Transport tunes MSS/RTO; zero values use transport defaults.
	Transport transport.Options
	// OnComplete fires at the receiver when the last byte arrives,
	// with the flow completion time.
	OnComplete func(fct sim.Duration)
}

// StartFlow creates and registers a sender/receiver pair and starts the
// transfer at virtual time `at`.
func (n *Network) StartFlow(at sim.Time, src, dst pkt.NodeID, size int64, opts FlowOptions) *FlowHandle {
	if src == dst {
		panic("netsim: flow src == dst")
	}
	spec := transport.FlowSpec{
		ID:       n.NewFlowID(),
		Src:      src,
		Dst:      dst,
		Size:     size,
		Priority: opts.Priority,
		ECN:      opts.ECN,
	}
	topts := opts.Transport.WithDefaults()
	newCC := opts.NewCC
	if newCC == nil {
		newCC = func(mss, segs int) transport.CC { return transport.NewDCTCP(mss, segs) }
	}
	cc := newCC(topts.MSS, topts.InitCwndSegs)
	h := &FlowHandle{Spec: spec, Started: at}
	h.Sender = transport.NewSender(n.Hosts[src], spec, cc, topts)
	h.Receiver = transport.NewReceiver(n.Hosts[dst], spec)
	h.Receiver.OnComplete = func(now sim.Time) {
		if opts.OnComplete != nil {
			opts.OnComplete(now - h.Started)
		}
		// Keep handlers registered: late retransmissions still need the
		// receiver to re-ACK so the sender can finish cleanly.
	}
	n.Hosts[src].Register(spec.ID, h.Sender)
	n.Hosts[dst].Register(spec.ID, h.Receiver)
	n.Eng.At(at, h.Sender.Start)
	return h
}
