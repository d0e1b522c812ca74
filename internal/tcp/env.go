package tcp

import (
	"softtimers/internal/netstack"
	"softtimers/internal/sim"
)

// EngineEnv is the host environment a TCP endpoint runs in: directly on
// the simulation engine, for client hosts and otherwise-unloaded machines
// whose CPU costs are not under study. Protocol timers are exact engine
// events and transmission costs nothing.
type EngineEnv struct {
	Eng *sim.Engine
	// Out receives transmitted packets (typically a netstack.Link or
	// Path toward the peer).
	Out netstack.Endpoint
}

// Now returns the current simulated time.
func (e *EngineEnv) Now() sim.Time { return e.Eng.Now() }

// Transmit hands packets to the peer in order. The slice is a borrow:
// senders reuse scratch buffers on the hot path.
func (e *EngineEnv) Transmit(pkts []*netstack.Packet) {
	for _, p := range pkts {
		e.Out.Deliver(p)
	}
}
