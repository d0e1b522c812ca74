package httpserv

import (
	"softtimers/internal/netstack"
	"softtimers/internal/sim"
	"softtimers/internal/stats"
)

// ClientGen models the client machines: a fixed number of concurrent
// request slots that repeatedly fetch the same file, keeping the server
// saturated (the paper: "the number of simultaneous requests to the Web
// server were set such that the server machine was saturated"). The
// clients' own CPUs are not under study, so they run at zero cost directly
// on the engine.
type ClientGen struct {
	eng      *sim.Engine
	toServer netstack.Endpoint

	concurrency      int  // simultaneous connections (slots)
	expectedSegments int  // data segments per response
	persistent       bool // P-HTTP: one connection per slot, many requests

	// arena, when set, is the packet pool requests are acquired from (the
	// testbed wires the topology's pool; nil keeps heap-literal packets).
	arena *netstack.Arena

	// responses counts completed responses (client view); responseTimes
	// records their latencies in milliseconds.
	responses     int64
	responseTimes *stats.Online

	nextFlow int
	slots    []*clientSlot
	flows    []int // flows[i] is slots[i]'s flow: Deliver scans these
	started  bool
}

// clientSlot is one in-flight connection's client-side state.
type clientSlot struct {
	g        *ClientGen
	idx      int // index in g.slots and g.flows
	flow     int
	got      int // data segments received this response
	unacked  int
	reqStart sim.Time
	thinkFn  func() // think-time expiry, bound once per slot
}

// NewClientGen creates a generator sending into toServer (the link toward
// the server NIC).
func NewClientGen(eng *sim.Engine, toServer netstack.Endpoint, concurrency, expectedSegments int, persistent bool) *ClientGen {
	if concurrency <= 0 || expectedSegments <= 0 {
		panic("httpserv: client generator needs positive concurrency and response size")
	}
	return &ClientGen{
		eng: eng, toServer: toServer,
		concurrency: concurrency, expectedSegments: expectedSegments,
		persistent: persistent, responseTimes: &stats.Online{},
	}
}

// Start opens the initial connections. Slots stagger their first request
// slightly so the server is not hit by a synchronized burst.
func (g *ClientGen) Start() {
	if g.started {
		panic("httpserv: client generator started twice")
	}
	g.started = true
	for i := 0; i < g.concurrency; i++ {
		i := i
		g.eng.After(sim.Time(i+1)*37*sim.Microsecond, func() {
			s := &clientSlot{g: g, idx: len(g.slots)}
			s.thinkFn = s.reuse
			g.slots = append(g.slots, s)
			g.flows = append(g.flows, 0)
			s.open()
		})
	}
}

func (g *ClientGen) newFlow() int {
	g.nextFlow++
	return g.nextFlow
}

// open starts a connection: SYN for HTTP, or straight to the request for
// P-HTTP (the persistent connection is assumed established, as in the
// paper's P-HTTP runs).
func (s *clientSlot) open() {
	s.flow = s.g.newFlow()
	s.g.flows[s.idx] = s.flow
	s.got = 0
	s.unacked = 0
	if s.g.persistent {
		s.request()
		return
	}
	s.g.send(s.flow, netstack.Syn, netstack.HeaderBytes)
}

// send acquires and transmits one control packet toward the server.
func (g *ClientGen) send(flow int, kind netstack.Kind, size int) {
	p := g.arena.Get()
	p.Flow, p.Kind, p.Size = flow, kind, size
	g.toServer.Deliver(p)
}

func (s *clientSlot) request() {
	s.reqStart = s.g.eng.Now()
	s.got = 0
	s.unacked = 0
	s.g.send(s.flow, netstack.Request, netstack.HeaderBytes+250) // ~250B GET
}

// Deliver implements netstack.Endpoint: packets from the server arrive
// here; flows are demultiplexed to slots by a scan of the contiguous flow
// ids, which reads no slot but the one that matches. The generator is each
// packet's final destination, so it releases the packet after handling it.
func (g *ClientGen) Deliver(p *netstack.Packet) {
	for i, flow := range g.flows {
		if flow == p.Flow {
			g.slots[i].handle(p)
			break
		}
	}
	p.Release() // a miss is a packet for a closed connection (e.g. final ACKs)
}

func (s *clientSlot) handle(p *netstack.Packet) {
	g := s.g
	switch p.Kind {
	case netstack.SynAck:
		s.request()
	case netstack.Data:
		s.got++
		s.unacked++
		ackNow := s.unacked >= 2 || s.got >= g.expectedSegments // last segment acks promptly
		if ackNow {
			s.unacked = 0
			ack := g.arena.Get()
			ack.Flow, ack.Kind, ack.AckSeq, ack.Size = s.flow, netstack.Ack, int64(s.got), netstack.HeaderBytes
			g.toServer.Deliver(ack)
		}
		if s.got >= g.expectedSegments {
			s.responseDone()
		}
	case netstack.Fin:
		// Server closed after the data: ACK the FIN, then close our side
		// with our own FIN (the normal four-way teardown).
		g.send(s.flow, netstack.Ack, netstack.HeaderBytes)
		g.send(s.flow, netstack.Fin, netstack.HeaderBytes)
	}
}

func (s *clientSlot) responseDone() {
	g := s.g
	g.responses++
	g.responseTimes.Add((g.eng.Now() - s.reqStart).Millis())
	g.eng.After(thinkTime, s.thinkFn)
}

// reuse starts the slot's next request once its think time has passed.
func (s *clientSlot) reuse() {
	if s.g.persistent {
		s.request()
		return
	}
	s.open() // fresh connection for the next request
}
