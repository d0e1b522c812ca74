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

	// Concurrency is the number of simultaneous connections (slots).
	Concurrency int
	// ExpectedSegments is the data segments per response.
	ExpectedSegments int
	// Persistent selects P-HTTP: one connection per slot, many requests.
	Persistent bool
	// ThinkTime is the client-side gap before reusing a slot.
	ThinkTime sim.Time
	// HeaderBytes sizes control packets.
	HeaderBytes int

	// Arena, when set, is the packet pool requests are acquired from and
	// delivered responses are released into (the testbed wires the
	// topology's pool; nil keeps heap-literal packets).
	Arena *netstack.Arena

	// Responses counts completed responses (client view); ResponseTimes
	// records their latencies in milliseconds.
	Responses     int64
	ResponseTimes *stats.Online

	nextFlow int
	slots    []*clientSlot
	started  bool
}

// clientSlot is one in-flight connection's client-side state.
type clientSlot struct {
	g        *ClientGen
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
		Concurrency: concurrency, ExpectedSegments: expectedSegments,
		Persistent: persistent, ThinkTime: 200 * sim.Microsecond,
		HeaderBytes:   52,
		ResponseTimes: &stats.Online{},
	}
}

// Start opens the initial connections. Slots stagger their first request
// slightly so the server is not hit by a synchronized burst.
func (g *ClientGen) Start() {
	if g.started {
		panic("httpserv: client generator started twice")
	}
	g.started = true
	for i := 0; i < g.Concurrency; i++ {
		i := i
		g.eng.After(sim.Time(i+1)*37*sim.Microsecond, func() {
			s := &clientSlot{g: g}
			s.thinkFn = s.reuse
			g.slots = append(g.slots, s)
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
	s.got = 0
	s.unacked = 0
	if s.g.Persistent {
		s.request()
		return
	}
	s.g.send(s.flow, netstack.Syn, s.g.HeaderBytes)
}

// send acquires and transmits one control packet toward the server.
func (g *ClientGen) send(flow int, kind netstack.Kind, size int) {
	p := g.Arena.Get()
	p.Flow, p.Kind, p.Size = flow, kind, size
	g.toServer.Deliver(p)
}

func (s *clientSlot) request() {
	s.reqStart = s.g.eng.Now()
	s.got = 0
	s.unacked = 0
	s.g.send(s.flow, netstack.Request, s.g.HeaderBytes+250) // ~250B GET
}

// Deliver implements netstack.Endpoint: packets from the server arrive
// here; flows are demultiplexed to slots. The generator is each packet's
// final destination, so it releases the packet after handling it.
func (g *ClientGen) Deliver(p *netstack.Packet) {
	for _, s := range g.slots {
		if s.flow == p.Flow {
			s.handle(p)
			break
		}
	}
	g.Arena.Release(p) // a miss is a packet for a closed connection (e.g. final ACKs)
}

func (s *clientSlot) handle(p *netstack.Packet) {
	g := s.g
	switch p.Kind {
	case netstack.SynAck:
		s.request()
	case netstack.Data:
		s.got++
		s.unacked++
		ackNow := s.unacked >= 2 || s.got >= g.ExpectedSegments // last segment acks promptly
		if ackNow {
			s.unacked = 0
			ack := g.Arena.Get()
			ack.Flow, ack.Kind, ack.AckSeq, ack.Size = s.flow, netstack.Ack, int64(s.got), g.HeaderBytes
			g.toServer.Deliver(ack)
		}
		if s.got >= g.ExpectedSegments {
			s.responseDone()
		}
	case netstack.Fin:
		// Server closed after the data: ACK the FIN, then close our side
		// with our own FIN (the normal four-way teardown).
		g.send(s.flow, netstack.Ack, g.HeaderBytes)
		g.send(s.flow, netstack.Fin, g.HeaderBytes)
	}
}

func (s *clientSlot) responseDone() {
	g := s.g
	g.Responses++
	g.ResponseTimes.Add((g.eng.Now() - s.reqStart).Millis())
	g.eng.After(g.ThinkTime, s.thinkFn)
}

// reuse starts the slot's next request once its think time has passed.
func (s *clientSlot) reuse() {
	if s.g.Persistent {
		s.request()
		return
	}
	s.open() // fresh connection for the next request
}
