package httpserv

import (
	"testing"

	"softtimers/internal/netstack"
	"softtimers/internal/sim"
)

// scriptedServer is a minimal hand-rolled peer for exercising ClientGen in
// isolation: replies to SYN with SYNACK, to a request with data + FIN.
type scriptedServer struct {
	eng        *sim.Engine
	toClient   netstack.Endpoint
	segments   int
	persistent bool // persistent servers do not close after a response
	requests   int
	fins       int
}

func (s *scriptedServer) Deliver(p *netstack.Packet) {
	switch p.Kind {
	case netstack.Syn:
		s.toClient.Deliver(&netstack.Packet{Flow: p.Flow, Kind: netstack.SynAck, Size: 52})
	case netstack.Request:
		s.requests++
		for i := 0; i < s.segments; i++ {
			s.toClient.Deliver(&netstack.Packet{
				Flow: p.Flow, Kind: netstack.Data, Seq: int64(i), Size: 1500, Payload: 1448,
			})
		}
		if !s.persistent {
			s.toClient.Deliver(&netstack.Packet{Flow: p.Flow, Kind: netstack.Fin, Size: 52})
		}
	case netstack.Fin:
		s.fins++
	}
}

func newClientRig(t *testing.T, concurrency, segments int, persistent bool) (*sim.Engine, *scriptedServer, *ClientGen) {
	t.Helper()
	eng := sim.NewEngine(13)
	srv := &scriptedServer{eng: eng, segments: segments, persistent: persistent}
	var clients *ClientGen
	down := netstack.NewLink(eng, "down", 100_000_000, 30*sim.Microsecond,
		netstack.EndpointFunc(func(p *netstack.Packet) { clients.Deliver(p) }))
	srv.toClient = down
	up := netstack.NewLink(eng, "up", 100_000_000, 30*sim.Microsecond, srv)
	clients = NewClientGen(eng, up, concurrency, segments, persistent)
	return eng, srv, clients
}

func TestClientGenHTTPLifecycle(t *testing.T) {
	eng, srv, clients := newClientRig(t, 2, 5, false)
	clients.Start()
	eng.RunFor(100 * sim.Millisecond)
	if clients.responses < 10 {
		t.Fatalf("responses = %d, want a steady stream", clients.responses)
	}
	// One request per response, one client FIN per connection teardown.
	if srv.requests < int(clients.responses) {
		t.Fatalf("requests %d < responses %d", srv.requests, clients.responses)
	}
	if srv.fins == 0 {
		t.Fatal("no client FINs — teardown broken")
	}
	if clients.responseTimes.N() != clients.responses {
		t.Fatalf("response times recorded %d of %d", clients.responseTimes.N(), clients.responses)
	}
	// Round trip on a 30us LAN with 6 packets: sub-millisecond responses.
	if mean := clients.responseTimes.Mean(); mean > 2 {
		t.Fatalf("mean response = %.2fms, want sub-ms on a LAN", mean)
	}
}

func TestClientGenPersistentSkipsHandshake(t *testing.T) {
	eng, srv, clients := newClientRig(t, 1, 3, true)
	clients.Start()
	eng.RunFor(50 * sim.Millisecond)
	if clients.responses < 5 {
		t.Fatalf("responses = %d", clients.responses)
	}
	if srv.fins != 0 {
		t.Fatalf("persistent client sent %d FINs", srv.fins)
	}
	// All requests rode one flow.
	if srv.requests < int(clients.responses) {
		t.Fatalf("requests %d < responses %d", srv.requests, clients.responses)
	}
}

func TestClientGenAcksEverySecondSegment(t *testing.T) {
	eng := sim.NewEngine(14)
	acks := 0
	var clients *ClientGen
	up := netstack.EndpointFunc(func(p *netstack.Packet) {
		if p.Kind == netstack.Ack {
			acks++
		}
	})
	clients = NewClientGen(eng, up, 1, 6, true)
	clients.Start()
	eng.RunFor(sim.Millisecond) // slot opened, request sent
	// Deliver 6 data segments directly.
	for i := 0; i < 6; i++ {
		clients.Deliver(&netstack.Packet{Flow: 1, Kind: netstack.Data, Seq: int64(i)})
	}
	// 2 acks at segments 2 and 4, plus the final-segment prompt ack.
	if acks != 3 {
		t.Fatalf("acks = %d, want 3", acks)
	}
}

func TestClientGenIgnoresStaleFlows(t *testing.T) {
	eng := sim.NewEngine(15)
	clients := NewClientGen(eng, netstack.EndpointFunc(func(*netstack.Packet) {}), 1, 5, false)
	clients.Start()
	eng.RunFor(sim.Millisecond)
	// A packet for a flow that never existed must be dropped quietly.
	clients.Deliver(&netstack.Packet{Flow: 9999, Kind: netstack.Data})
	if clients.responses != 0 {
		t.Fatal("stale packet produced a response")
	}
}

func TestClientGenDoubleStartPanics(t *testing.T) {
	eng := sim.NewEngine(16)
	clients := NewClientGen(eng, netstack.EndpointFunc(func(*netstack.Packet) {}), 1, 5, false)
	clients.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	clients.Start()
}

func TestTestbedResultFields(t *testing.T) {
	tb := NewTestbed(TestbedConfig{Seed: 17, Concurrency: 4, Server: Config{Kind: Flash}})
	res := tb.Run(200*sim.Millisecond, 300*sim.Millisecond)
	if res.Completed <= 0 || res.Throughput <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.BusyFrac <= 0 || res.BusyFrac > 1.01 {
		t.Fatalf("busy frac = %v", res.BusyFrac)
	}
	if res.MeanTriggerUS <= 0 {
		t.Fatal("no trigger stats")
	}
	if float64(res.Completed)/0.3 != res.Throughput {
		t.Fatalf("throughput %v inconsistent with completed %d over 300ms", res.Throughput, res.Completed)
	}
}

// The paper drivers run the rig's engine directly (fig5, table45,
// delaydist, workloads.Rig) and then Run it through the topology: both
// paths must advance one clock, as on a bare engine.
func TestTestbedMixedDrivingSharesOneClock(t *testing.T) {
	tb := NewTestbed(TestbedConfig{Seed: 17, Concurrency: 4, Server: Config{Kind: Flash}})
	tb.Start()
	tb.Eng.RunFor(100 * sim.Millisecond)
	tb.Net.RunFor(100 * sim.Millisecond)
	if tb.Eng.Now() != 200*sim.Millisecond || tb.Net.Now() != 200*sim.Millisecond {
		t.Fatalf("clocks after 100ms on the engine and 100ms on the topology: engine %v, topology %v; want 200ms both",
			tb.Eng.Now(), tb.Net.Now())
	}
}
