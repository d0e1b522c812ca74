package tcp

import (
	"testing"

	"softtimers/internal/netstack"
	"softtimers/internal/sim"
)

// BenchmarkTCPSegment measures arena-backed segment construction: one
// paced segment acquired, stamped, and handed to the transmit path per
// op. This is the per-segment sender cost inside every paced transfer and
// server response; the arena keeps it allocation-free.
func BenchmarkTCPSegment(b *testing.B) {
	eng := sim.NewEngine(1)
	arena := netstack.NewArena()
	env := &EngineEnv{Eng: eng, Out: netstack.EndpointFunc(func(p *netstack.Packet) {
		p.Release()
	})}
	s := NewSender(env, DefaultConfig(), 1, int64(b.N)+1, true)
	s.Arena = arena

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p, _ := s.PacedSendOne(eng.Now()); p == nil {
			b.Fatal("sender ran dry")
		}
	}
	b.StopTimer()
	if live := arena.Live(); live != 0 {
		b.Fatalf("%d segments leaked from the arena", live)
	}
}

// BenchmarkTCPAck measures the matching receiver-side cost: one data
// segment consumed and (every AckEvery-th) one arena-backed ACK produced.
func BenchmarkTCPAck(b *testing.B) {
	eng := sim.NewEngine(1)
	arena := netstack.NewArena()
	env := &EngineEnv{Eng: eng, Out: netstack.EndpointFunc(func(p *netstack.Packet) {
		p.Release()
	})}
	cfg := DefaultConfig()
	cfg.DelAckTimeout = 0 // no timer churn: isolate the data/ACK path
	r := NewReceiver(env, cfg, 1)
	r.Arena = arena
	seg := &netstack.Packet{Flow: 1, Kind: netstack.Data, Size: 1500}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg.Seq = int64(i)
		r.HandleData(seg)
	}
	b.StopTimer()
	if live := arena.Live(); live != 0 {
		b.Fatalf("%d ACKs leaked from the arena", live)
	}
}
