// Pacing: the paper's headline application. A web server sends a 100-packet
// response across a WAN with a 100 ms RTT and a 50 Mbps bottleneck — first
// with ordinary slow-starting TCP, then with rate-based clocking at the
// (known) bottleneck capacity, paced by timer events instead of returning
// ACKs. Rate-based clocking skips slow start entirely and cuts response
// time by ~89% (Table 6).
package main

import (
	"fmt"

	"softtimers/internal/netstack"
	"softtimers/internal/sim"
	"softtimers/internal/tcp"
)

const (
	bottleneck = 50_000_000 // 50 Mbps
	rtt        = 100 * sim.Millisecond
	packets    = 100
)

func main() {
	fmt.Printf("transfer: %d packets of 1448 B over a %d Mbps / %v-RTT WAN\n\n",
		packets, bottleneck/1_000_000, rtt)
	reg := run(false)
	paced := run(true)
	fmt.Printf("regular TCP (slow start):   response time %8.1f ms\n", reg.Millis())
	fmt.Printf("rate-based clocking:        response time %8.1f ms\n", paced.Millis())
	fmt.Printf("reduction:                  %.0f%%   (paper: 89%%)\n",
		(1-float64(paced)/float64(reg))*100)
}

// run performs one request/response exchange and returns the client's
// response time.
func run(paced bool) sim.Time {
	eng := sim.NewEngine(7)
	cfg := tcp.DefaultConfig()

	var snd *tcp.Sender
	var rcv *tcp.Receiver
	var done sim.Time

	serverIn := netstack.EndpointFunc(func(p *netstack.Packet) {
		switch p.Kind {
		case netstack.Request:
			snd.Start() // self-clocked mode: begin slow start
		case netstack.Ack:
			snd.HandleAck(p)
		}
	})
	clientIn := netstack.EndpointFunc(func(p *netstack.Packet) {
		if p.Kind == netstack.Data {
			rcv.HandleData(p)
		}
	})
	wan := netstack.NewWANEmulator(eng, netstack.LANBps, bottleneck, rtt, serverIn, clientIn)

	snd = tcp.NewSender(&tcp.EngineEnv{Eng: eng, Out: wan.AtoB}, cfg, 1, packets, paced)
	rcv = tcp.NewReceiver(&tcp.EngineEnv{Eng: eng, Out: wan.BtoA}, cfg, 1)
	rcv.Expected = packets
	rcv.OnComplete = func(now sim.Time) { done = now }

	if paced {
		// One packet per bottleneck transmission time (240 us at 50
		// Mbps) — the interval a soft-timer pacer would hold with
		// trigger states every few tens of microseconds.
		interval := sim.Time(int64(netstack.MSS+netstack.HeaderBytes) * 8 * int64(sim.Second) / bottleneck)
		var tick func()
		tick = func() {
			if _, more := snd.PacedSendOne(eng.Now()); more {
				eng.After(interval, tick)
			}
		}
		eng.After(interval, tick)
	}

	// The client's request starts the clock.
	wan.BtoA.Send(&netstack.Packet{Flow: 1, Kind: netstack.Request, Size: 300 + netstack.HeaderBytes})
	eng.RunUntil(60 * sim.Second)
	return done
}
