package experiments

import (
	"fmt"

	"softtimers/internal/metrics"
	"softtimers/internal/netstack"
	"softtimers/internal/sim"
	"softtimers/internal/tcp"
)

// WANRow is one transfer size of Tables 6/7.
type WANRow struct {
	Packets       int64
	RegXputMbps   float64
	RegRespMS     float64
	PacedXputMbps float64
	PacedRespMS   float64
	RespReduction float64 // fraction
}

// Table renders Table 6 or 7.
func (r *WANResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Table %s — rate-based clocking network performance (bottleneck %d Mbps, RTT %.0f ms)",
			map[int64]string{50: "6", 100: "7"}[r.BottleneckMbps], r.BottleneckMbps, r.RTTMS),
		Columns: []string{"size (pkts)", "TCP xput (Mbps)", "TCP resp (ms)",
			"paced xput (Mbps)", "paced resp (ms)", "reduction"},
	}
	t.Metrics = map[string]float64{}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", row.Packets),
			f2(row.RegXputMbps), f1(row.RegRespMS),
			f2(row.PacedXputMbps), f1(row.PacedRespMS), pct(row.RespReduction),
		})
		t.Metrics[fmt.Sprintf("resp_reduction_%dpkt", row.Packets)] = row.RespReduction
	}
	t.Notes = append(t.Notes,
		"paper @50Mbps: 5pkt 496->101ms (79%), 100pkt 1145->124ms (89%), 100k pkt 25432->24863ms (2%)",
		"paper @100Mbps: 100pkt 1056->112ms (89%), 100k pkt 14235->12601ms (11%)")
	t.Telemetry = r.Telemetry
	return t
}

// WANResult reproduces Table 6 (50 Mbps) or Table 7 (100 Mbps).
type WANResult struct {
	BottleneckMbps int64
	RTTMS          float64
	Rows           []WANRow
	// Telemetry merges every transfer's metrics snapshot. The WAN runs
	// have no simulated kernel, so each transfer uses a standalone
	// registry holding the TCP endpoint and emulator link instruments.
	Telemetry *metrics.Snapshot
}

// RunWAN measures HTTP-like transfers over the laboratory WAN emulator
// (Section 5.8): bottleneck 50 or 100 Mbps, RTT 100 ms, transfer sizes in
// 1448-byte packets; regular slow-starting TCP versus rate-based clocking
// at the bottleneck rate using soft timers. Paper: response-time
// reductions of 2–89%, largest for medium (100-packet) transfers.
func RunWAN(sc Scale, bottleneckMbps int64) *WANResult {
	// Every (transfer size, regular|paced) pair is its own engine and WAN
	// emulator: 2N independent transfers, fanned across sc.Workers.
	sizes := sc.WANTransfers
	resps := make([]sim.Time, 2*len(sizes))
	snaps := make([]*metrics.Snapshot, 2*len(sizes))
	forEach(sc.Workers, len(resps), func(i int) {
		resps[i], snaps[i] = runWANTransfer(sc, bottleneckMbps, sizes[i/2], i%2 == 1)
	})
	res := &WANResult{BottleneckMbps: bottleneckMbps, RTTMS: 100, Telemetry: mergeTelemetry(snaps)}
	for i, n := range sizes {
		reg, paced := resps[2*i], resps[2*i+1]
		row := WANRow{
			Packets:       n,
			RegRespMS:     reg.Millis(),
			PacedRespMS:   paced.Millis(),
			RegXputMbps:   xputMbps(n, reg),
			PacedXputMbps: xputMbps(n, paced),
		}
		if reg > 0 {
			row.RespReduction = 1 - float64(paced)/float64(reg)
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

func xputMbps(packets int64, resp sim.Time) float64 {
	if resp <= 0 {
		return 0
	}
	return float64(packets) * netstack.MSS * 8 / resp.Seconds() / 1e6
}

// dispatcher is a mutable endpoint, letting the WAN emulator be wired
// before the protocol endpoints exist.
type dispatcher struct{ fn func(p *netstack.Packet) }

func (d *dispatcher) Deliver(p *netstack.Packet) {
	if d.fn != nil {
		d.fn(p)
	}
}

// runWANTransfer performs one request/response exchange and returns the
// response time — from the client's request transmission to its reception
// of the final data segment — plus the transfer's telemetry snapshot. A
// persistent connection is assumed established (no handshake), matching
// the paper's setup.
func runWANTransfer(sc Scale, bottleneckMbps, packets int64, paced bool) (sim.Time, *metrics.Snapshot) {
	eng := sim.NewEngine(sc.Seed + uint64(packets))
	cfg := tcp.DefaultConfig()

	serverIn := &dispatcher{}
	clientIn := &dispatcher{}
	// Side A is the server, side B the client: AtoB carries response
	// data, BtoA carries the request and ACKs.
	wan := netstack.NewWANEmulator(eng, netstack.LANBps, bottleneckMbps*1_000_000,
		100*sim.Millisecond, serverIn, clientIn)

	sndEnv := &tcp.EngineEnv{Eng: eng, Out: wan.AtoB}
	rcvEnv := &tcp.EngineEnv{Eng: eng, Out: wan.BtoA}
	snd := tcp.NewSender(sndEnv, cfg, 1, packets, paced)
	rcv := tcp.NewReceiver(rcvEnv, cfg, 1)
	rcv.Expected = packets

	// No kernel in the WAN rigs — a standalone registry carries the TCP
	// and link instruments for the -metrics dump.
	reg := metrics.NewRegistry()
	snd.RegisterMetrics(reg)
	rcv.RegisterMetrics(reg)
	wan.AtoB.RegisterMetrics(reg)
	wan.BtoA.RegisterMetrics(reg)

	var done sim.Time
	rcv.OnComplete = func(now sim.Time) { done = now }
	clientIn.fn = func(p *netstack.Packet) {
		if p.Kind == netstack.Data {
			rcv.HandleData(p)
		}
	}

	if paced {
		// Rate-based clocking at the known bottleneck capacity: one
		// 1500-byte packet per 1500*8/bw seconds (240 µs at 50 Mbps,
		// 120 µs at 100 Mbps), skipping slow start entirely. The server
		// is otherwise unloaded, so soft-timer events fire with
		// idle-loop precision; the pacing here models that directly.
		interval := sim.Time(int64(netstack.MSS+netstack.HeaderBytes) * 8 * int64(sim.Second) /
			(bottleneckMbps * 1_000_000))
		var tick func()
		tick = func() {
			if _, more := snd.PacedSendOne(eng.Now()); more {
				eng.After(interval, tick)
			}
		}
		started := false
		serverIn.fn = func(p *netstack.Packet) {
			if p.Kind == netstack.Request && !started {
				started = true
				eng.After(interval, tick)
			}
		}
	} else {
		serverIn.fn = func(p *netstack.Packet) {
			switch p.Kind {
			case netstack.Request:
				snd.Start()
			case netstack.Ack:
				snd.HandleAck(p)
			}
		}
	}

	// The client sends the request at t=0.
	wan.BtoA.Send(&netstack.Packet{Flow: 1, Kind: netstack.Request, Size: 300 + netstack.HeaderBytes})

	eng.RunUntil(600 * sim.Second)
	if done == 0 {
		panic(fmt.Sprintf("experiments: WAN transfer of %d packets never completed", packets))
	}
	return done, reg.Snapshot()
}
