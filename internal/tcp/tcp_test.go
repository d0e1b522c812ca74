package tcp

import (
	"testing"

	"softtimers/internal/netstack"
	"softtimers/internal/sim"
)

// rig wires a sender and receiver through a WAN emulator and routes ACKs
// back to the sender.
type rig struct {
	eng  *sim.Engine
	snd  *Sender
	rcv  *Receiver
	wan  *netstack.WANEmulator
	done sim.Time
}

func newRig(t *testing.T, total int64, bottleneckMbps int64, paced bool) *rig {
	t.Helper()
	r := &rig{eng: sim.NewEngine(5)}
	sndEnv := &EngineEnv{Eng: r.eng}
	rcvEnv := &EngineEnv{Eng: r.eng}
	serverIn := netstack.EndpointFunc(func(p *netstack.Packet) {
		if p.Kind == netstack.Ack {
			r.snd.HandleAck(p)
		}
	})
	clientIn := netstack.EndpointFunc(func(p *netstack.Packet) {
		if p.Kind == netstack.Data {
			r.rcv.HandleData(p)
		}
	})
	r.wan = netstack.NewWANEmulator(r.eng, 100_000_000, bottleneckMbps*1_000_000,
		100*sim.Millisecond, serverIn, clientIn)
	sndEnv.Out = r.wan.AtoB // server (a) -> client (b)
	rcvEnv.Out = r.wan.BtoA
	r.snd = NewSender(sndEnv, 1, total, paced)
	r.rcv = NewReceiver(rcvEnv, 1)
	r.rcv.Expected = total
	r.rcv.OnComplete = func(now sim.Time) { r.done = now }
	return r
}

func TestSelfClockedSmallTransferDelackStall(t *testing.T) {
	// 5 segments, cwnd starts at 1: the first lone segment waits out the
	// 200ms delayed-ACK timer, reproducing the paper's ~496ms response
	// for 5-packet transfers (Table 6, regular TCP).
	r := newRig(t, 5, 50, false)
	r.snd.Start()
	r.eng.RunUntil(5 * sim.Second)
	if r.done == 0 {
		t.Fatal("transfer never completed")
	}
	if r.done < 350*sim.Millisecond {
		t.Fatalf("completed at %v — missing the delayed-ACK stall", r.done)
	}
	if r.done > 700*sim.Millisecond {
		t.Fatalf("completed at %v — far beyond the paper's ~496ms shape", r.done)
	}
	if r.rcv.DelAckFires == 0 {
		t.Fatal("delayed-ACK timer never fired for the lone first segment")
	}
}

func TestSlowStartGrowsExponentially(t *testing.T) {
	r := newRig(t, 1000, 100, false)
	r.snd.Start()
	r.eng.RunUntil(20 * sim.Second)
	if r.done == 0 {
		t.Fatal("transfer never completed")
	}
	// cwnd grew from 1 by +1 per ACK; with ~1 ACK per 2 segments the
	// final window must be large but finite.
	if r.snd.cwnd < 50 {
		t.Fatalf("cwnd = %v, slow start did not grow", r.snd.cwnd)
	}
	if r.snd.SegmentsSent != 1000 {
		t.Fatalf("sent %d segments", r.snd.SegmentsSent)
	}
	// Exponential opening: 1000 segments at RTT 100ms must finish in
	// roughly 1.1-2s (about 10-13 RTTs + the initial delack stall), not
	// the ~50s that fixed cwnd=2 would take.
	if r.done > 3*sim.Second {
		t.Fatalf("completed at %v, too slow for slow start", r.done)
	}
}

func TestLargeTransferApproachesBottleneckRate(t *testing.T) {
	const total = 10000
	r := newRig(t, total, 50, false)
	r.snd.Start()
	r.eng.RunUntil(60 * sim.Second)
	if r.done == 0 {
		t.Fatal("transfer never completed")
	}
	// 10k segments * 1500B at 50Mbps = 2.4s of pure transmission;
	// slow start adds ~1.3s up front (paper: 3.87s total).
	if r.done < 2400*sim.Millisecond {
		t.Fatalf("completed at %v — faster than the bottleneck allows", r.done)
	}
	if r.done > 6*sim.Second {
		t.Fatalf("completed at %v — want ~3.9s shape", r.done)
	}
	xput := float64(total) * 1448 * 8 / r.done.Seconds() / 1e6
	if xput < 25 || xput > 50 {
		t.Fatalf("throughput = %.1f Mbps, want ~30 (paper: 29.95)", xput)
	}
}

func TestPacedTransferSkipsSlowStart(t *testing.T) {
	// Rate-based clocking at the bottleneck rate: 100 segments at 50Mbps
	// (240us/segment) finish in ~50ms (one-way) + 24ms ≈ 75-130ms — the
	// paper's 123.7ms vs 1145ms for regular TCP.
	const total = 100
	r := newRig(t, total, 50, true)
	interval := 240 * sim.Microsecond
	var tick func()
	tick = func() {
		if r.snd.PacedSendOne(r.eng.Now()) {
			r.eng.After(interval, tick)
		}
	}
	r.eng.After(interval, tick)
	r.eng.RunUntil(2 * sim.Second)
	if r.done == 0 {
		t.Fatal("paced transfer never completed")
	}
	if r.done > 140*sim.Millisecond {
		t.Fatalf("paced transfer took %v, want ~75-130ms", r.done)
	}
	if r.snd.nextSeq != total {
		t.Fatal("sender not done")
	}
}

func TestPacedBeatsSelfClockedOnMediumTransfer(t *testing.T) {
	// The paper's headline: ~89% response-time reduction for 100-packet
	// transfers on a high bandwidth-delay path.
	reg := newRig(t, 100, 50, false)
	reg.snd.Start()
	reg.eng.RunUntil(10 * sim.Second)

	paced := newRig(t, 100, 50, true)
	interval := 240 * sim.Microsecond
	var tick func()
	tick = func() {
		if paced.snd.PacedSendOne(paced.eng.Now()) {
			paced.eng.After(interval, tick)
		}
	}
	paced.eng.After(interval, tick)
	paced.eng.RunUntil(10 * sim.Second)

	if reg.done == 0 || paced.done == 0 {
		t.Fatal("transfers incomplete")
	}
	reduction := 1 - paced.done.Seconds()/reg.done.Seconds()
	if reduction < 0.7 {
		t.Fatalf("response-time reduction = %.0f%%, want large (paper: 89%%)", reduction*100)
	}
}

func TestReceiverAcksEverySecondSegment(t *testing.T) {
	eng := sim.NewEngine(1)
	var acks []*netstack.Packet
	env := &EngineEnv{Eng: eng, Out: netstack.EndpointFunc(func(p *netstack.Packet) {
		acks = append(acks, p)
	})}
	rcv := NewReceiver(env, 7)
	for i := int64(0); i < 6; i++ {
		rcv.HandleData(&netstack.Packet{Flow: 7, Kind: netstack.Data, Seq: i})
	}
	eng.RunUntil(10 * sim.Millisecond) // before the delack timer
	if len(acks) != 3 {
		t.Fatalf("got %d acks for 6 segments, want 3", len(acks))
	}
	for i, a := range acks {
		if a.AckSeq != int64(i+1)*2 {
			t.Fatalf("ack %d covers %d, want %d", i, a.AckSeq, (i+1)*2)
		}
		if a.Kind != netstack.Ack || a.Flow != 7 {
			t.Fatal("malformed ack")
		}
	}
}

func TestDelayedAckTimerCoversOddTail(t *testing.T) {
	eng := sim.NewEngine(1)
	var acks []*netstack.Packet
	var ackAt []sim.Time
	env := &EngineEnv{Eng: eng, Out: netstack.EndpointFunc(func(p *netstack.Packet) {
		acks = append(acks, p)
		ackAt = append(ackAt, eng.Now())
	})}
	rcv := NewReceiver(env, 1)
	rcv.HandleData(&netstack.Packet{Kind: netstack.Data})
	eng.RunUntil(sim.Second)
	if len(acks) != 1 {
		t.Fatalf("got %d acks, want 1 from the delack timer", len(acks))
	}
	if ackAt[0] != 200*sim.Millisecond {
		t.Fatalf("delack fired at %v, want 200ms", ackAt[0])
	}
	if rcv.DelAckFires != 1 {
		t.Fatalf("DelAckFires = %d", rcv.DelAckFires)
	}
}

// An immediate ACK cancels the delayed-ACK timer the first segment armed:
// it neither fires later nor stays queued on the engine.
func TestImmediateAckCancelsDelayedAck(t *testing.T) {
	eng := sim.NewEngine(1)
	acks := 0
	env := &EngineEnv{Eng: eng, Out: netstack.EndpointFunc(func(*netstack.Packet) { acks++ })}
	rcv := NewReceiver(env, 1)
	rcv.HandleData(&netstack.Packet{Kind: netstack.Data}) // arms the timer
	if eng.Pending() != 1 {
		t.Fatalf("pending events = %d after one segment, want the delayed-ACK timer", eng.Pending())
	}
	rcv.HandleData(&netstack.Packet{Kind: netstack.Data}) // second segment: ACK now
	if eng.Pending() != 0 {
		t.Fatalf("pending events = %d after the immediate ACK, want the timer canceled", eng.Pending())
	}
	eng.RunUntil(sim.Second)
	if acks != 1 || rcv.DelAckFires != 0 {
		t.Fatalf("acks = %d, delayed-ACK fires = %d; want 1 and 0", acks, rcv.DelAckFires)
	}
}

func TestSenderMaxBurstTracksBigAckResponse(t *testing.T) {
	// An ACK covering several segments opens the window by that many plus
	// one, so a self-clocked sender answers it with a burst.
	eng := sim.NewEngine(1)
	env := &EngineEnv{Eng: eng, Out: netstack.EndpointFunc(func(*netstack.Packet) {})}
	snd := NewSender(env, 1, 100, false)
	snd.Start()
	if snd.MaxBurst != 1 {
		t.Fatalf("initial burst = %d, want the 1-segment initial window", snd.MaxBurst)
	}
	snd.HandleAck(&netstack.Packet{Kind: netstack.Ack, AckSeq: 1}) // cwnd 2: segments 1, 2
	snd.HandleAck(&netstack.Packet{Kind: netstack.Ack, AckSeq: 2}) // cwnd 3: segments 3, 4
	if snd.MaxBurst != 2 {
		t.Fatalf("MaxBurst = %d after one-segment ACKs, want 2", snd.MaxBurst)
	}
	snd.HandleAck(&netstack.Packet{Kind: netstack.Ack, AckSeq: 5}) // covers 3; cwnd 4
	if snd.MaxBurst != 4 {
		t.Fatalf("MaxBurst = %d after a 3-segment ACK, want 4", snd.MaxBurst)
	}
}

func TestPacedSendOnePanicsOnSelfClocked(t *testing.T) {
	eng := sim.NewEngine(1)
	env := &EngineEnv{Eng: eng, Out: netstack.EndpointFunc(func(*netstack.Packet) {})}
	snd := NewSender(env, 1, 10, false)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	snd.PacedSendOne(0)
}

func TestNegativeTotalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewSender(nil, 1, -1, false)
}

func TestSenderAccessors(t *testing.T) {
	eng := sim.NewEngine(30)
	sent := 0
	env := &EngineEnv{Eng: eng, Out: netstack.EndpointFunc(func(*netstack.Packet) { sent++ })}
	snd := NewSender(env, 1, 10, false)
	if snd.nextSeq != 0 || snd.ackedTo != 0 {
		t.Fatalf("fresh sender: sent to %d, acked to %d", snd.nextSeq, snd.ackedTo)
	}
	snd.Start()
	snd.Start() // idempotent
	if sent != 1 {
		t.Fatalf("initial window sent %d, want 1", sent)
	}
	if snd.nextSeq != 1 {
		t.Fatalf("sent to %d, want 1", snd.nextSeq)
	}
	snd.HandleAck(&netstack.Packet{Kind: netstack.Ack, AckSeq: 10})
	if snd.ackedTo != snd.total {
		t.Fatal("sender not done after full ack")
	}
}

func TestPacedSenderDoneSemantics(t *testing.T) {
	eng := sim.NewEngine(31)
	env := &EngineEnv{Eng: eng, Out: netstack.EndpointFunc(func(*netstack.Packet) {})}
	snd := NewSender(env, 1, 2, true)
	snd.Start() // no-op for paced
	if snd.nextSeq != 0 {
		t.Fatal("paced sender sent before PacedSendOne")
	}
	if !snd.PacedSendOne(0) {
		t.Fatal("more=false after first of two")
	}
	if snd.PacedSendOne(0) {
		t.Fatal("more=true after last")
	}
	if snd.PacedSendOne(0) || snd.SegmentsSent != 2 {
		t.Fatalf("send past end: more or a third segment (%d sent)", snd.SegmentsSent)
	}
	if snd.nextSeq != snd.total {
		t.Fatal("paced sender not done after transmitting all")
	}
}
