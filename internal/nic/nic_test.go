package nic

import (
	"testing"

	"softtimers/internal/core"
	"softtimers/internal/cpu"
	"softtimers/internal/kernel"
	"softtimers/internal/netstack"
	"softtimers/internal/sim"
)

type rig struct {
	eng  *sim.Engine
	k    *kernel.Kernel
	f    *core.Facility
	n    *NIC
	out  []*netstack.Packet
	rxed []*netstack.Packet
	rxAt []sim.Time
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	r := &rig{eng: sim.NewEngine(11)}
	r.k = kernel.New(r.eng, cpu.PentiumII300(), kernel.Options{IdleLoop: true})
	r.f = core.New(r.k, core.Options{})
	r.n = New(r.k, r.f, cfg, netstack.EndpointFunc(func(p *netstack.Packet) {
		r.out = append(r.out, p)
	}))
	r.n.RxHandler = func(p *netstack.Packet) {
		r.rxed = append(r.rxed, p)
		r.rxAt = append(r.rxAt, r.eng.Now())
	}
	return r
}

func (r *rig) start() {
	r.k.Start()
	r.n.Start()
}

// everyBatch makes every softirq batch end in a tcpip-other trigger state,
// for exact counting.
func (r *rig) everyBatch() *rig {
	r.n.tailEvery = 1
	return r
}

func TestInterruptModeDeliversPacket(t *testing.T) {
	r := newRig(t, Config{Mode: Interrupt}).everyBatch()
	r.start()
	r.eng.At(100*sim.Microsecond, func() {
		r.n.Deliver(&netstack.Packet{Kind: netstack.Data, Seq: 1})
	})
	r.eng.RunFor(5 * sim.Millisecond)
	if len(r.rxed) != 1 {
		t.Fatalf("received %d packets", len(r.rxed))
	}
	// Interrupt + softirq path: delivery within a few tens of µs.
	latency := r.rxAt[0] - 100*sim.Microsecond
	if latency > 30*sim.Microsecond {
		t.Fatalf("rx latency = %v, want small in interrupt mode", latency)
	}
	if r.n.RxInterrupts != 1 {
		t.Fatalf("RxInterrupts = %d", r.n.RxInterrupts)
	}
	if got := r.k.Meter().BySource[kernel.SrcIPIntr]; got != 1 {
		t.Fatalf("ip-intr triggers = %d", got)
	}
	if got := r.k.Meter().BySource[kernel.SrcTCPIPOther]; got != 1 {
		t.Fatalf("tcpip-other triggers = %d (softirq tail)", got)
	}
}

func TestInterruptModeBatchesBackToBackArrivals(t *testing.T) {
	r := newRig(t, Config{Mode: Interrupt}).everyBatch()
	r.start()
	// 10 packets arriving 1us apart: far faster than interrupt+protocol
	// processing, so interrupts and softirq batches must both be < 10.
	for i := 0; i < 10; i++ {
		seq := int64(i)
		r.eng.At(100*sim.Microsecond+sim.Time(i)*sim.Microsecond, func() {
			r.n.Deliver(&netstack.Packet{Kind: netstack.Data, Seq: seq})
		})
	}
	r.eng.RunFor(10 * sim.Millisecond)
	if len(r.rxed) != 10 {
		t.Fatalf("received %d of 10", len(r.rxed))
	}
	if r.n.RxInterrupts >= 10 {
		t.Fatalf("RxInterrupts = %d, want batching under back-to-back load", r.n.RxInterrupts)
	}
	batches := r.k.Meter().BySource[kernel.SrcTCPIPOther]
	if batches > int64(r.n.RxInterrupts) {
		t.Fatalf("softirq batches (%d) exceed interrupts (%d)", batches, r.n.RxInterrupts)
	}
	for i, p := range r.rxed {
		if p.Seq != int64(i) {
			t.Fatal("receive order broken")
		}
	}
}

func TestSoftPollDeliversViaPollEvents(t *testing.T) {
	r := newRig(t, Config{Mode: SoftPoll, IdleInterrupts: false})
	r.start()
	r.eng.At(100*sim.Microsecond, func() {
		r.n.Deliver(&netstack.Packet{Kind: netstack.Data})
	})
	r.eng.RunFor(10 * sim.Millisecond)
	if len(r.rxed) != 1 {
		t.Fatalf("received %d packets", len(r.rxed))
	}
	if r.n.RxInterrupts != 0 {
		t.Fatalf("RxInterrupts = %d in polling mode", r.n.RxInterrupts)
	}
	if r.n.Polls == 0 {
		t.Fatal("no polls happened")
	}
	if got := r.k.Meter().BySource[kernel.SrcIPIntr]; got != 0 {
		t.Fatalf("ip-intr triggers = %d in polling mode", got)
	}
}

func TestSoftPollIdleInterruptsPreserveLatency(t *testing.T) {
	// With idle re-enable on (the default), a packet arriving to an idle
	// CPU is delivered by interrupt immediately instead of waiting for
	// the next poll.
	r := newRig(t, Config{Mode: SoftPoll, IdleInterrupts: true, MaxPoll: sim.Millisecond})
	r.start()
	// Let the adaptive interval grow (idle system finds nothing), then
	// deliver at an instant where the CPU is actually in its idle loop
	// (interrupt-enabled window).
	var at sim.Time
	var tryDeliver func()
	tryDeliver = func() {
		if r.k.Idle() {
			at = r.eng.Now()
			r.n.Deliver(&netstack.Packet{Kind: netstack.Data})
			return
		}
		r.eng.After(sim.Microsecond, tryDeliver)
	}
	r.eng.After(50*sim.Millisecond, tryDeliver)
	r.eng.RunFor(60 * sim.Millisecond)
	if len(r.rxed) != 1 {
		t.Fatalf("received %d packets", len(r.rxed))
	}
	latency := r.rxAt[0] - at
	if latency > 30*sim.Microsecond {
		t.Fatalf("idle rx latency = %v, want interrupt-fast", latency)
	}
	if r.n.RxInterrupts == 0 {
		t.Fatal("idle arrival did not use an interrupt")
	}
}

func TestPollIntervalAdaptsTowardQuota(t *testing.T) {
	r := newRig(t, Config{Mode: SoftPoll, IdleInterrupts: false, AggregationQuota: 2})
	r.start()
	// Steady arrivals every 50us: to find 2 per poll the interval must
	// settle near 100us.
	var arrive func()
	arrive = func() {
		r.n.Deliver(&netstack.Packet{Kind: netstack.Data})
		r.eng.After(50*sim.Microsecond, arrive)
	}
	r.eng.After(50*sim.Microsecond, arrive)
	r.eng.RunFor(2 * sim.Second)
	ivl := r.n.pollIvl
	if ivl < 60*sim.Microsecond || ivl > 160*sim.Microsecond {
		t.Fatalf("poll interval = %v, want ~100us for quota 2 at 50us arrivals", ivl)
	}
	found := float64(r.n.PolledPackets) / float64(r.n.Polls)
	if found < 1.2 || found > 3.0 {
		t.Fatalf("avg packets/poll = %.2f, want ~2", found)
	}
}

func TestTxChainTransmitsWithIPOutputTriggers(t *testing.T) {
	r := newRig(t, Config{Mode: Interrupt, TxComplInterrupts: true})
	r.start()
	pkts := []*netstack.Packet{
		{Kind: netstack.Data, Seq: 0}, {Kind: netstack.Data, Seq: 1}, {Kind: netstack.Data, Seq: 2},
	}
	r.k.Spawn("sender", func(p *kernel.Proc) {
		p.Syscall("writev", 10*sim.Microsecond, func() {
			p.ChainC(r.n.TxChainOf(pkts...), func() {})
		})
	})
	r.eng.RunFor(5 * sim.Millisecond)
	if len(r.out) != 3 {
		t.Fatalf("transmitted %d of 3", len(r.out))
	}
	if got := r.k.Meter().BySource[kernel.SrcIPOutput]; got != 3 {
		t.Fatalf("ip-output triggers = %d, want 3", got)
	}
	if r.n.TxComplInterrupts == 0 {
		t.Fatal("no tx-completion interrupts in conventional mode")
	}
}

func TestTxFromKernel(t *testing.T) {
	r := newRig(t, Config{Mode: Interrupt, TxComplInterrupts: false})
	r.start()
	r.eng.At(sim.Millisecond, func() {
		r.n.TxFromKernel(&netstack.Packet{Kind: netstack.Ack})
	})
	r.eng.RunFor(5 * sim.Millisecond)
	if len(r.out) != 1 {
		t.Fatalf("transmitted %d", len(r.out))
	}
	if r.n.TxComplInterrupts != 0 {
		t.Fatal("tx-completion interrupts raised while disabled")
	}
	if got := r.k.Meter().BySource[kernel.SrcIPOutput]; got != 1 {
		t.Fatalf("ip-output triggers = %d", got)
	}
}

func TestTransmitNowChargesNoChain(t *testing.T) {
	r := newRig(t, Config{Mode: SoftPoll, IdleInterrupts: false})
	r.start()
	cost := r.n.TransmitNow(&netstack.Packet{Kind: netstack.Data})
	if cost != TxWork {
		t.Fatalf("cost = %v", cost)
	}
	if len(r.out) != 1 {
		t.Fatal("packet not sent")
	}
}

func TestSoftPollRequiresFacility(t *testing.T) {
	eng := sim.NewEngine(1)
	k := kernel.New(eng, cpu.PentiumII300(), kernel.Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(k, nil, Config{Mode: SoftPoll}, netstack.EndpointFunc(func(*netstack.Packet) {}))
}

func TestDefaultsApplied(t *testing.T) {
	eng := sim.NewEngine(1)
	k := kernel.New(eng, cpu.PentiumII300(), kernel.Options{})
	f := core.New(k, core.Options{})
	n := New(k, f, Config{Mode: SoftPoll}, netstack.EndpointFunc(func(*netstack.Packet) {}))
	if n.cfg.AggregationQuota != 1 || n.cfg.MaxPoll != sim.Millisecond || n.pollIvl != 4*minPoll {
		t.Fatalf("defaults not applied: %+v", n.cfg)
	}
}

func TestNICAccessors(t *testing.T) {
	r := newRig(t, Config{Mode: SoftPoll})
	if r.n.cfg.Mode != SoftPoll {
		t.Error("mode mismatch")
	}
	if r.n.Cfg().Mode != SoftPoll {
		t.Error("Cfg() mismatch")
	}
	r.n.TransmitRaw(&netstack.Packet{Kind: netstack.Data})
	if len(r.out) != 1 || r.n.TxPackets != 1 {
		t.Error("TransmitRaw did not send")
	}
}

func TestTxFromKernelEmptyIsNoop(t *testing.T) {
	r := newRig(t, Config{Mode: Interrupt})
	r.start()
	r.n.TxFromKernel()
	r.eng.RunFor(sim.Millisecond)
	if len(r.out) != 0 {
		t.Error("empty TxFromKernel sent packets")
	}
}
