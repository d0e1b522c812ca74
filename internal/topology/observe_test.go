package topology

import (
	"testing"

	"softtimers/internal/host"
	"softtimers/internal/kernel"
	"softtimers/internal/netstack"
	"softtimers/internal/nic"
	"softtimers/internal/sim"
)

// tracedTwoHostPath is twoHostPath with flow tracing wired before Start,
// at the given sampling rate.
func tracedTwoHostPath(rate uint64) (*Topology, *host.Host, *netstack.Arena, netstack.Addr, *int) {
	top := New(sim.NewShardGroup(1, 1), 1)
	a := top.AddHost(host.Config{Name: "a", Kernel: kernel.Options{}})
	dst := top.AddHost(host.Config{Name: "b", Kernel: kernel.Options{}})
	sw := top.AddSwitch("s0")
	top.Join(sw, a, nic.Config{Name: "eth0"}, WireSpec{})
	pb := top.Join(sw, dst, nic.Config{Name: "eth0"}, WireSpec{})
	delivered := new(int)
	pb.NIC.RxHandler = func(*netstack.Packet) { *delivered++ }
	top.EnableFlowTrace(rate, 0)
	top.Start()
	return top, a, top.Arena(0), top.Addr("b"), delivered
}

// A traced packet through the two-host path records the full hop
// sequence — NIC tx, both link serializations and arrivals, the
// cut-through switch forward, the rx ring and the protocol pickup — with
// non-decreasing virtual timestamps and every location resolved to a
// registered name. The span finishes when the arena refcount drops to
// zero, without any explicit finish call at the receiver.
func TestFlowTraceHopSequence(t *testing.T) {
	top, a, arena, to, delivered := tracedTwoHostPath(1)
	ft := top.flow
	smp := ft.Sampler("a")
	if !smp.SampleFlow() {
		t.Fatal("rate-1 sampler refused a flow")
	}

	p := arena.Get()
	p.Flow, p.Src, p.Dst, p.Kind, p.Size = 7, top.Addr("a"), to, netstack.Data, 1500
	p.Trace = smp.StartSpan()
	a.NICs[0].TxFromKernel(p)
	for *delivered == 0 {
		if !top.Eng.Step() {
			t.Fatal("engine drained before delivery")
		}
	}

	if ft.Started() != 1 || ft.Finished() != 1 {
		t.Fatalf("started %d finished %d, want 1/1", ft.Started(), ft.Finished())
	}
	spans := ft.Spans()
	if len(spans) != 1 {
		t.Fatalf("exported %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.ID != 1<<32|1 {
		t.Fatalf("span ID %#x, want host-a base | counter 1", s.ID)
	}
	if s.Flow != 7 || s.Kind != netstack.Data.String() || s.Src != 1 || s.Dst != 2 {
		t.Fatalf("span identity %+v wrong", s)
	}
	want := []string{
		"nic_tx", "link_tx", "link_rx", "switch_fwd",
		"link_tx", "link_rx", "nic_ring", "nic_rx",
	}
	if len(s.Hops) != len(want) {
		t.Fatalf("recorded %d hops %v, want %d", len(s.Hops), s.Hops, len(want))
	}
	for i, h := range s.Hops {
		if h.Kind != want[i] {
			t.Errorf("hop %d kind %q, want %q", i, h.Kind, want[i])
		}
		if h.Loc == "?" {
			t.Errorf("hop %d (%s) location unresolved", i, h.Kind)
		}
		if i > 0 && h.AtNS < s.Hops[i-1].AtNS {
			t.Errorf("hop %d (%s) at %d precedes hop %d at %d", i, h.Kind, h.AtNS, i-1, s.Hops[i-1].AtNS)
		}
	}
	// The cut-through forward runs inside the link arrival that carried the
	// packet in: same instant.
	if s.Hops[3].AtNS != s.Hops[2].AtNS {
		t.Errorf("switch forward at %d, want the carrying link_rx instant %d", s.Hops[3].AtNS, s.Hops[2].AtNS)
	}
	if ft.HopCount() != int64(len(want)) || ft.DroppedHops() != 0 {
		t.Fatalf("hop count %d dropped %d, want %d/0", ft.HopCount(), ft.DroppedHops(), len(want))
	}

	// The span renders as one Chrome flow arrow between the two host rows.
	evs := ft.FlowEvents()
	if len(evs) != 1 {
		t.Fatalf("%d flow events, want 1", len(evs))
	}
	if evs[0].StartPID != 1 || evs[0].EndPID != 2 || evs[0].EndTS < evs[0].StartTS {
		t.Fatalf("flow event anchors wrong: %+v", evs[0])
	}
}

// EnableFlowTrace is idempotent and rate 0 wires recorders without ever
// sampling, so hop sites stay nil-span no-ops.
func TestFlowTraceDisabledSamplesNothing(t *testing.T) {
	top, a, arena, to, delivered := tracedTwoHostPath(0)
	ft := top.flow
	if again := top.EnableFlowTrace(1, 10); again != ft {
		t.Fatal("EnableFlowTrace is not idempotent")
	}
	if ft.Sampler("a").SampleFlow() {
		t.Fatal("rate-0 sampler sampled a flow")
	}
	p := arena.Get()
	p.Flow, p.Src, p.Dst, p.Kind, p.Size = 0, top.Addr("a"), to, netstack.Data, 1500
	a.NICs[0].TxFromKernel(p)
	for *delivered == 0 {
		top.Eng.Step()
	}
	if ft.Started() != 0 || ft.Finished() != 0 || ft.SampledFlows() != 0 {
		t.Fatalf("rate-0 tracing recorded spans: started %d finished %d sampled %d",
			ft.Started(), ft.Finished(), ft.SampledFlows())
	}
}

// TestTestbedPacketZeroAllocTracingOff pins the observability contract:
// with flow tracing wired but the packet untraced, the hot path still
// allocates nothing — each hop site costs one nil test and the arena's
// finish hook never fires. Guarded ahead of the benches in `make bench`.
func TestTestbedPacketZeroAllocTracingOff(t *testing.T) {
	top, a, arena, to, delivered := tracedTwoHostPath(0)
	eng := top.Eng
	src := top.Addr("a")
	flow := 0
	shot := func() {
		p := arena.Get()
		p.Flow, p.Src, p.Dst, p.Kind, p.Size = flow, src, to, netstack.Data, 1500
		flow++
		a.NICs[0].TxFromKernel(p)
		for *delivered < flow {
			if !eng.Step() {
				t.Fatal("engine drained before the packet was delivered")
			}
		}
	}
	for i := 0; i < 64; i++ {
		shot()
	}
	if n := testing.AllocsPerRun(100, shot); n != 0 {
		t.Fatalf("tracing-off packet path allocates %.1f times per packet, want 0", n)
	}
	if live := arena.Live(); live != 0 {
		t.Fatalf("%d packets leaked from the arena", live)
	}
}

// EnableSeries samples every host on the engine's virtual-time grid and
// merges a fleet series point-wise.
func TestEnableSeriesSamplesOnGrid(t *testing.T) {
	const interval = sim.Millisecond
	top := New(sim.NewShardGroup(1, 1), 1)
	top.AddHost(host.Config{Name: "a", Kernel: kernel.Options{}})
	top.AddHost(host.Config{Name: "b", Kernel: kernel.Options{}})
	top.EnableSeries(interval, 8)
	top.Start()
	top.RunFor(5 * interval)

	snaps := top.SeriesSnapshots()
	for _, key := range []string{"host.a", "host.b", "fleet"} {
		if snaps[key] == nil {
			t.Fatalf("missing %q series", key)
		}
	}
	sa := snaps["host.a"]
	if len(sa.TimesNS) != 5 {
		t.Fatalf("host.a holds %d points, want 5", len(sa.TimesNS))
	}
	for i, ts := range sa.TimesNS {
		if want := int64(i+1) * int64(interval); ts != want {
			t.Fatalf("point %d at %d, want the %dms grid instant %d", i, ts, i+1, want)
		}
	}
	// Default columns exist on every host and sum/max into the fleet.
	for _, col := range []string{
		"trigger_interval_p50_us", "trigger_interval_p99_us",
		"softtimer_delay_p99_us", "rx_packets", "tx_packets", "nic_queue_depth",
	} {
		if _, ok := snaps["host.b"].Series[col]; !ok {
			t.Fatalf("host.b missing default column %q", col)
		}
		if _, ok := snaps["fleet"].Series[col]; !ok {
			t.Fatalf("fleet missing default column %q", col)
		}
	}

	// A second export is identical: snapshots do not consume state, and
	// sampling stopped with virtual time.
	again := top.SeriesSnapshots()
	if len(again["host.a"].TimesNS) != 5 {
		t.Fatal("re-export changed the series")
	}
}
