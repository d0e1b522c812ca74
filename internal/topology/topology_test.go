package topology

import (
	"encoding/json"
	"testing"

	"softtimers/internal/core"
	"softtimers/internal/faults"
	"softtimers/internal/host"
	"softtimers/internal/kernel"
	"softtimers/internal/netstack"
	"softtimers/internal/nic"
	"softtimers/internal/sim"
)

// twoHosts builds a and b joined by one switch, with a receive recorder on
// each host keyed by flow id.
func twoHosts(t *testing.T, seed uint64) (*Topology, map[string]*[]int) {
	t.Helper()
	top := New(sim.NewShardGroup(1, seed), seed)
	got := map[string]*[]int{}
	for _, name := range []string{"a", "b"} {
		top.AddHost(host.Config{Name: name, Kernel: kernel.Options{IdleLoop: true}})
	}
	sw := top.AddSwitch("s0")
	for _, name := range []string{"a", "b"} {
		h := top.Host(name)
		p := top.Join(sw, h, nic.Config{Name: "eth0"}, WireSpec{})
		flows := &[]int{}
		got[name] = flows
		p.NIC.RxHandler = func(pkt *netstack.Packet) { *flows = append(*flows, pkt.Flow) }
	}
	return top, got
}

func TestSwitchForwardsByAddress(t *testing.T) {
	top, got := twoHosts(t, 1)
	top.Start()
	a := top.Host("a")

	// a → b, addressed: must arrive at b only.
	a.NICs[0].TxFromKernel(&netstack.Packet{
		Flow: 7, Src: top.Addr("a"), Dst: top.Addr("b"), Kind: netstack.Data, Size: 100,
	})
	top.Eng.RunFor(5 * sim.Millisecond)
	if len(*got["b"]) != 1 || (*got["b"])[0] != 7 {
		t.Fatalf("b received %v, want [7]", *got["b"])
	}
	if len(*got["a"]) != 0 {
		t.Fatalf("a received its own packet: %v", *got["a"])
	}

	// Unknown destination (zero and out-of-range): counted and dropped.
	a.NICs[0].TxFromKernel(
		&netstack.Packet{Flow: 8, Src: top.Addr("a"), Dst: 0, Kind: netstack.Data, Size: 100},
		&netstack.Packet{Flow: 9, Src: top.Addr("a"), Dst: 99, Kind: netstack.Data, Size: 100},
	)
	top.Eng.RunFor(5 * sim.Millisecond)
	sw := top.switches[0]
	if sw.Misses() != 2 {
		t.Fatalf("switch misses = %d, want 2", sw.Misses())
	}
	if sw.Forwarded() != 1 {
		t.Fatalf("switch forwarded = %d, want 1", sw.Forwarded())
	}
	if len(*got["a"])+len(*got["b"]) != 1 {
		t.Fatalf("missed packets were delivered somewhere: a=%v b=%v", *got["a"], *got["b"])
	}

	// Topology snapshot carries per-host namespaces and switch counters.
	snap := top.Snapshot()
	if snap.Counters["switch.s0.misses"] != 2 {
		t.Fatalf("snapshot switch.s0.misses = %d, want 2", snap.Counters["switch.s0.misses"])
	}
	if snap.Counters["host.a.nic.eth0.tx_packets"] != 3 {
		t.Fatalf("snapshot host.a.nic.eth0.tx_packets = %d, want 3",
			snap.Counters["host.a.nic.eth0.tx_packets"])
	}
}

func TestSwitchConnectValidates(t *testing.T) {
	sw := NewSwitch("s")
	for _, fn := range []func(){
		func() { sw.Connect(0, netstack.EndpointFunc(func(*netstack.Packet) {})) },
		func() {
			sw.Connect(1, netstack.EndpointFunc(func(*netstack.Packet) {}))
			sw.Connect(1, netstack.EndpointFunc(func(*netstack.Packet) {}))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// A host plan that drops every packet on one link name emulates pulling
// that cable: traffic on the downed link vanishes (counted as lost), the
// reverse direction keeps working.
func TestLinkDownViaFaultPlan(t *testing.T) {
	top := New(sim.NewShardGroup(1, 3), 3)
	eng := top.Eng
	// Per-channel faults: the plan is keyed by channel name, so give the
	// a→switch uplink a 100% drop channel and leave everything else clean.
	plan := faults.New(77, faults.Spec{Drop: 1})
	a := top.AddHost(host.Config{Name: "a", Kernel: kernel.Options{IdleLoop: true}, Faults: plan})
	b := top.AddHost(host.Config{Name: "b", Kernel: kernel.Options{IdleLoop: true}})
	sw := top.AddSwitch("s0")
	// Only host a's transmit (down) link keeps the plan's channel: the
	// NIC's receive ring gets an explicit clean channel (the host plan
	// would otherwise be its default), and the up link's channel is
	// cleared after wiring.
	clean := faults.New(1, faults.Spec{})
	pa := top.Join(sw, a, nic.Config{Name: "eth0", Faults: clean.Link("nic.eth0.rx")}, WireSpec{})
	pa.Up.Faults = nil // fault the downed direction only
	pb := top.Join(sw, b, nic.Config{Name: "eth0"}, WireSpec{})
	var bGot, aGot int
	pa.NIC.RxHandler = func(*netstack.Packet) { aGot++ }
	pb.NIC.RxHandler = func(*netstack.Packet) { bGot++ }
	top.Start()

	for i := 0; i < 10; i++ {
		a.NICs[0].TxFromKernel(&netstack.Packet{
			Flow: i, Src: top.Addr("a"), Dst: top.Addr("b"), Kind: netstack.Data, Size: 100,
		})
		b.NICs[0].TxFromKernel(&netstack.Packet{
			Flow: 100 + i, Src: top.Addr("b"), Dst: top.Addr("a"), Kind: netstack.Data, Size: 100,
		})
	}
	eng.RunFor(20 * sim.Millisecond)
	if bGot != 0 {
		t.Fatalf("b received %d packets over a downed link, want 0", bGot)
	}
	if aGot != 10 {
		t.Fatalf("a received %d packets on the healthy direction, want 10", aGot)
	}
	if pa.Down.Lost != 10 {
		t.Fatalf("downed link lost = %d, want 10", pa.Down.Lost)
	}
}

// Build assembles a declarative Spec deterministically: same spec, same
// seed, byte-identical telemetry after identical traffic.
func TestSpecBuildDeterministic(t *testing.T) {
	spec := Spec{
		Seed: 11,
		Hosts: []HostSpec{
			{Name: "server", Kernel: kernel.Options{IdleLoop: true}},
			{Name: "c1", Faults: &faults.Spec{Drop: 0.2}},
			{Name: "c2"},
		},
		Switches: []SwitchSpec{{Name: "lan", Members: []string{"server", "c1", "c2"}}},
	}
	run := func() []byte {
		top := Build(spec)
		if top.Addr("server") != 1 || top.Addr("c1") != 2 || top.Addr("c2") != 3 {
			t.Fatalf("addresses not in declaration order: %d %d %d",
				top.Addr("server"), top.Addr("c1"), top.Addr("c2"))
		}
		top.Start()
		srv := top.Host("server")
		for i := 0; i < 20; i++ {
			dst := top.Addr("c1")
			if i%2 == 0 {
				dst = top.Addr("c2")
			}
			srv.NICs[0].TxFromKernel(&netstack.Packet{
				Flow: i, Src: top.Addr("server"), Dst: dst, Kind: netstack.Data, Size: 600,
			})
		}
		top.Eng.RunFor(50 * sim.Millisecond)
		buf, err := json.Marshal(top.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	if a, b := run(), run(); string(a) != string(b) {
		t.Fatal("two Build runs from the same spec diverged")
	}
}

func TestSpecBuildUnknownMemberPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown switch member")
		}
	}()
	Build(Spec{Hosts: []HostSpec{{Name: "a"}},
		Switches: []SwitchSpec{{Name: "s", Members: []string{"ghost"}}}})
}

// A multipacer on one host clocking flows that terminate on *different*
// hosts: the capability the paper claims over hardware timers, here
// exercised across a switched topology. Each destination host's own kernel
// receives its flow's packets.
func TestMultiPacerFlowsAcrossHosts(t *testing.T) {
	top := New(sim.NewShardGroup(1, 9), 9)
	eng := top.Eng
	src := top.AddHost(host.Config{Name: "src", Kernel: kernel.Options{IdleLoop: true}})
	sw := top.AddSwitch("lan")
	ps := top.Join(sw, src, nic.Config{Name: "eth0"}, WireSpec{})
	rx := map[string]*int{}
	for _, name := range []string{"dst1", "dst2"} {
		h := top.AddHost(host.Config{Name: name})
		p := top.Join(sw, h, nic.Config{Name: "eth0"}, WireSpec{})
		n := new(int)
		rx[name] = n
		p.NIC.RxHandler = func(*netstack.Packet) { *n++ }
	}
	top.Start()

	m := core.NewMultiPacer(src.F)
	const perFlow = 40
	trains := 0 // trains that reported their last packet
	mk := func(dst netstack.Addr, flow int) func(sim.Time) (sim.Time, bool) {
		sent := 0
		return func(now sim.Time) (sim.Time, bool) {
			sent++
			cost := ps.NIC.TransmitNow(&netstack.Packet{
				Flow: flow, Src: top.Addr("src"), Dst: dst, Kind: netstack.Data, Size: 1500,
			})
			if sent == perFlow {
				trains++
			}
			return cost, sent < perFlow
		}
	}
	// Two different rates to two different machines from one event stream.
	m.AddFlow(1, 300*sim.Microsecond, 100*sim.Microsecond, mk(top.Addr("dst1"), 1))
	m.AddFlow(2, 700*sim.Microsecond, 100*sim.Microsecond, mk(top.Addr("dst2"), 2))
	eng.RunFor(100 * sim.Millisecond)

	if trains != 2 {
		t.Fatalf("%d of 2 trains done", trains)
	}
	if *rx["dst1"] != perFlow || *rx["dst2"] != perFlow {
		t.Fatalf("dst1=%d dst2=%d packets, want %d each", *rx["dst1"], *rx["dst2"], perFlow)
	}
	// The receiving kernels did real work: interrupts and protocol input
	// on their own CPUs, visible in their per-host namespaces.
	snap := top.Snapshot()
	for _, name := range []string{"dst1", "dst2"} {
		if snap.Counters["host."+name+".nic.eth0.rx_packets"] != perFlow {
			t.Fatalf("%s rx_packets = %d, want %d", name,
				snap.Counters["host."+name+".nic.eth0.rx_packets"], perFlow)
		}
		if snap.Counters["host."+name+".kernel.interrupts"] == 0 {
			t.Fatalf("%s kernel took no interrupts", name)
		}
	}
}
