package topology

import (
	"fmt"
	"testing"

	"softtimers/internal/host"
	"softtimers/internal/kernel"
	"softtimers/internal/netstack"
	"softtimers/internal/nic"
	"softtimers/internal/sim"
)

// twoHostPath assembles the benchmark topology: two idle-halting hosts on
// one switch. Returns the source host, its arena, the destination address,
// and a delivered-count pointer bumped by the receiver.
func twoHostPath() (*Topology, *host.Host, *netstack.Arena, netstack.Addr, *int) {
	top := New(sim.NewShardGroup(1, 1), 1)
	a := top.AddHost(host.Config{Name: "a", Kernel: kernel.Options{}})
	dst := top.AddHost(host.Config{Name: "b", Kernel: kernel.Options{}})
	sw := top.AddSwitch("s0")
	top.Join(sw, a, nic.Config{Name: "eth0"}, WireSpec{})
	pb := top.Join(sw, dst, nic.Config{Name: "eth0"}, WireSpec{})
	delivered := new(int)
	// Handlers borrow the packet; the NIC releases it after the call.
	pb.NIC.RxHandler = func(*netstack.Packet) { *delivered++ }
	top.Start()
	return top, a, top.Arena(0), top.Addr("b"), delivered
}

// BenchmarkTestbedPacket measures the real-time cost of one packet through
// the two-host path: a's transmit softirq → down link → switch forward →
// up link → b's NIC ring → receive interrupt → handler. Both kernels halt
// when idle so the engine only runs packet-path events; pkts/sec is the
// simulator's packet-forwarding capacity on one core. Packets come from
// the topology arena, so the steady-state path allocates nothing — the
// allocs/op regression guard in `make bench` holds this at 0.
func BenchmarkTestbedPacket(b *testing.B) {
	top, a, arena, to, delivered := twoHostPath()
	eng := top.Eng
	src := top.Addr("a")

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := arena.Get()
		p.Flow, p.Src, p.Dst, p.Kind, p.Size = i, src, to, netstack.Data, 1500
		a.NIC().TxFromKernel(p)
		for *delivered <= i {
			if !eng.Step() {
				b.Fatal("engine drained before the packet was delivered")
			}
		}
	}
	b.StopTimer()
	if *delivered != b.N {
		b.Fatalf("delivered %d of %d packets", *delivered, b.N)
	}
	if live := arena.Live(); live != 0 {
		b.Fatalf("%d packets leaked from the arena", live)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/sec")
}

// TestTestbedPacketZeroAlloc pins the tentpole claim directly: after
// warmup, pushing a packet through the full two-host path — kernel
// transmit chain, both links, the switch, the receive ring and interrupt —
// allocates nothing.
func TestTestbedPacketZeroAlloc(t *testing.T) {
	top, a, arena, to, delivered := twoHostPath()
	eng := top.Eng
	src := top.Addr("a")
	flow := 0
	shot := func() {
		p := arena.Get()
		p.Flow, p.Src, p.Dst, p.Kind, p.Size = flow, src, to, netstack.Data, 1500
		flow++
		a.NIC().TxFromKernel(p)
		for *delivered < flow {
			if !eng.Step() {
				t.Fatal("engine drained before the packet was delivered")
			}
		}
	}
	// Warm every pool on the path (event free lists, delivery records,
	// chain buffers, the arena itself), then demand zero.
	for i := 0; i < 64; i++ {
		shot()
	}
	if n := testing.AllocsPerRun(100, shot); n != 0 {
		t.Fatalf("packet hot path allocates %.1f times per packet, want 0", n)
	}
	if live := arena.Live(); live != 0 {
		t.Fatalf("%d packets leaked from the arena", live)
	}
}

// BenchmarkSwitchForward isolates the cut-through forwarding step: one
// address lookup and endpoint delivery, no links or hosts. This is the
// per-hop cost a hierarchical fabric pays at each leaf and at the spine.
func BenchmarkSwitchForward(b *testing.B) {
	top := New(sim.NewShardGroup(1, 1), 1)
	sw := top.AddSwitch("s0")
	arena := top.Arena(0)
	sink := netstack.EndpointFunc(func(p *netstack.Packet) { arena.Release(p) })
	const fanout = 64
	for i := 0; i < fanout; i++ {
		sw.Connect(netstack.Addr(i+1), sink)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := arena.Get()
		p.Flow, p.Dst, p.Kind, p.Size = i, netstack.Addr(i%fanout+1), netstack.Data, 1500
		sw.Deliver(p)
	}
	b.StopTimer()
	if live := arena.Live(); live != 0 {
		b.Fatalf("%d packets leaked from the arena", live)
	}
}

// fleetSpec is fleet-1024's topology: a server with its idle loop on and
// clients idle-halting, all on one switch with NIC eth0, on one shard.
func fleetSpec(clients int) Spec {
	names := make([]string, clients+1)
	names[0] = "server"
	hosts := []HostSpec{{Name: "server", Kernel: kernel.Options{IdleLoop: true}}}
	for i := 0; i < clients; i++ {
		names[i+1] = fmt.Sprintf("client%04d", i)
		hosts = append(hosts, HostSpec{Name: names[i+1]})
	}
	return Spec{
		Seed:     1,
		Hosts:    hosts,
		Switches: []SwitchSpec{{Name: "lan", Members: names, NIC: nic.Config{Name: "eth0"}}},
	}
}

// BenchmarkFleetBuild times topology.Build of fleet-1024's Spec: 1,025
// kernels, facilities and NICs, 2,050 links and one switch.
func BenchmarkFleetBuild(b *testing.B) {
	spec := fleetSpec(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Build(spec)
	}
}

// buildAllocsPerHost is what topology.Build allocates per host of a
// 256-host fleet (fleetSpec), 53.5 measured: kernel, facility, NIC and
// links with their registry entries, and the host's share of the
// topology's maps. Each component registers one reporter however many
// counters it reports; a closure per counter (about 80 per host) would put
// it near 200. A clean host builds no fault-channel names, and its
// facility's timing wheel no slots until a second timer is pending.
const buildAllocsPerHost = 54

// TestBuildAllocsPerHost pins the set-up's allocations per built host, so
// a per-counter registration cannot creep back.
func TestBuildAllocsPerHost(t *testing.T) {
	const hosts = 256
	spec := fleetSpec(hosts - 1)
	per := testing.AllocsPerRun(5, func() { Build(spec) }) / hosts
	if per > buildAllocsPerHost {
		t.Fatalf("Build allocates %.2f times per host, want at most %d", per, buildAllocsPerHost)
	}
}
