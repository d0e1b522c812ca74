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
// one switch, on a group of the given shard count (hosts go round-robin,
// so at two shards a runs on shard 0 and b on shard 1). Returns the source
// host, its arena, the destination address, and a delivered-count pointer
// bumped by the receiver.
func twoHostPath(shards int) (*Topology, *host.Host, *netstack.Arena, netstack.Addr, *int) {
	top := New(sim.NewShardGroup(shards, 1), 1)
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
	top, a, arena, to, delivered := twoHostPath(1)
	eng := top.Eng
	src := top.Addr("a")

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := arena.Get()
		p.Flow, p.Src, p.Dst, p.Kind, p.Size = i, src, to, netstack.Data, 1500
		a.NICs[0].TxFromKernel(p)
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
	top, a, arena, to, delivered := twoHostPath(1)
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

// crossShardPath is twoHostPath on two shards: every a→b packet crosses
// shards through the switch hop's courier and is freed on shard 1. send
// has a transmit n one-way packets (at most 64) in one kernel chain and
// runs the group until b has received them all.
type crossShardPath struct {
	top       *Topology
	a         *host.Host
	arena     *netstack.Arena // shard 0's, where a's packets are carved
	src, to   netstack.Addr
	delivered *int
	sent      int
	batch     [64]*netstack.Packet
}

func newCrossShardPath() *crossShardPath {
	top, a, arena, to, delivered := twoHostPath(2)
	return &crossShardPath{top: top, a: a, arena: arena, src: top.Addr("a"), to: to, delivered: delivered}
}

func (c *crossShardPath) send(tb testing.TB, n int) {
	batch := c.batch[:n]
	for i := range batch {
		p := c.arena.Get()
		p.Flow, p.Src, p.Dst, p.Kind, p.Size = c.sent, c.src, c.to, netstack.Data, 1500
		c.sent++
		batch[i] = p
	}
	c.a.NICs[0].TxFromKernel(batch...)
	for ms := 0; *c.delivered < c.sent; ms++ {
		if ms == 100 {
			tb.Fatalf("delivered %d of %d packets after 100 ms", *c.delivered, c.sent)
		}
		c.top.RunFor(sim.Millisecond)
	}
}

// leaked fails tb if either shard's arena still counts a packet out.
func (c *crossShardPath) leaked(tb testing.TB) {
	for i := 0; i < 2; i++ {
		if live := c.top.Arena(i).Live(); live != 0 {
			tb.Fatalf("shard %d arena: Live = %d after every packet was delivered", i, live)
		}
	}
}

// BenchmarkCrossShardPacket is BenchmarkTestbedPacket across two shards:
// a (shard 0) sends to b (shard 1) in 64-packet bursts, so each packet
// also pays the courier hand-off and the shard rounds that carry it.
// Freed packets go home to shard 0's arena and the courier recycles its
// records, so the steady state allocates nothing.
func BenchmarkCrossShardPacket(b *testing.B) {
	c := newCrossShardPath()
	b.ReportAllocs()
	b.ResetTimer()
	for left := b.N; left > 0; left -= len(c.batch) {
		c.send(b, min(left, len(c.batch)))
	}
	b.StopTimer()
	c.leaked(b)
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/sec")
}

// TestCrossShardPacketZeroAlloc pins the cross-shard packet path at zero
// allocations: a warm 64-packet burst from shard 0 to shard 1 carves no
// arena chunk (each packet freed on shard 1 goes back to shard 0's arena)
// and binds no closure (the courier's hand-off records are pooled).
func TestCrossShardPacketZeroAlloc(t *testing.T) {
	c := newCrossShardPath()
	for i := 0; i < 4; i++ {
		c.send(t, len(c.batch))
	}
	// One measured run of 20 bursts counts every allocation (AllocsPerRun
	// rounds a per-run mean down).
	if n := testing.AllocsPerRun(1, func() {
		for range 20 {
			c.send(t, len(c.batch))
		}
	}); n != 0 {
		t.Fatalf("20 64-packet cross-shard bursts allocate %.0f times, want 0", n)
	}
	c.leaked(t)
}

// BenchmarkSwitchForward isolates the cut-through forwarding step: one
// address lookup and endpoint delivery, no links or hosts. This is the
// per-hop cost a hierarchical fabric pays at each leaf and at the spine.
func BenchmarkSwitchForward(b *testing.B) {
	top := New(sim.NewShardGroup(1, 1), 1)
	sw := top.AddSwitch("s0")
	arena := top.Arena(0)
	sink := netstack.EndpointFunc(func(p *netstack.Packet) { p.Release() })
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
// 256-host fleet (fleetSpec), 41.5 measured: kernel, facility, NIC and
// links with their registry entries, and the host's share of the
// topology's maps. Each component registers one reporter however many
// values it reports; a registry-owned instrument per gauge or histogram
// would add about 12, a closure per counter (about 80 per host) would put
// it near 200. A clean host builds no fault-channel names, and its
// facility's timing wheel no slots until a second timer is pending.
const buildAllocsPerHost = 42

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

// fleetSnapshotAllocsPerHost caps what Topology.Snapshot allocates per
// host of a 256-host fleet (fleetSpec), 0.54 measured: the three maps'
// tables and the key chunks, shared by ~80 keys a host. A key allocated on
// its own would put it above 80; a NIC's or link's scope, or the host's
// prefix, that escaped to the heap would add one each.
const fleetSnapshotAllocsPerHost = 1

// TestFleetSnapshotAllocs pins a fleet snapshot's allocations per host, so
// one allocation per key cannot come back, nor the throwaway snapshot
// that once sized the maps.
func TestFleetSnapshotAllocs(t *testing.T) {
	const hosts = 256
	top := Build(fleetSpec(hosts - 1))
	top.Start()
	top.RunFor(20 * sim.Millisecond)
	per := testing.AllocsPerRun(5, func() { top.Snapshot() }) / hosts
	if per > fleetSnapshotAllocsPerHost {
		t.Fatalf("Snapshot allocates %.2f times per host, want at most %d", per, fleetSnapshotAllocsPerHost)
	}
}
