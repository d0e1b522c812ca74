package topology

import (
	"testing"

	"softtimers/internal/kernel"
	"softtimers/internal/netstack"
	"softtimers/internal/sim"
)

// Sharded assembly details: round-robin placement, shard clamping, fabric
// members forced onto their leaf's shard, and a zero shard count meaning
// one shard.
func TestShardedAssemblyPlacement(t *testing.T) {
	spec := Spec{
		Seed: 7,
		Hosts: []HostSpec{
			{Name: "a"}, {Name: "b"}, {Name: "c"},
		},
		Switches: []SwitchSpec{{Name: "s", Members: []string{"a", "b", "c"}}},
		Shards:   8, // clamps to the host count
	}
	top := Build(spec)
	if got := top.Group().N(); got != 3 {
		t.Fatalf("group has %d shards, want 3 (clamped to hosts)", got)
	}
	for i, name := range []string{"a", "b", "c"} {
		if got := top.HostShard(name); got != i {
			t.Fatalf("host %s on shard %d, want %d (round-robin)", name, got, i)
		}
	}

	spec.Shards = 0
	if got := Build(spec).Group().N(); got != 1 {
		t.Fatalf("Shards: 0 built %d shards, want 1", got)
	}

	// Fabric members land on leaf % shards, whatever their index.
	fab := fabricSpec(2)
	top = Build(fab)
	for i, name := range fab.Fabrics[0].Members {
		if got, want := top.HostShard(name), (i%3)%2; got != want {
			t.Fatalf("fabric member %s on shard %d, want %d (leaf %d mod 2)", name, got, want, i%3)
		}
	}
}

// Couriers and the switch's address-to-shard map exist only above one
// shard: a one-shard topology runs the local packet path, with the
// arrival-band conduit keys the sharded path carries.
func TestCouriersOnlyAboveOneShard(t *testing.T) {
	for _, shards := range []int{1, 2} {
		top := Build(fabricSpec(shards))
		for _, h := range top.Hosts() {
			p := top.Ports(h)[0]
			if (p.Down.Courier != nil) != (shards > 1) {
				t.Errorf("shards=%d: host %s courier installed = %v", shards, h.Name, p.Down.Courier != nil)
			}
			if p.Down.ArrivalConduit == 0 {
				t.Errorf("shards=%d: host %s down link has no arrival conduit", shards, h.Name)
			}
		}
		f := top.Fabrics()[0]
		for _, sw := range append([]*Switch{f.Spine}, f.Leaves...) {
			if (sw.shardOf != nil) != (shards > 1) {
				t.Errorf("shards=%d: switch %s address-to-shard map present = %v", shards, sw.Name, sw.shardOf != nil)
			}
		}
		if (f.Up[0].Courier != nil) != (shards > 1) {
			t.Errorf("shards=%d: trunk courier installed = %v", shards, f.Up[0].Courier != nil)
		}
	}
}

// Cross-shard forwards execute on the destination shard through the
// courier and count on the same switch counters as local forwards, so the
// totals match what a legacy switch would report.
func TestShardedSwitchCountsPerShard(t *testing.T) {
	spec := Spec{
		Seed: 99,
		Hosts: []HostSpec{
			{Name: "src", Kernel: kernel.Options{IdleLoop: true}},
			{Name: "peer"},
		},
		Switches: []SwitchSpec{{Name: "s", Members: []string{"src", "peer"}}},
		Shards:   2,
	}
	top := Build(spec)
	var got int
	top.Ports(top.Host("peer"))[0].NIC.RxHandler = func(*netstack.Packet) { got++ }
	top.Start()

	// Addressed cross-shard traffic, plus one miss.
	src := top.Host("src")
	src.NICs[0].TxFromKernel(
		&netstack.Packet{Flow: 1, Src: top.Addr("src"), Dst: top.Addr("peer"), Kind: netstack.Data, Size: 200},
		&netstack.Packet{Flow: 2, Src: top.Addr("src"), Dst: top.Addr("peer"), Kind: netstack.Data, Size: 200},
		&netstack.Packet{Flow: 3, Src: top.Addr("src"), Dst: 77, Kind: netstack.Data, Size: 200},
	)
	top.RunFor(10 * sim.Millisecond)

	if got != 2 {
		t.Fatalf("peer received %d packets, want 2", got)
	}
	sw := top.switches[0]
	if sw.Forwarded() != 2 || sw.Misses() != 1 {
		t.Fatalf("forwarded=%d misses=%d, want 2/1", sw.Forwarded(), sw.Misses())
	}
	if rounds, msgs := top.Group().Stats(); rounds == 0 || msgs < 2 {
		t.Fatalf("group ran %d rounds / %d messages, want cross-shard traffic", rounds, msgs)
	}
}

// Per-host RNG streams depend only on (seed, name) — the property that lets
// workloads draw identically no matter which engine their host runs on.
func TestHostRandIndependentOfSharding(t *testing.T) {
	draw := func(shards int) []uint64 {
		spec := Spec{
			Seed:   31,
			Hosts:  []HostSpec{{Name: "a"}, {Name: "b"}},
			Shards: shards,
		}
		top := Build(spec)
		var out []uint64
		for _, h := range top.Hosts() {
			r := h.Rand()
			for i := 0; i < 4; i++ {
				out = append(out, r.Uint64())
			}
		}
		return out
	}
	one, two := draw(1), draw(2)
	for i := range one {
		if one[i] != two[i] {
			t.Fatalf("draw %d diverged: one shard %d, two shards %d", i, one[i], two[i])
		}
	}
}
