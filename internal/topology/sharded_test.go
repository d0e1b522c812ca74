package topology

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"softtimers/internal/core"
	"softtimers/internal/kernel"
	"softtimers/internal/netstack"
	"softtimers/internal/sim"
)

// pacedStar assembles a 4-host star (one src pacing flows to three dsts),
// runs 60 ms of cross-host traffic, and returns the merged telemetry JSON,
// the merged Chrome trace, and the per-dst receive counts. shards == 0
// builds the legacy single-engine topology.
func pacedStar(t *testing.T, shards int) (snap, chrome []byte, rx map[string]int) {
	t.Helper()
	spec := Spec{
		Seed: 4242,
		Hosts: []HostSpec{
			{Name: "src", Kernel: kernel.Options{IdleLoop: true}},
			{Name: "dst1"},
			{Name: "dst2"},
			{Name: "dst3"},
		},
		Switches: []SwitchSpec{{Name: "lan", Members: []string{"src", "dst1", "dst2", "dst3"}}},
		Shards:   shards,
	}
	top := Build(spec)
	rx = map[string]int{}
	for _, name := range []string{"dst1", "dst2", "dst3"} {
		name := name
		p := top.Ports(top.Host(name))[0]
		p.NIC.RxHandler = func(*netstack.Packet) { rx[name]++ }
	}
	top.EnableTracing(1 << 14)
	top.Start()

	src := top.Host("src")
	m := core.NewMultiPacer(src.F)
	ps := top.Ports(src)[0]
	mk := func(dst netstack.Addr, flow, n int) func(sim.Time) (sim.Time, bool) {
		sent := 0
		return func(sim.Time) (sim.Time, bool) {
			sent++
			cost := ps.NIC.TransmitNow(&netstack.Packet{
				Flow: flow, Src: top.Addr("src"), Dst: dst, Kind: netstack.Data, Size: 1200,
			})
			return cost, sent < n
		}
	}
	m.AddFlow(1, 300*sim.Microsecond, 100*sim.Microsecond, mk(top.Addr("dst1"), 1, 30))
	m.AddFlow(2, 500*sim.Microsecond, 100*sim.Microsecond, mk(top.Addr("dst2"), 2, 20))
	m.AddFlow(3, 900*sim.Microsecond, 100*sim.Microsecond, mk(top.Addr("dst3"), 3, 10))
	top.RunFor(60 * sim.Millisecond)

	sj, err := json.Marshal(top.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var tb bytes.Buffer
	if err := top.WriteChrome(&tb); err != nil {
		t.Fatal(err)
	}
	return sj, tb.Bytes(), rx
}

// The tentpole equivalence contract at the topology layer: merged telemetry
// and merged Chrome traces are byte-identical whether the fleet shares one
// engine (legacy), runs a one-shard group, or is split across shards.
func TestShardedTopologyMatchesLegacy(t *testing.T) {
	refSnap, refChrome, refRx := pacedStar(t, 0)
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			snap, chrome, rx := pacedStar(t, shards)
			for name, want := range refRx {
				if rx[name] != want {
					t.Errorf("%s received %d packets, legacy received %d", name, rx[name], want)
				}
			}
			if !bytes.Equal(snap, refSnap) {
				t.Errorf("merged telemetry diverged from legacy (%d vs %d bytes)", len(snap), len(refSnap))
			}
			if !bytes.Equal(chrome, refChrome) {
				t.Errorf("merged Chrome trace diverged from legacy (%d vs %d bytes)", len(chrome), len(refChrome))
			}
		})
	}
}

// Sharded assembly details: round-robin placement, shard clamping and
// custom Assign.
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

	spec.Shards = 2
	spec.Assign = func(i int, name string) int {
		if name == "c" {
			return 0
		}
		return i % 2
	}
	top = Build(spec)
	if got := top.HostShard("c"); got != 0 {
		t.Fatalf("Assign ignored: host c on shard %d, want 0", got)
	}

	// Out-of-range assignment is an assembly bug.
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range shard assignment")
		}
	}()
	Build(Spec{
		Seed:   1,
		Hosts:  []HostSpec{{Name: "x"}},
		Shards: 1,
		Assign: func(int, string) int { return 5 },
	})
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
	src.NIC().TxFromKernel(
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
	legacy, sharded := draw(0), draw(2)
	for i := range legacy {
		if legacy[i] != sharded[i] {
			t.Fatalf("draw %d diverged: legacy %d, sharded %d", i, legacy[i], sharded[i])
		}
	}
}
