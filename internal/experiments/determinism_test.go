package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"softtimers/internal/core"
	"softtimers/internal/kernel"
	"softtimers/internal/netstack"
	"softtimers/internal/sim"
	"softtimers/internal/topology"
)

// detRun runs one configuration at sc.Shards engines and returns every
// result artifact as comparable bytes, keyed by what it is (row,
// telemetry, chrome, ...). It fails t on a degenerate run.
type detRun func(t *testing.T, sc Scale) map[string][]byte

// TestShardCountDeterminism is the sharding contract in one matrix: every
// configuration's row, merged telemetry and merged Chrome trace (fleet-trace
// adds series and spans; the topology rigs add per-host receive counts) at
// N shards equal its shards=1 run byte for byte. The shards=1 run is the
// reference because a one-shard group is a bare engine:
// TestShardGroupSingleShardMatchesEngine and
// TestShardGroupMatchesSingleEngineReference pin that in internal/sim.
// Shard counts past a rig's host (or leaf) count clamp, and fleet-scale-6's
// shards=0 cell checks that zero means one shard. A cell is a shard
// count only: one fleet row runs on its caller's goroutine whatever
// Scale.Workers says (only the Run* sweeps spread rows over workers, which
// TestFleetScaleDeterministic and TestParallelRunMatchesSerialByteForByte
// check).
func TestShardCountDeterminism(t *testing.T) {
	for _, c := range []struct {
		name   string
		run    detRun
		shards []int
	}{
		{"fleet-scale-6", fleetScaleCase(6, 777, "", 4096), []int{0, 2, 4, 8}},
		{"fleet-scale-8-clean", fleetScaleCase(8, 777, "", 4096), []int{4, 8}},
		{"fleet-scale-8-hostile", fleetScaleCase(8, 777, "hostile", 4096), []int{4, 8}},
		// 64 clients behind one switch share the default 30 µs link delay,
		// so the saturated server constantly sees several packets — and its
		// own timers — due at the same nanosecond: an executor that orders
		// same-instant cross-shard arrivals differently diverges here while
		// passing on small fleets.
		{"fleet-scale-64", fleetScaleCase(64, 306, "", 0), []int{4}},
		{"fleet-hier-12", fleetHierCase(12, 881, 4096), []int{2, 8}}, // 2 leaves
		{"fleet-trace-16", func(t *testing.T, sc Scale) map[string][]byte {
			return fleetTraceBytes(t, runFleetTrace(sc, 421, 16, true))
		}, []int{2, 8}},
		{"paced-star", pacedStar, []int{2, 4, 8}},
		{"fabric-3leaf", fabricRun, []int{2, 3, 8}},
	} {
		t.Run(c.name, func(t *testing.T) {
			sc := tinyScale()
			sc.Shards = 1
			ref := c.run(t, sc)
			for _, n := range c.shards {
				t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
					sc := tinyScale()
					sc.Shards = n
					sameArtifacts(t, c.run(t, sc), ref)
				})
			}
		})
	}
}

// sameArtifacts fails t for every artifact of ref that got does not
// reproduce byte for byte.
func sameArtifacts(t *testing.T, got, ref map[string][]byte) {
	t.Helper()
	for label, want := range ref {
		if !bytes.Equal(got[label], want) {
			t.Errorf("%s diverged from the reference run (%d vs %d bytes)", label, len(got[label]), len(want))
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fleetScaleCase is one flat-switch fleet row. Rows keep WallMS out of
// their JSON: real time is the one legitimately shard-dependent field.
func fleetScaleCase(n int, salt uint64, scenario string, traceCap int) detRun {
	return func(t *testing.T, sc Scale) map[string][]byte {
		row, m := fleetScaleRow(sc, salt, n, scenario, traceCap)
		// Under the hostile scenario the tiny fleet legitimately completes
		// nothing — the row is still a full comparison object.
		if row.Probes == 0 || (scenario == "" && row.Completed == 0) {
			t.Fatalf("degenerate row: %+v", row)
		}
		return map[string][]byte{"row": mustJSON(t, row), "telemetry": mustJSON(t, m.snap), "chrome": m.chrome}
	}
}

// fleetHierCase is one leaf-spine fleet row: churning clients, multi-hop
// spine paths.
func fleetHierCase(n int, salt uint64, traceCap int) detRun {
	return func(t *testing.T, sc Scale) map[string][]byte {
		row, m := fleetHierRow(sc, salt, n, traceCap)
		if row.Probes == 0 || row.Completed == 0 || row.Churns == 0 || row.SpineFwd == 0 {
			t.Fatalf("degenerate row (no churn or no spine traffic?): %+v", row)
		}
		return map[string][]byte{"row": mustJSON(t, row), "telemetry": mustJSON(t, m.snap), "chrome": m.chrome}
	}
}

// fleetTraceBytes renders every observability output of one traced fleet
// — row, merged telemetry, per-host/fleet series, exported spans, Chrome
// trace with flow arrows — as comparable bytes.
func fleetTraceBytes(t *testing.T, r fleetTraceRun) map[string][]byte {
	t.Helper()
	if r.row.SampledFlows == 0 || r.row.Spans == 0 || r.row.Decomposed == 0 {
		t.Fatalf("traced nothing: %+v", r.row)
	}
	return map[string][]byte{
		"row":       mustJSON(t, r.row),
		"telemetry": mustJSON(t, r.snap),
		"series":    mustJSON(t, r.series),
		"spans":     mustJSON(t, r.spans),
		"chrome":    r.chrome,
	}
}

// topologyBytes renders a topology rig's merged telemetry, merged Chrome
// trace and per-host receive counts.
func topologyBytes(t *testing.T, top *topology.Topology, rx map[string]int) map[string][]byte {
	t.Helper()
	for name, n := range rx {
		if n == 0 {
			t.Fatalf("%s received nothing", name)
		}
	}
	var chrome bytes.Buffer
	if err := top.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"rx": mustJSON(t, rx), "telemetry": mustJSON(t, top.Snapshot()), "chrome": chrome.Bytes()}
}

// pacedStar is a 4-host star — one source pacing three flows through a
// soft-timer MultiPacer to three destinations — run for 60 ms.
func pacedStar(t *testing.T, sc Scale) map[string][]byte {
	names := []string{"src", "dst1", "dst2", "dst3"}
	top := topology.Build(topology.Spec{
		Seed: 4242,
		Hosts: []topology.HostSpec{
			{Name: "src", Kernel: kernel.Options{IdleLoop: true}},
			{Name: "dst1"}, {Name: "dst2"}, {Name: "dst3"},
		},
		Switches: []topology.SwitchSpec{{Name: "lan", Members: names}},
		Shards:   sc.Shards,
	})
	rx := map[string]int{}
	for _, name := range names[1:] {
		top.Ports(top.Host(name))[0].NIC.RxHandler = func(*netstack.Packet) { rx[name]++ }
	}
	top.EnableTracing(1 << 14)
	top.Start()

	src := top.Host("src")
	m := core.NewMultiPacer(src.F)
	nic := top.Ports(src)[0].NIC
	flow := func(dst string, id, n int) func(sim.Time) (sim.Time, bool) {
		sent := 0
		return func(sim.Time) (sim.Time, bool) {
			sent++
			cost := nic.TransmitNow(&netstack.Packet{
				Flow: id, Src: top.Addr("src"), Dst: top.Addr(dst), Kind: netstack.Data, Size: 1200,
			})
			return cost, sent < n
		}
	}
	m.AddFlow(1, 300*sim.Microsecond, 100*sim.Microsecond, flow("dst1", 1, 30))
	m.AddFlow(2, 500*sim.Microsecond, 100*sim.Microsecond, flow("dst2", 2, 20))
	m.AddFlow(3, 900*sim.Microsecond, 100*sim.Microsecond, flow("dst3", 3, 10))
	top.RunFor(60 * sim.Millisecond)
	return topologyBytes(t, top, rx)
}

// fabricRun is a 1-spine, 3-leaf, 7-host fabric where every host sprays
// kernel-transmitted packets at its three successors — intra- and
// cross-leaf flows both — for 20 ms.
func fabricRun(t *testing.T, sc Scale) map[string][]byte {
	names := []string{"h0", "h1", "h2", "h3", "h4", "h5", "h6"}
	hosts := []topology.HostSpec{{Name: "h0", Kernel: kernel.Options{IdleLoop: true}}}
	for _, n := range names[1:] {
		hosts = append(hosts, topology.HostSpec{Name: n})
	}
	top := topology.Build(topology.Spec{
		Seed:    777,
		Hosts:   hosts,
		Fabrics: []topology.FabricSpec{{Name: "dc", Leaves: 3, Members: names}},
		Shards:  sc.Shards,
	})
	rx := map[string]int{}
	for i, name := range names {
		top.Fabrics()[0].MemberPorts[i].NIC.RxHandler = func(*netstack.Packet) { rx[name]++ }
	}
	top.EnableTracing(1 << 14)
	top.Start()
	for i, name := range names {
		h := top.Host(name)
		for k := 1; k <= 3; k++ {
			h.NICs[0].TxFromKernel(&netstack.Packet{
				Flow: i*10 + k, Src: top.Addr(name), Dst: top.Addr(names[(i+k)%len(names)]),
				Kind: netstack.Data, Size: 600 + 100*k,
			})
		}
	}
	top.RunFor(20 * sim.Millisecond)
	return topologyBytes(t, top, rx)
}
