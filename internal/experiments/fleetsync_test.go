package experiments

// Tests pinning the sync-ablation contract: mining and auto placement are
// invisible in every result artifact — rows, merged telemetry, Chrome
// traces — across shard counts, worker counts, and fault scenarios, while
// the fleet-sync table itself stays deterministic and its economics obey
// the mined-grants-dominate-static theorem.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"softtimers/internal/sim"
)

// The full knob matrix against the single-engine oracle: shards {1, 4, 8}
// x workers {1, 8}, with mining on and auto placement, on the clean fleet
// AND under the hostile fault scenario. Every cell must reproduce the
// legacy row, merged telemetry, and Chrome trace byte for byte.
func TestFleetMiningAutoPlacementMatchesLegacy(t *testing.T) {
	const n, salt, traceCap = 8, 777, 4096
	for _, scenario := range []string{"", "hostile"} {
		name := "clean"
		if scenario != "" {
			name = scenario
		}
		t.Run(name, func(t *testing.T) {
			run := func(shards, workers int, placement string) (FleetRow, []byte, []byte) {
				sc := tinyScale()
				sc.Shards = shards
				sc.Workers = workers
				sc.Placement = placement
				row, snap, _, chrome := runFleetCfg(sc, salt, n, fleetOpts{traceCap: traceCap, scenario: scenario})
				row.WallMS = 0
				sj, err := json.Marshal(snap)
				if err != nil {
					t.Fatal(err)
				}
				return row, sj, chrome
			}
			refRow, refSnap, refChrome := run(0, 0, "")
			// Under the hostile scenario the tiny fleet legitimately
			// completes nothing — the row is still a full comparison object.
			if refRow.Probes == 0 || (scenario == "" && refRow.Completed == 0) {
				t.Fatalf("reference row is degenerate: %+v", refRow)
			}
			for _, c := range []struct {
				label           string
				shards, workers int
				placement       string
			}{
				{"shards=1/static", 1, 1, PlacementStatic},
				{"shards=1/auto", 1, 1, PlacementAuto},
				{"shards=4/static", 4, 1, PlacementStatic},
				{"shards=4/auto/workers=8", 4, 8, PlacementAuto},
				{"shards=8/static/workers=8", 8, 8, PlacementStatic},
				{"shards=8/auto", 8, 1, PlacementAuto},
			} {
				t.Run(c.label, func(t *testing.T) {
					row, snap, chrome := run(c.shards, c.workers, c.placement)
					if row != refRow {
						t.Errorf("row diverged from legacy:\n got %+v\nwant %+v", row, refRow)
					}
					if !bytes.Equal(snap, refSnap) {
						t.Errorf("merged telemetry diverged from legacy (%d vs %d bytes)", len(snap), len(refSnap))
					}
					if !bytes.Equal(chrome, refChrome) {
						t.Errorf("Chrome trace diverged from legacy (%d vs %d bytes)", len(chrome), len(refChrome))
					}
				})
			}
			// Mining off is the same history too, with zero mined gain.
			sc := tinyScale()
			sc.Shards = 4
			sc.NoMining = true
			row, snap, sync, _ := runFleetCfg(sc, salt, n, fleetOpts{scenario: scenario})
			row.WallMS = 0
			sj, _ := json.Marshal(snap)
			if row != refRow || !bytes.Equal(sj, refSnap) {
				t.Error("mining=off run diverged from legacy")
			}
			if g := sync.Histograms["sync.mined_gain_us"]; g.Sum != 0 {
				t.Errorf("mined gain %f with mining off, want 0", g.Sum)
			}
			if _, ok := sync.Counters["sync.mining"]; ok {
				t.Error("sync.mining flag present with mining off")
			}
		})
	}
}

// The sync telemetry itself is deterministic for a fixed shard
// configuration: a worker-pool run must dump the same sync snapshot as a
// serial one (the -sync analogue of the -metrics determinism diff).
func TestFleetSyncSnapshotWorkerDeterminism(t *testing.T) {
	run := func(workers int) []byte {
		sc := tinyScale()
		sc.Shards = 4
		sc.Workers = workers
		_, _, sync, _ := runFleetCfg(sc, 306, 16, fleetOpts{})
		sj, err := json.Marshal(sync)
		if err != nil {
			t.Fatal(err)
		}
		return sj
	}
	if serial, pooled := run(1), run(8); !bytes.Equal(serial, pooled) {
		t.Error("sync snapshot differs between serial and worker-pool runs")
	}
}

// The fleet-sync ablation: rows populated for every configuration, mined
// rows within their static twins' round budget, identical workload
// history across configurations, and a table deterministic at any
// Workers setting.
func TestRunFleetSync(t *testing.T) {
	sc := tinyScale()
	sc.FleetCounts = []int{16} // keep the ablation fleet small in tests
	res := RunFleetSync(sc)
	if res.Hosts != 64 {
		t.Fatalf("ablation ran %d hosts, want the 64 floor", res.Hosts)
	}
	if len(res.Rows) != len(fleetSyncConfigs) {
		t.Fatalf("%d rows, want %d", len(res.Rows), len(fleetSyncConfigs))
	}
	byLabel := map[string]FleetSyncRow{}
	for i, row := range res.Rows {
		if row.Rounds == 0 || row.Messages == 0 {
			t.Fatalf("row %d (%s) is empty: %+v", i, row.Label, row)
		}
		if row.GrantMeanUS <= 0 {
			t.Fatalf("row %d (%s): grant mean %.1f us", i, row.Label, row.GrantMeanUS)
		}
		if !row.Mining && row.MinedGainUS != 0 {
			t.Fatalf("row %d (%s): mined gain %.1f us with mining off", i, row.Label, row.MinedGainUS)
		}
		byLabel[row.Label] = row
	}
	for _, pair := range [][2]string{{"4sh mined", "4sh static"}, {"8sh mined", "8sh static"}} {
		mined, static := byLabel[pair[0]], byLabel[pair[1]]
		if mined.Rounds > static.Rounds {
			t.Errorf("%s took %d rounds, %s took %d; mined grants dominate static", pair[0], mined.Rounds, pair[1], static.Rounds)
		}
		if mined.Messages != static.Messages {
			t.Errorf("message count moved with mining: %d vs %d", mined.Messages, static.Messages)
		}
	}
	if res.Telemetry == nil || res.Sync == nil {
		t.Fatal("ablation carried no telemetry or sync snapshot")
	}

	// Worker-count determinism of the whole table.
	render := func(workers int) string {
		s := sc
		s.Workers = workers
		return RunFleetSync(s).Table().Render()
	}
	if a, b := render(1), render(8); a != b {
		t.Errorf("fleet-sync table differs across worker counts:\n%s\nvs\n%s", a, b)
	}
}

// Each fleet-sync configuration replays the identical workload: the
// per-config workload snapshots must be byte-identical, which is why the
// result carries one snapshot rather than a per-row list.
func TestFleetSyncWorkloadInvariant(t *testing.T) {
	sc := tinyScale()
	snaps := make([][]byte, len(fleetSyncConfigs))
	for i, cfg := range fleetSyncConfigs {
		rsc := sc
		rsc.Shards = cfg.Shards
		rsc.NoMining = !cfg.Mining
		rsc.Placement = cfg.Placement
		_, snap, _, _ := runFleetCfg(rsc, 300, 16, fleetOpts{})
		sj, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		snaps[i] = sj
	}
	for i := 1; i < len(snaps); i++ {
		if !bytes.Equal(snaps[0], snaps[i]) {
			t.Errorf("config %d (%s) workload snapshot diverged from config 0", i, fleetSyncConfigs[i].Label)
		}
	}
}

// The fleet-sync registry entry renders without carrying stale state.
func TestFleetSyncTableShape(t *testing.T) {
	sc := tinyScale()
	sc.FleetCounts = []int{16}
	tab := RunFleetSync(sc).Table()
	if len(tab.Rows) != len(fleetSyncConfigs) {
		t.Fatalf("table has %d rows, want %d", len(tab.Rows), len(fleetSyncConfigs))
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Columns) {
			t.Fatalf("row %v has %d cells, header has %d", row, len(row), len(tab.Columns))
		}
	}
	wantCols := []string{"config", "shards", "mining", "placement", "rounds",
		"msgs", "msgs/round", "grant mean (us)", "reached", "idle rounds", "mined gain (us)"}
	if !reflect.DeepEqual(tab.Columns, wantCols) {
		t.Fatalf("columns = %v", tab.Columns)
	}
	if tab.Sync == nil {
		t.Fatal("table carries no sync snapshot for -sync")
	}
	if tab.Metrics["cfg0_rounds"] == 0 {
		t.Fatal("cfg0_rounds metric missing")
	}
}

// BenchmarkFleetSharded1024 times the 1024-host fleet row per shard
// count: what eight inline shards cost over one engine at fleet scale.
func BenchmarkFleetSharded1024(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(map[int]string{1: "shards=1", 8: "shards=8"}[shards], func(b *testing.B) {
			sc := tinyScale()
			sc.Warmup = 200 * sim.Millisecond
			sc.Measure = 400 * sim.Millisecond
			sc.Shards = shards
			for i := 0; i < b.N; i++ {
				runFleet(sc, 901, 1024)
			}
		})
	}
}
