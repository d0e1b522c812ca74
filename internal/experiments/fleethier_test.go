package experiments

import "testing"

// The §3 delay bound on the hierarchical sweep: every host on the fabric —
// saturated server, churning clients, multi-hop paths — stays under
// hardclock period + 1 tick, asserted per machine.
func TestFleetHierDelayBoundPerHost(t *testing.T) {
	sc := tinyScale()
	sc.Shards = 4
	sc.FleetCounts = []int{4, 16}
	res := RunFleetHier(sc)
	for _, row := range res.Rows {
		if row.Probes == 0 {
			t.Fatalf("%d-client row fired no probes", row.Hosts)
		}
		if !row.BoundOK || row.WorstDelay > row.BoundUS {
			t.Fatalf("%d-client row: worst probe delay %.0fus exceeds bound %.0fus",
				row.Hosts, row.WorstDelay, row.BoundUS)
		}
		if row.Completed == 0 {
			t.Fatalf("%d-client row completed no responses", row.Hosts)
		}
	}
	// Per-host telemetry made it through the merge: spot-check facilities
	// at both ends of the member list.
	for _, name := range []string{"host.server", "host.client000", "host.client015"} {
		if res.Telemetry.Counters[name+".softtimer.fired"] == 0 {
			t.Fatalf("%s facility fired no events", name)
		}
	}
}

// Each shard's packet arena balances its own books: on a two-shard
// fabric, where the server's shard makes most packets and the clients'
// shard frees them, a freed packet goes back to the arena that carved it.
// So at the end of the row no arena has got back more than it handed out
// (Live >= 0), and none counts more than the packets still in flight (the
// sum over arenas). With frees kept by the releasing shard, the first
// arena reads hundreds above the sum and the second as far below zero.
func TestFleetHierArenasBalancePerShard(t *testing.T) {
	sc := SmokeScale()
	sc.Shards = 2
	r, _ := runFleet(sc, 0, fleetCfg{
		label:   "fleet-hier n=12",
		clients: 12,
		nameFmt: "client%03d",
		leaves:  hierLeaves(12),
		churn:   3,
	})
	if n := r.t.Group().N(); n != 2 {
		t.Fatalf("row ran on %d shards, want 2", n)
	}
	var inFlight int64
	for i := 0; i < 2; i++ {
		inFlight += r.t.Arena(i).Live()
	}
	for i := 0; i < 2; i++ {
		if live := r.t.Arena(i).Live(); live < 0 || live > inFlight {
			t.Errorf("shard %d arena: Live = %d, want within [0, %d in flight]", i, live, inFlight)
		}
	}
}
