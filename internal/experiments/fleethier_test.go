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
