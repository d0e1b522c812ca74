package experiments

// Hierarchical fleet experiment: the fleet-scale sweep rebuilt on a
// leaf–spine fabric instead of one flat switch, with connection churn.
// Clients spread across leaf switches (~8 per leaf); cross-leaf traffic
// transits the spine over cut-through trunks, and every leaf — switch,
// members, trunks — is shard-local under sharded execution, so only the
// spine hop pays conservative-sync rounds. Churned clients go dormant and
// rejoin with fresh flows, turning the server's connection table over the
// way a real fleet would.
//
// The claim under test is unchanged from the flat sweep: the soft-timer
// delay bound (hardclock period + one measurement tick) holds on every
// host, now across multi-hop paths and a churning population. The topology
// is the scaling vehicle toward very large fleets: at 8 hosts per leaf a
// 100k-client fleet is ~12.5k leaves, each an independent shard-local
// island, so engines scale with the leaf count and cross-shard traffic
// only with the spine's.

import (
	"fmt"

	"softtimers/internal/metrics"
)

// hierCounts is the default client-count sweep. Smaller than the flat
// fleet's: each client is identical, and the interesting axis here is the
// leaf/spine structure, not raw population.
var hierCounts = []int{4, 16, 64}

// hierLeaves sizes the leaf tier for n clients: ~8 members per leaf, at
// least two leaves once there is anything to spread (a one-leaf fabric
// never exercises the spine).
func hierLeaves(n int) int {
	leaves := (n + 7) / 8
	if leaves < 2 && n >= 2 {
		leaves = 2
	}
	if leaves < 1 {
		leaves = 1
	}
	return leaves
}

// FleetHierRow is one hierarchical fleet size's measurements.
type FleetHierRow struct {
	Hosts      int // client hosts (the server rides leaf 0)
	Leaves     int
	Throughput float64
	Completed  int64
	SrvBusy    float64
	// Churns is the fleet-wide count of client dormancy periods taken.
	Churns int64
	// SpineFwd counts packets the spine forwarded down a leaf trunk —
	// the cross-leaf traffic volume.
	SpineFwd int64
	// Probe delay across every host, asserted against the §3 bound.
	Probes     int64
	WorstDelay float64 // µs
	BoundUS    float64
	BoundOK    bool
	WallMS     float64 `json:"-"`
}

// FleetHierResult is the hierarchical fleet sweep.
type FleetHierResult struct {
	Rows      []FleetHierRow
	Shards    int
	Telemetry *metrics.Snapshot
}

// fleetHierRow builds and measures one hierarchical fleet size: the
// server is fabric member 0 and the clients follow, spread round-robin
// over hierLeaves(n) leaves, every leaf on one shard.
func fleetHierRow(sc Scale, salt uint64, n, traceCap int) (FleetHierRow, fleetMeasure) {
	leaves := hierLeaves(n)
	r, m := runFleet(sc, salt, fleetCfg{
		label:    fmt.Sprintf("fleet-hier n=%d", n),
		clients:  n,
		nameFmt:  "client%03d",
		leaves:   leaves,
		churn:    3,
		traceCap: traceCap,
	})
	row := FleetHierRow{
		Hosts:      n,
		Leaves:     leaves,
		Completed:  m.completed,
		Throughput: float64(m.completed) / m.elapsed.Seconds(),
		SrvBusy:    m.srvBusy,
		SpineFwd:   r.t.Fabrics()[0].Spine.Forwarded(),
		Probes:     m.probes,
		WorstDelay: m.worstUS,
		BoundUS:    m.boundUS,
		BoundOK:    m.boundOK,
		WallMS:     m.wallMS,
	}
	for _, ch := range r.clients {
		row.Churns += ch.Churns
	}
	return row, m
}

// RunFleetHier sweeps the hierarchical fleet (sc.FleetCounts overrides the
// default 4/16/64). Rows are independent simulations, parallel across
// sc.Workers and sharded across up to sc.Shards engines, with
// byte-identical output at any setting.
func RunFleetHier(sc Scale) *FleetHierResult {
	counts := sc.FleetCounts
	if counts == nil {
		counts = hierCounts
	}
	rows := make([]FleetHierRow, len(counts))
	snaps := make([]*metrics.Snapshot, len(counts))
	forEach(sc.Workers, len(counts), func(i int) {
		var m fleetMeasure
		rows[i], m = fleetHierRow(sc, 400+uint64(i), counts[i], 0)
		snaps[i] = m.snap
	})
	return &FleetHierResult{Rows: rows, Shards: sc.Shards, Telemetry: mergeTelemetry(snaps)}
}

// Table renders the hierarchical fleet sweep.
func (r *FleetHierResult) Table() *Table {
	t := &Table{
		Title: "Hierarchical fleet — leaf-spine fabric, churning clients",
		Columns: []string{"clients", "leaves", "resp/s", "completed", "srv busy",
			"churns", "spine fwd", "probes", "worst d (us)", "bound (us)", "bound holds"},
		Metrics: map[string]float64{},
	}
	for _, row := range r.Rows {
		ok := "yes"
		if !row.BoundOK {
			ok = "NO"
		}
		t.Rows = append(t.Rows, []string{
			f0(float64(row.Hosts)), f0(float64(row.Leaves)),
			f0(row.Throughput), f0(float64(row.Completed)), pct(row.SrvBusy),
			f0(float64(row.Churns)), f0(float64(row.SpineFwd)),
			f0(float64(row.Probes)), f0(row.WorstDelay), f0(row.BoundUS), ok,
		})
		key := fmt.Sprintf("fleethier_%d", row.Hosts)
		t.Metrics[key+"_throughput"] = row.Throughput
		t.Metrics[key+"_worst_delay_us"] = row.WorstDelay
		t.Metrics[key+"_churns"] = float64(row.Churns)
		t.Metrics[key+"_wall_ms"] = row.WallMS
	}
	t.Notes = append(t.Notes,
		"clients spread ~8 per leaf; cross-leaf requests transit the spine over cut-through trunks, and every leaf is shard-local under -shards",
		fmt.Sprintf("expectation (asserted in tests): worst probe delay <= hardclock period %gus + 1 tick on every host, churn included", float64(hardclockPeriodUS)),
		"scaling: a 100k-client fleet at this shape is ~12.5k shard-local leaves; engines scale with leaves, cross-shard sync only with spine traffic")
	if r.Shards > 1 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"sharded execution: up to %d engines (clamped to the leaf count) under conservative sync; tables, telemetry and traces byte-identical to the one-shard run", r.Shards))
	}
	t.Telemetry = r.Telemetry
	return t
}
