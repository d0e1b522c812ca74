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
	"bytes"
	"fmt"
	"time"

	"softtimers/internal/host"
	"softtimers/internal/httpserv"
	"softtimers/internal/kernel"
	"softtimers/internal/metrics"
	"softtimers/internal/nic"
	"softtimers/internal/sim"
	"softtimers/internal/topology"
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

// runFleetHier builds and measures one hierarchical fleet size.
func runFleetHier(sc Scale, salt uint64, n int) (FleetHierRow, *metrics.Snapshot) {
	row, snap, _ := runFleetHierOpts(sc, salt, n, 0)
	return row, snap
}

// runFleetHierOpts is runFleetHier plus tracing, mirroring runFleetOpts.
// The fabric constrains placement: a leaf's members must share a shard, so
// member i (the server is member 0) lands on shard (i mod leaves) mod
// shards — the same rule Spec.Build forces — and shards clamp to the leaf
// count, the fabric's maximum useful parallelism.
func runFleetHierOpts(sc Scale, salt uint64, n, traceCap int) (FleetHierRow, *metrics.Snapshot, []byte) {
	seed := sc.Seed + salt
	leaves := hierLeaves(n)
	var t *topology.Topology
	if sc.Shards > 0 {
		shards := sc.Shards
		if shards > leaves {
			shards = leaves
		}
		g := sim.NewShardGroup(shards, seed)
		t = topology.NewSharded(g, seed)
		t.Assign = func(i int, name string) int {
			return (i % leaves) % shards
		}
	} else {
		t = topology.New(sim.NewEngine(seed))
		t.SetSeed(seed)
	}

	// Hosts in member order: the server first (leaf 0, shard 0 — its
	// construction-time RNG forks replay exactly as on one engine), then
	// the clients. The member list drives the fabric's round-robin leaf
	// assignment.
	server := t.AddHost(host.Config{
		Name:   "server",
		Kernel: kernel.Options{IdleLoop: true},
	})
	members := []string{"server"}
	clientHosts := make([]*host.Host, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("client%03d", i)
		clientHosts[i] = t.AddHost(host.Config{Name: name})
		members = append(members, name)
	}
	fab := t.AddFabric(topology.FabricSpec{
		Name:    "dc",
		Leaves:  leaves,
		Members: members,
		NIC:     nic.Config{Name: "eth0"},
	})

	srv := httpserv.NewServerMulti(server.K, server.F, server.NICs,
		httpserv.Config{Kind: httpserv.Flash})
	srv.Addr = t.Addr("server")

	chs := make([]*httpserv.ClientHost, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("client%03d", i)
		port := fab.MemberPorts[i+1] // member 0 is the server
		chs[i] = httpserv.NewClientHost(clientHosts[i], port.NIC, httpserv.ClientHostConfig{
			Concurrency: 4,
			FlowBase:    (i + 1) * 1_000_000,
			Segments:    srv.Segments(),
			Addr:        t.Addr(name),
			ServerAddr:  t.Addr("server"),
			StartDelay:  sim.Time(i) * 100 * sim.Microsecond,
			// Churn: every third response the slot goes dormant for the
			// base-off period plus an exponential draw from the host's
			// private stream — shard-count invariant by construction.
			ChurnEvery: 3,
		})
	}

	for _, h := range t.Hosts() {
		fleetProbe(h, h.Rand())
	}

	if traceCap > 0 {
		t.EnableTracing(traceCap)
	}
	t.Start()
	srv.Start()

	warmup, measure := sc.Warmup/4, sc.Measure/4
	t.RunFor(warmup)
	c0 := srv.Completed
	a0 := server.K.Accounting()
	t0 := t.Now()
	wall0 := time.Now()
	runMeasured(sc, fmt.Sprintf("fleet-hier n=%d", n), t, measure)
	wallMS := float64(time.Since(wall0).Microseconds()) / 1000
	c1 := srv.Completed
	a1 := server.K.Accounting()
	elapsed := t.Now() - t0

	row := FleetHierRow{
		Hosts:      n,
		Leaves:     leaves,
		Completed:  c1 - c0,
		Throughput: float64(c1-c0) / elapsed.Seconds(),
		SrvBusy:    float64(a1.Busy()-a0.Busy()) / float64(elapsed),
		SpineFwd:   fab.Spine.Forwarded(),
		BoundUS:    hardclockPeriodUS + 1,
		WallMS:     wallMS,
	}
	for _, ch := range chs {
		row.Churns += ch.Churns
	}
	// The §3 bound must hold per host — every kernel on the fabric, not a
	// fleet-wide aggregate that could hide one bad machine.
	row.BoundOK = true
	for _, h := range t.Hosts() {
		row.Probes += h.F.DelayHist.N()
		if d := float64(h.F.MaxDelayUS()); d > row.WorstDelay {
			row.WorstDelay = d
		}
		if float64(h.F.MaxDelayUS()) > row.BoundUS {
			row.BoundOK = false
		}
	}
	var chrome []byte
	if traceCap > 0 {
		var buf bytes.Buffer
		if err := t.WriteChrome(&buf); err != nil {
			panic(err)
		}
		chrome = buf.Bytes()
	}
	return row, t.Snapshot(), chrome
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
		rows[i], snaps[i] = runFleetHier(sc, 400+uint64(i), counts[i])
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
	if r.Shards > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"sharded execution: up to %d engines (clamped to the leaf count) under conservative sync; tables, telemetry and traces byte-identical to the single-engine path", r.Shards))
	}
	t.Telemetry = r.Telemetry
	return t
}
