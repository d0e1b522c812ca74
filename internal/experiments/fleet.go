package experiments

// Fleet-scale experiment: one saturated server and a growing fleet of
// client machines — each a full host with its own kernel, trigger states
// and soft-timer facility — on one switched LAN, on one engine unless
// sharded. The paper's client machines were real FreeBSD hosts too; this
// sweep makes the multi-node claim measurable: the soft-timer delay bound
// (hardclock period + one measurement tick) must hold on every host in the
// topology, including nearly-idle clients whose CPUs halt between requests
// and therefore see almost no trigger states.

import (
	"bytes"
	"fmt"
	"time"

	"softtimers/internal/faults"
	"softtimers/internal/host"
	"softtimers/internal/httpserv"
	"softtimers/internal/kernel"
	"softtimers/internal/metrics"
	"softtimers/internal/nic"
	"softtimers/internal/sim"
	"softtimers/internal/topology"
)

// fleetCounts is the client-host sweep (1 → 64 machines).
var fleetCounts = []int{1, 2, 4, 8, 16, 32, 64}

// FleetRow is one fleet size's measurements.
type FleetRow struct {
	Hosts      int
	Throughput float64 // aggregate responses/s (server view)
	Completed  int64
	// Server CPU split over the measurement window.
	SrvBusy, SrvUser, SrvKernel, SrvIntr, SrvSoftIRQ float64
	// Client trigger-interval distribution: the per-host mean interval's
	// range across the fleet, µs.
	ClientTrigMinUS, ClientTrigMaxUS float64
	// Probe delay across every host (server included): N probes and the
	// worst observed delay, which the bound is asserted against.
	Probes     int64
	WorstDelay float64 // µs, max over hosts of softtimer.overshoot_max_us
	BoundUS    float64 // the per-host bound: hardclock period + 1 tick
	BoundOK    bool
	// WallMS is the real time the measure window took — the sharding
	// speedup metric. It is reported via Table.Metrics only (never in the
	// rendered table or telemetry, which stay byte-deterministic).
	WallMS float64 `json:"-"`
}

// FleetResult is the fleet-scale sweep.
type FleetResult struct {
	Rows      []FleetRow
	Shards    int // engines requested per row (clamped to the row's host count)
	Telemetry *metrics.Snapshot
}

// fleetProbe keeps one probe soft-timer event outstanding on a host,
// re-armed at random exponential gaps, exactly like the degradation probe
// rig — so DelayHist and the overshoot gauge are populated on hosts whose
// workload alone would schedule no soft timers.
// All three closures are created once per host: the steady-state cycle —
// engine timer fires, pooled soft event scheduled, handler re-arms —
// allocates nothing, which is what keeps large fleets' allocation volume
// flat (the fleet rows are the allocs/op regression guard's subject).
func fleetProbe(h *host.Host, rng *sim.RNG) {
	eng := h.Engine()
	var fire func()
	handler := func(now sim.Time) sim.Time {
		eng.After(rng.ExpTime(300*sim.Microsecond), fire)
		return 0
	}
	fire = func() { h.F.ScheduleSoftEventFree(probeT, handler) }
	eng.After(rng.ExpTime(300*sim.Microsecond), fire)
}

// runMeasured advances t by the measure window. With sc.Progress set it
// runs in eight chunks, reporting the label, virtual clock and fired-event
// count after each; RunFor composes, so chunking changes nothing but the
// callbacks.
func runMeasured(sc Scale, label string, t *topology.Topology, measure sim.Time) {
	if sc.Progress == nil {
		t.RunFor(measure)
		return
	}
	const chunks = 8
	step := measure / chunks
	var done sim.Time
	for i := 0; i < chunks-1 && step > 0; i++ {
		t.RunFor(step)
		done += step
		sc.Progress(label, t.Now(), t.Fired())
	}
	t.RunFor(measure - done)
	sc.Progress(label, t.Now(), t.Fired())
}

// fleetCfg declares one fleet row: a Flash server and clients client
// machines on one switched LAN or a leaf-spine fabric, every host probed
// for soft-timer delay. The three fleet experiments differ only here.
type fleetCfg struct {
	label   string // progress label, e.g. "fleet-scale n=8"
	clients int
	nameFmt string // client host names by index, e.g. "client%02d"
	// leaves > 0 puts every host on a leaf-spine fabric "dc" of that many
	// leaves (the server is member 0); 0 joins them to one switch "lan".
	leaves int
	churn  int // ClientHostConfig.ChurnEvery; 0 disables churn
	// scenario names a faults scenario applied to every host (each seeded
	// from (seed, name) by Build, so placement cannot perturb the fault
	// streams); "" is the clean fleet.
	scenario string
	// traceCap > 0 attaches a per-host execution tracer of that capacity;
	// the merged Chrome trace comes back in fleetMeasure.chrome.
	traceCap int
	// wire, when set, runs after the server, clients and probes are
	// attached and before Start: per-row observability (fleet-trace's
	// flow sampling and series).
	wire func(*fleetRig)
}

// fleetRig is one assembled fleet.
type fleetRig struct {
	t       *topology.Topology
	srv     *httpserv.Server
	clients []*httpserv.ClientHost
}

// fleetMeasure is one fleet row's measured window: server throughput and
// CPU split, the §4 delay bound checked on every host, the merged
// telemetry, and the Chrome trace when tracing was on.
type fleetMeasure struct {
	completed int64
	elapsed   sim.Time
	wallMS    float64

	// The server's CPU split, as fractions of the window.
	srvBusy, srvUser, srvKernel, srvIntr, srvSoftIRQ float64

	probes  int64   // probe firings on every host
	worstUS float64 // worst probe delay over hosts
	boundUS float64 // hardclock period + 1 tick
	boundOK bool    // every host held the bound

	snap   *metrics.Snapshot
	chrome []byte
}

// runFleet builds one fleet row from a topology.Spec — sc.Shards engines,
// seeded sc.Seed+salt — attaches the Flash server, the client machines and
// every host's probe, runs the warmup and the measured window (quarter
// windows: event volume grows with fleet size, and the sweeps multiply
// it again) and reads the measurements.
func runFleet(sc Scale, salt uint64, c fleetCfg) (*fleetRig, fleetMeasure) {
	seed := sc.Seed + salt
	var fspec *faults.Spec
	if c.scenario != "" {
		s := faults.MustScenario(c.scenario)
		fspec = &s
	}
	names := make([]string, c.clients+1)
	names[0] = "server"
	hosts := []topology.HostSpec{{Name: "server", Kernel: kernel.Options{IdleLoop: true}, Faults: fspec}}
	for i := 1; i < len(names); i++ {
		names[i] = fmt.Sprintf(c.nameFmt, i-1)
		// Zero kernel options halt an idle CPU: clients see few trigger
		// states and lean on the hardclock backstop — the hard case for
		// the delay bound.
		hosts = append(hosts, topology.HostSpec{Name: names[i], Faults: fspec})
	}
	spec := topology.Spec{Seed: seed, Hosts: hosts, Shards: sc.Shards}
	eth0 := nic.Config{Name: "eth0"}
	if c.leaves > 0 {
		// A leaf is the unit of shard placement, so more shards than
		// leaves would idle.
		spec.Shards = min(spec.Shards, c.leaves)
		spec.Fabrics = []topology.FabricSpec{{Name: "dc", Leaves: c.leaves, Members: names, NIC: eth0}}
	} else {
		spec.Switches = []topology.SwitchSpec{{Name: "lan", Members: names, NIC: eth0}}
	}

	r := &fleetRig{t: topology.Build(spec)}
	t := r.t
	server := t.Host("server")
	r.srv = httpserv.NewServerMulti(server.K, server.F, server.NICs, httpserv.Config{Kind: httpserv.Flash})
	r.srv.Addr = t.Addr("server")
	for i, name := range names[1:] {
		h := t.Host(name)
		r.clients = append(r.clients, httpserv.NewClientHost(h, t.Ports(h)[0].NIC, httpserv.ClientHostConfig{
			Concurrency: 4,
			FlowBase:    (i + 1) * 1_000_000, // globally unique connection ids
			Segments:    r.srv.Segments(),
			Addr:        t.Addr(name),
			ServerAddr:  r.srv.Addr,
			// Stagger connection starts so hundreds of machines don't SYN
			// the server in the same microsecond (which would pin it in
			// interrupt context across whole hardclock periods).
			StartDelay: sim.Time(i) * 100 * sim.Microsecond,
			// Churn: every churn-th response the slot goes dormant for the
			// base-off period plus an exponential draw from the host's
			// private stream — shard-count invariant by construction.
			ChurnEvery: c.churn,
		}))
	}
	// Probe every host from its own (seed, name)-derived stream — not an
	// engine's, whose draws would depend on which hosts share it.
	for _, h := range t.Hosts() {
		fleetProbe(h, h.Rand())
	}
	if c.wire != nil {
		c.wire(r)
	}
	if c.traceCap > 0 {
		t.EnableTracing(c.traceCap)
	}
	t.Start()
	r.srv.Start()

	t.RunFor(sc.Warmup / 4)
	c0 := r.srv.Completed
	a0 := server.K.Accounting()
	t0 := t.Now()
	wall0 := time.Now()
	runMeasured(sc, c.label, t, sc.Measure/4)
	m := fleetMeasure{wallMS: float64(time.Since(wall0).Microseconds()) / 1000}
	a1 := server.K.Accounting()
	m.completed = r.srv.Completed - c0
	m.elapsed = t.Now() - t0
	frac := func(d sim.Time) float64 { return float64(d) / float64(m.elapsed) }
	m.srvBusy = frac(a1.Busy() - a0.Busy())
	m.srvUser = frac(a1.User - a0.User)
	m.srvKernel = frac(a1.Kernel - a0.Kernel)
	m.srvIntr = frac(a1.Intr - a0.Intr)
	m.srvSoftIRQ = frac(a1.SoftIRQ - a0.SoftIRQ)

	// The delay bound must hold per host: check each machine's facility,
	// not a fleet-wide aggregate that could hide one bad kernel.
	m.boundUS = hardclockPeriodUS + 1
	m.boundOK = true
	for _, h := range t.Hosts() {
		m.probes += h.F.DelayHist.N()
		d := float64(h.F.MaxDelayUS())
		m.worstUS = max(m.worstUS, d)
		if d > m.boundUS {
			m.boundOK = false
		}
	}
	if c.traceCap > 0 {
		var buf bytes.Buffer
		if err := t.WriteChrome(&buf); err != nil {
			panic(err)
		}
		m.chrome = buf.Bytes()
	}
	m.snap = t.Snapshot()
	return r, m
}

// fleetScaleRow measures one flat-switch fleet size.
func fleetScaleRow(sc Scale, salt uint64, n int, scenario string, traceCap int) (FleetRow, fleetMeasure) {
	r, m := runFleet(sc, salt, fleetCfg{
		label:    fmt.Sprintf("fleet-scale n=%d", n),
		clients:  n,
		nameFmt:  "client%02d",
		scenario: scenario,
		traceCap: traceCap,
	})
	row := FleetRow{
		Hosts:      n,
		Completed:  m.completed,
		Throughput: float64(m.completed) / m.elapsed.Seconds(),
		SrvBusy:    m.srvBusy,
		SrvUser:    m.srvUser,
		SrvKernel:  m.srvKernel,
		SrvIntr:    m.srvIntr,
		SrvSoftIRQ: m.srvSoftIRQ,
		Probes:     m.probes,
		WorstDelay: m.worstUS,
		BoundUS:    m.boundUS,
		BoundOK:    m.boundOK,
		WallMS:     m.wallMS,
	}
	for i, ch := range r.clients {
		mean := ch.H.K.Meter().Hist.Mean()
		if i == 0 || mean < row.ClientTrigMinUS {
			row.ClientTrigMinUS = mean
		}
		row.ClientTrigMaxUS = max(row.ClientTrigMaxUS, mean)
	}
	return row, m
}

// RunFleetScale sweeps the client-host count (sc.FleetCounts, default
// 1..64). Rows are independent simulations seeded from (sc.Seed, row
// index), so they parallelize across sc.Workers — and shard internally
// across sc.Shards engines — with byte-identical output at any setting.
func RunFleetScale(sc Scale) *FleetResult {
	counts := sc.FleetCounts
	if counts == nil {
		counts = fleetCounts
	}
	rows := make([]FleetRow, len(counts))
	snaps := make([]*metrics.Snapshot, len(counts))
	forEach(sc.Workers, len(counts), func(i int) {
		var m fleetMeasure
		rows[i], m = fleetScaleRow(sc, 300+uint64(i), counts[i], "", 0)
		snaps[i] = m.snap
	})
	return &FleetResult{Rows: rows, Shards: sc.Shards, Telemetry: mergeTelemetry(snaps)}
}

// Table renders the fleet sweep.
func (r *FleetResult) Table() *Table {
	t := &Table{
		Title: "Fleet scale — one server, N real client kernels on a switched LAN",
		Columns: []string{"clients", "resp/s", "completed", "srv busy", "srv user",
			"srv kernel", "srv intr", "srv softirq", "client trig mean (us)",
			"probes", "worst d (us)", "bound (us)", "bound holds"},
		Metrics: map[string]float64{},
	}
	for _, row := range r.Rows {
		trig := fmt.Sprintf("%s..%s", f0(row.ClientTrigMinUS), f0(row.ClientTrigMaxUS))
		ok := "yes"
		if !row.BoundOK {
			ok = "NO"
		}
		t.Rows = append(t.Rows, []string{
			f0(float64(row.Hosts)), f0(row.Throughput), f0(float64(row.Completed)),
			pct(row.SrvBusy), pct(row.SrvUser), pct(row.SrvKernel),
			pct(row.SrvIntr), pct(row.SrvSoftIRQ), trig,
			f0(float64(row.Probes)), f0(row.WorstDelay), f0(row.BoundUS), ok,
		})
		key := fmt.Sprintf("fleet_%d", row.Hosts)
		t.Metrics[key+"_throughput"] = row.Throughput
		t.Metrics[key+"_worst_delay_us"] = row.WorstDelay
		t.Metrics[key+"_wall_ms"] = row.WallMS
	}
	t.Notes = append(t.Notes,
		"every machine is a full host (own kernel, facility, probe); clients halt when idle, so their soft timers lean on the hardclock backstop",
		fmt.Sprintf("expectation (asserted in tests): worst probe delay <= hardclock period %gus + 1 tick on every host", float64(hardclockPeriodUS)))
	if r.Shards > 1 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"sharded execution: each row ran on up to %d engines under conservative sync; tables, telemetry and traces are byte-identical to the one-shard run (wall time in -json metrics)", r.Shards))
	}
	t.Telemetry = r.Telemetry
	return t
}
