package experiments

// Fleet-scale experiment: one saturated server and a growing fleet of
// client machines — each a full host with its own kernel, trigger states
// and soft-timer facility — on one switched LAN, all on a single shared
// engine. The paper's client machines were real FreeBSD hosts too; this
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
	Shards    int // engines per row (0 = legacy single engine)
	Telemetry *metrics.Snapshot
	// Sync is the conservative-sync grant telemetry (sync.* instruments),
	// merged across rows under clientsNN. prefixes; nil on single-engine
	// runs. It is deliberately separate from Telemetry: workload telemetry
	// is byte-identical across shard counts by contract, sync telemetry
	// describes the execution substrate — but for a fixed configuration it
	// is still deterministic at any worker count (stbench -sync).
	Sync *metrics.Snapshot

	rowSync []*metrics.Snapshot // per row, nil when single-engine
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

// runFleet builds and measures one fleet size: a server host and n client
// hosts joined by one switch, every machine probed for soft-timer delay.
func runFleet(sc Scale, salt uint64, n int) (FleetRow, *metrics.Snapshot) {
	row, snap, _, _ := runFleetCfg(sc, salt, n, fleetOpts{})
	return row, snap
}

// runFleetOpts is runFleet plus tracing (the property tests' entry point);
// see runFleetCfg for the full option set.
func runFleetOpts(sc Scale, salt uint64, n, traceCap int) (FleetRow, *metrics.Snapshot, []byte) {
	row, snap, _, chrome := runFleetCfg(sc, salt, n, fleetOpts{traceCap: traceCap})
	return row, snap, chrome
}

// fleetOpts widens runFleet for the property tests and ablations without
// threading more positional parameters around.
type fleetOpts struct {
	// traceCap > 0 attaches a per-host execution tracer of that capacity;
	// the merged Chrome trace comes back as the fourth return.
	traceCap int
	// scenario names a faults scenario applied to every host (each seeded
	// from (seed, name) like Spec builds, so placement cannot perturb the
	// fault streams); "" is the clean fleet.
	scenario string
}

// fnvName folds a host name into a 64-bit FNV-1a salt — the same fold
// topology Spec builds use — so per-host fault plans draw streams
// independent of host order and shard placement.
func fnvName(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// assembleFleet builds the fleet workload on an already-constructed
// topology: the saturated server, n client machines on one switched LAN,
// and a soft-timer probe on every host. Shared verbatim between the
// measured run and the auto-placement profile pass, so the profile
// observes exactly the traffic the real run will carry.
func assembleFleet(t *topology.Topology, seed uint64, n int, scenario string) (*httpserv.Server, []*host.Host) {
	var fspec *faults.Spec
	if scenario != "" {
		s := faults.MustScenario(scenario)
		fspec = &s
	}
	hostCfg := func(name string, k kernel.Options) host.Config {
		cfg := host.Config{Name: name, Kernel: k}
		if fspec != nil {
			cfg.Faults = faults.New(seed^fnvName(name), *fspec)
		}
		return cfg
	}

	server := t.AddHost(hostCfg("server", kernel.Options{IdleLoop: true}))
	sw := t.AddSwitch("lan")
	t.Join(sw, server, nic.Config{Name: "eth0"}, topology.WireSpec{})
	srv := httpserv.NewServerMulti(server.K, server.F, server.NICs,
		httpserv.Config{Kind: httpserv.Flash})
	srv.Addr = t.Addr("server")

	// Client machines: idle-halting kernels (no idle trigger states — the
	// hard case for the delay bound), interrupt-mode NICs, a few request
	// processes each. Flow bases keep connection ids globally unique.
	clients := make([]*host.Host, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("client%02d", i)
		ch := t.AddHost(hostCfg(name, kernel.Options{}))
		port := t.Join(sw, ch, nic.Config{Name: "eth0"}, topology.WireSpec{})
		httpserv.NewClientHost(ch, port.NIC, httpserv.ClientHostConfig{
			Concurrency: 4,
			FlowBase:    (i + 1) * 1_000_000,
			Segments:    srv.Segments(),
			Addr:        t.Addr(name),
			ServerAddr:  t.Addr("server"),
			// Stagger connection starts so hundreds of machines don't SYN
			// the server in the same microsecond (which would pin it in
			// interrupt context across whole hardclock periods).
			StartDelay: sim.Time(i) * 100 * sim.Microsecond,
		})
		clients[i] = ch
	}

	// Probe every host from its own (seed, name)-derived stream — not the
	// engine's, whose fork order would depend on which engine the host
	// shares with whom.
	for _, h := range t.Hosts() {
		fleetProbe(h, h.Rand())
	}
	return srv, clients
}

// fleetAutoAssign is the auto-placement profile pass: replay the same
// fleet single-engine for a quarter warmup, then spread hosts over shards
// by observed traffic (topology.PlaceByTraffic). The profile is itself a
// deterministic simulation, so the placement — and with it the sharded
// round schedule — is a pure function of the scale, not of the machine.
func fleetAutoAssign(sc Scale, seed uint64, n, shards int, scenario string) func(int, string) int {
	t := topology.New(sim.NewEngine(seed))
	t.SetSeed(seed)
	srv, _ := assembleFleet(t, seed, n, scenario)
	t.Start()
	srv.Start()
	t.RunFor(sc.Warmup / 4)
	names := make([]string, 0, len(t.Hosts()))
	for _, h := range t.Hosts() {
		names = append(names, h.Name)
	}
	return topology.PlaceByTraffic(names, t.TrafficByHost(), shards)
}

// runFleetCfg is runFleet plus tracing, fault scenarios, and the sync
// telemetry return (see fleetOpts).
//
// sc.Shards > 0 runs the topology on that many conservative-sync engines
// (clamped to the host count). The default static placement gives the
// server shard 0 — so its construction-time RNG forks replay exactly as
// on the legacy shared engine, which is seeded identically — and
// round-robins clients across the rest; sc.Placement == PlacementAuto
// derives the assignment from a traffic profile instead. Lookahead mining
// is on unless sc.NoMining. None of these knobs change results — only
// wall clock and the sync snapshot.
func runFleetCfg(sc Scale, salt uint64, n int, opt fleetOpts) (FleetRow, *metrics.Snapshot, *metrics.Snapshot, []byte) {
	seed := sc.Seed + salt
	var t *topology.Topology
	if sc.Shards > 0 {
		shards := sc.Shards
		if shards > n+1 {
			shards = n + 1
		}
		g := sim.NewShardGroup(shards, seed)
		g.SetMining(!sc.NoMining)
		t = topology.NewSharded(g, seed)
		switch sc.Placement {
		case "", PlacementStatic:
			t.Assign = func(i int, name string) int {
				if i == 0 || shards == 1 {
					return 0
				}
				return 1 + (i-1)%(shards-1)
			}
		case PlacementAuto:
			t.Assign = fleetAutoAssign(sc, seed, n, shards, opt.scenario)
		default:
			panic(fmt.Sprintf("experiments: unknown placement %q", sc.Placement))
		}
	} else {
		t = topology.New(sim.NewEngine(seed))
		t.SetSeed(seed)
	}

	srv, clients := assembleFleet(t, seed, n, opt.scenario)
	server := t.Host("server")
	traceCap := opt.traceCap
	if traceCap > 0 {
		t.EnableTracing(traceCap)
	}
	t.Start()
	srv.Start()

	// Shorter windows than the single-rig experiments: event volume grows
	// with fleet size, and the sweep multiplies it again.
	warmup, measure := sc.Warmup/4, sc.Measure/4
	t.RunFor(warmup)
	c0 := srv.Completed
	a0 := server.K.Accounting()
	t0 := t.Now()
	wall0 := time.Now()
	runMeasured(sc, fmt.Sprintf("fleet-scale n=%d", n), t, measure)
	wallMS := float64(time.Since(wall0).Microseconds()) / 1000
	c1 := srv.Completed
	a1 := server.K.Accounting()
	elapsed := t.Now() - t0

	row := FleetRow{
		Hosts:      n,
		Completed:  c1 - c0,
		Throughput: float64(c1-c0) / elapsed.Seconds(),
		SrvBusy:    float64(a1.Busy()-a0.Busy()) / float64(elapsed),
		SrvUser:    float64(a1.User-a0.User) / float64(elapsed),
		SrvKernel:  float64(a1.Kernel-a0.Kernel) / float64(elapsed),
		SrvIntr:    float64(a1.Intr-a0.Intr) / float64(elapsed),
		SrvSoftIRQ: float64(a1.SoftIRQ-a0.SoftIRQ) / float64(elapsed),
		BoundUS:    hardclockPeriodUS + 1,
		WallMS:     wallMS,
	}
	for i, ch := range clients {
		m := ch.K.Meter().Hist.Mean()
		if i == 0 || m < row.ClientTrigMinUS {
			row.ClientTrigMinUS = m
		}
		if m > row.ClientTrigMaxUS {
			row.ClientTrigMaxUS = m
		}
	}
	// The delay bound must hold per host: check each machine's facility,
	// not a fleet-wide aggregate that could hide one bad kernel.
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
	return row, t.Snapshot(), t.SyncSnapshot(), chrome
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
	syncs := make([]*metrics.Snapshot, len(counts))
	forEach(sc.Workers, len(counts), func(i int) {
		rows[i], snaps[i], syncs[i], _ = runFleetCfg(sc, 300+uint64(i), counts[i], fleetOpts{})
	})
	r := &FleetResult{Rows: rows, Shards: sc.Shards, Telemetry: mergeTelemetry(snaps), rowSync: syncs}
	prefixed := make([]*metrics.Snapshot, len(counts))
	for i, s := range syncs {
		if s != nil {
			prefixed[i] = s.Prefixed(fmt.Sprintf("clients%02d.", counts[i]))
		}
	}
	r.Sync = mergeTelemetry(prefixed)
	return r
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
	for i, row := range r.Rows {
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
		// Sync headline numbers ride the machine-readable -json record only
		// (like WallMS): they are deterministic per configuration but vary
		// with shard count by nature, so they stay out of the rendered
		// table and the -metrics telemetry, which diff across shard counts.
		if i < len(r.rowSync) && r.rowSync[i] != nil {
			s := r.rowSync[i]
			t.Metrics[key+"_sync_rounds"] = float64(s.Counters["sync.rounds"])
			t.Metrics[key+"_sync_messages"] = float64(s.Counters["sync.messages"])
			if h, ok := s.Histograms["sync.grant_width_us"]; ok && h.Count > 0 {
				t.Metrics[key+"_sync_grant_mean_us"] = h.Sum / float64(h.Count)
			}
			if h, ok := s.Histograms["sync.mined_gain_us"]; ok && h.Count > 0 {
				t.Metrics[key+"_sync_mined_gain_mean_us"] = h.Sum / float64(h.Count)
			}
		}
	}
	t.Notes = append(t.Notes,
		"every machine is a full host (own kernel, facility, probe); clients halt when idle, so their soft timers lean on the hardclock backstop",
		fmt.Sprintf("expectation (asserted in tests): worst probe delay <= hardclock period %gus + 1 tick on every host", float64(hardclockPeriodUS)))
	if r.Shards > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"sharded execution: each row ran on up to %d engines under conservative sync; tables, telemetry and traces are byte-identical to the single-engine path (wall time in -json metrics)", r.Shards))
	}
	t.Telemetry = r.Telemetry
	t.Sync = r.Sync
	return t
}
