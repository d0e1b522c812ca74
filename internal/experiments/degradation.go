package experiments

// Graceful-degradation experiments: the paper's robustness claim (§4, §5.2,
// Table 2) exercised under the deterministic fault-injection layer. Two
// sweeps plus a named-scenario summary:
//
//   - degradation-starve sweeps the fraction of suppressed trigger-state
//     checks and measures soft-timer firing delay. Expectation: as trigger
//     states disappear, delay collapses toward the hard-timer period bound
//     (the hardclock backstop), never past it, while check overhead stays
//     within the scenario budget.
//   - degradation-loss sweeps packet-loss rate on the WAN data path under
//     a soft-timer-paced sender and measures delivered fraction and
//     goodput versus the clean baseline. Pacing is timer-driven, not
//     ack-clocked, so goodput degrades proportionally to loss — no
//     collapse.
//   - RunScenario (stbench -scenario) runs both rigs under one named
//     faults scenario and reports the headline observables.

import (
	"fmt"

	"softtimers/internal/faults"
	"softtimers/internal/host"
	"softtimers/internal/kernel"
	"softtimers/internal/metrics"
	"softtimers/internal/netstack"
	"softtimers/internal/sim"
	"softtimers/internal/tcp"
)

// probeT is the requested probe latency in measurement ticks (100 µs at
// the default 1 MHz measurement clock) — far below the 1 ms hardclock
// period, so the gap between requested and observed latency is the
// degradation signal.
const probeT = 100

// hardclockPeriodUS is the default backup-timer period the probe rig runs
// at (kernel Hz 1000), the paper's bound on soft-timer delay.
const hardclockPeriodUS = 1000

// probeStats summarizes one probe rig run.
type probeStats struct {
	N                          int64   // probes fired
	MeanUS, MedianUS           float64 // delay d = actual − T, µs
	P99US, MaxUS               float64
	HardclockShare             float64 // fraction of fires at the hardclock trigger
	Starved                    int64   // trigger checks suppressed by the plan
	OverheadFrac               float64 // soft-timer check CPU / total time
	IntrJitterNS, CPUPerturbNS int64
}

// runProbeRig measures soft-timer firing delay under a fault spec: a busy
// kernel (a process looping compute+syscall, so trigger states arrive
// every ~40 µs when unstarved) with one probe event outstanding at a time,
// scheduled at random offsets with fixed T. The per-row engine, kernel and
// plan are all seeded from (sc.Seed, salt), so rows are independent and
// byte-identically replayable.
func runProbeRig(sc Scale, salt uint64, spec faults.Spec) (probeStats, *metrics.Snapshot) {
	plan := faults.New(sc.Seed+salt, spec)
	eng := sim.NewEngine(sc.Seed + salt)
	h := host.New(eng, host.Config{Kernel: kernel.Options{IdleLoop: true}, Faults: plan})
	k, f := h.K, h.F

	var loop func(p *kernel.Proc)
	loop = func(p *kernel.Proc) {
		p.Compute(30*sim.Microsecond, func() {
			p.Syscall("io", 10*sim.Microsecond, func() { loop(p) })
		})
	}
	k.Spawn("busy", loop)
	k.Start()
	eng.RunFor(sc.Warmup)

	n := sc.Samples / 50
	if n < 400 {
		n = 400
	}
	rng := eng.Rand().Fork()
	remaining := n
	var arm func()
	arm = func() {
		if remaining == 0 {
			return
		}
		remaining--
		eng.After(rng.ExpTime(300*sim.Microsecond), func() {
			f.ScheduleSoftEvent(probeT, func(now sim.Time) sim.Time {
				arm()
				return 0
			})
		})
	}
	arm()
	deadline := eng.Now() + 600*sim.Second
	for f.DelayHist.N() < n && eng.Now() < deadline {
		eng.RunFor(50 * sim.Millisecond)
	}

	var fires int64
	for _, c := range f.FiresBySource {
		fires += c
	}
	st := f.Stats()
	snap := k.Metrics().Snapshot()
	ps := probeStats{
		N:        f.DelayHist.N(),
		MeanUS:   f.DelayHist.Mean(),
		MedianUS: f.DelayHist.Quantile(0.5),
		P99US:    f.DelayHist.Quantile(0.99),
		// Exact worst delay (the facility's high-water gauge), not a
		// bucket-interpolated quantile — the degradation bound is asserted
		// against this.
		MaxUS:        float64(snap.Gauges["softtimer.overshoot_max_us"].Max),
		Starved:      plan.TriggersStarved,
		OverheadFrac: float64(st.CheckOverhead) / float64(eng.Now()),
		IntrJitterNS: plan.IntrJitterNS,
		CPUPerturbNS: plan.CPUPerturbNS,
	}
	if fires > 0 {
		ps.HardclockShare = float64(f.FiresBySource[kernel.SrcHardClock]) / float64(fires)
	}
	return ps, snap
}

// starveFracs is the degradation-starve sweep: clean through total
// trigger-state starvation.
var starveFracs = []float64{0, 0.5, 0.9, 0.99, 1.0}

// StarveRow is one starvation fraction's measurements.
type StarveRow struct {
	Frac float64
	probeStats
}

// StarveResult is the degradation-starve sweep.
type StarveResult struct {
	// PeriodUS is the hardclock period, the paper's delay bound.
	PeriodUS float64
	// Budget is the check-overhead budget rows are held to.
	Budget float64
	Rows   []StarveRow
	// Telemetry merges every row's registry snapshot in row order.
	Telemetry *metrics.Snapshot
}

// RunDegradationStarve sweeps trigger-state starvation and measures probe
// firing delay. The paper-faithful expectation — asserted as a regression
// test, not prose — is that delay approaches but never exceeds the
// hardclock period plus one measurement tick, and check overhead stays
// within budget.
func RunDegradationStarve(sc Scale) *StarveResult {
	rows := make([]StarveRow, len(starveFracs))
	snaps := make([]*metrics.Snapshot, len(starveFracs))
	forEach(sc.Workers, len(starveFracs), func(i int) {
		ps, snap := runProbeRig(sc, uint64(i), faults.Spec{Starve: starveFracs[i]})
		rows[i] = StarveRow{Frac: starveFracs[i], probeStats: ps}
		snaps[i] = snap
	})
	return &StarveResult{
		PeriodUS:  hardclockPeriodUS,
		Budget:    faults.OverheadBudget,
		Rows:      rows,
		Telemetry: mergeTelemetry(snaps),
	}
}

// Table renders the starvation sweep.
func (r *StarveResult) Table() *Table {
	t := &Table{
		Title: "Degradation — soft-timer delay vs trigger-state starvation (probe T=100us, 1kHz backup)",
		Columns: []string{"starved", "probes", "mean d (us)", "median (us)", "p99 (us)",
			"max (us)", "hardclock share", "checks starved", "check ovh"},
		Metrics: map[string]float64{},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			pct(row.Frac), f0(float64(row.N)),
			f1(row.MeanUS), f1(row.MedianUS), f0(row.P99US), f0(row.MaxUS),
			pct(row.HardclockShare), f0(float64(row.Starved)), pct(row.OverheadFrac),
		})
		key := fmt.Sprintf("starve_%g", row.Frac)
		t.Metrics[key+"_mean_us"] = row.MeanUS
		t.Metrics[key+"_max_us"] = row.MaxUS
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("expectation (asserted in tests): max d <= hardclock period %gus + 1 tick; overhead <= %s",
			r.PeriodUS, pct(r.Budget)),
		"paper S4: when trigger states are rare, soft timers degrade to the granularity of the periodic timer")
	t.Telemetry = r.Telemetry
	return t
}

// lossRates is the degradation-loss sweep.
var lossRates = []float64{0, 0.01, 0.05, 0.1, 0.2}

// LossRow is one loss rate's measurements.
type LossRow struct {
	Rate          float64
	Sent          int64
	Delivered     int64 // unique segments that arrived
	Dups          int64 // duplicate arrivals discarded
	DeliveredFrac float64
	GoodputMbps   float64
	// VsClean is goodput relative to the zero-loss row.
	VsClean float64
}

// LossResult is the degradation-loss sweep.
type LossResult struct {
	Rows      []LossRow
	Telemetry *metrics.Snapshot
}

// runLossTransfer runs one soft-timer-paced WAN transfer with the fault
// plan installed on the data direction's bottleneck hop only (the
// request/ACK path stays clean, so every transfer starts; the pacer is
// timer-driven and needs no ACK clock). Returns unique deliveries,
// discarded duplicates, and the last arrival time.
func runLossTransfer(sc Scale, salt uint64, spec faults.Spec, packets int64) (delivered, dups int64, last sim.Time, snap *metrics.Snapshot) {
	eng := sim.NewEngine(sc.Seed + salt)
	plan := faults.New(sc.Seed+salt, spec)

	serverIn := &dispatcher{}
	clientIn := &dispatcher{}
	const bottleneckBps = 50_000_000
	wan := netstack.NewWANEmulator(eng, netstack.LANBps, bottleneckBps,
		100*sim.Millisecond, serverIn, clientIn)
	// Fault only the bottleneck hop of the data direction: the end-to-end
	// loss rate then equals the spec's per-link rate (installing on every
	// hop would compound it), and the request/ACK path stays clean so every
	// transfer starts.
	bott := wan.AtoB.Hop(wan.AtoB.Hops() - 1)
	bott.Faults = plan.Link(bott.Name)

	snd := tcp.NewSender(&tcp.EngineEnv{Eng: eng, Out: wan.AtoB}, 1, packets, true)

	reg := metrics.NewRegistry()
	snd.RegisterMetrics(reg)
	wan.AtoB.RegisterMetrics(reg)
	wan.BtoA.RegisterMetrics(reg)
	plan.RegisterMetrics(reg)

	seen := make(map[int64]bool, packets)
	clientIn.fn = func(p *netstack.Packet) {
		if p.Kind != netstack.Data {
			return
		}
		if seen[p.Seq] {
			dups++
			return
		}
		seen[p.Seq] = true
		delivered++
		last = eng.Now()
	}

	// Rate-based clocking at the bottleneck capacity, as in the Table 6/7
	// rigs: one MSS-sized packet per serialization time.
	interval := sim.Time(int64(netstack.MSS+netstack.HeaderBytes) * 8 * int64(sim.Second) / bottleneckBps)
	var tick func()
	tick = func() {
		if snd.PacedSendOne(eng.Now()) {
			eng.After(interval, tick)
		}
	}
	started := false
	serverIn.fn = func(p *netstack.Packet) {
		if p.Kind == netstack.Request && !started {
			started = true
			eng.After(interval, tick)
		}
	}
	wan.BtoA.Send(&netstack.Packet{Flow: 1, Kind: netstack.Request, Size: 300 + netstack.HeaderBytes})

	eng.RunUntil(600 * sim.Second)
	return delivered, dups, last, reg.Snapshot()
}

// RunDegradationLoss sweeps data-path packet loss under a paced transfer.
// Expectation (asserted in tests): delivered fraction tracks 1−p — the
// timer-driven transmission process keeps its rate, so goodput degrades
// linearly with loss rather than collapsing.
func RunDegradationLoss(sc Scale) *LossResult {
	packets := sc.PacerTrain / 10
	if packets < 500 {
		packets = 500
	}
	rows := make([]LossRow, len(lossRates))
	snaps := make([]*metrics.Snapshot, len(lossRates))
	forEach(sc.Workers, len(lossRates), func(i int) {
		p := lossRates[i]
		delivered, dups, last, snap := runLossTransfer(sc, 100+uint64(i), faults.Spec{Drop: p}, packets)
		row := LossRow{Rate: p, Sent: packets, Delivered: delivered, Dups: dups}
		row.DeliveredFrac = float64(delivered) / float64(packets)
		if last > 0 {
			row.GoodputMbps = float64(delivered) * netstack.MSS * 8 / last.Seconds() / 1e6
		}
		rows[i] = row
		snaps[i] = snap
	})
	if clean := rows[0].GoodputMbps; clean > 0 {
		for i := range rows {
			rows[i].VsClean = rows[i].GoodputMbps / clean
		}
	}
	return &LossResult{Rows: rows, Telemetry: mergeTelemetry(snaps)}
}

// Table renders the loss sweep.
func (r *LossResult) Table() *Table {
	t := &Table{
		Title: "Degradation — paced-transfer goodput vs data-path loss (50 Mbps bottleneck, 100 ms RTT)",
		Columns: []string{"loss", "sent", "delivered", "dup", "delivered frac",
			"goodput (Mbps)", "vs clean"},
		Metrics: map[string]float64{},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			pct(row.Rate), f0(float64(row.Sent)), f0(float64(row.Delivered)),
			f0(float64(row.Dups)), f2(row.DeliveredFrac), f2(row.GoodputMbps), f2(row.VsClean),
		})
		t.Metrics[fmt.Sprintf("loss_%g_delivered_frac", row.Rate)] = row.DeliveredFrac
	}
	t.Notes = append(t.Notes,
		"expectation (asserted in tests): delivered fraction ~= 1-p; rate-based clocking degrades linearly, no collapse")
	t.Telemetry = r.Telemetry
	return t
}

// RunScenario runs both degradation rigs under one named faults scenario
// (stbench -scenario) and reports the headline observables as metric/value
// rows. Unknown names panic; callers validate with faults.LookupScenario.
func RunScenario(sc Scale, name string) *Table {
	spec := faults.MustScenario(name)
	packets := sc.PacerTrain / 10
	if packets < 500 {
		packets = 500
	}

	var ps probeStats
	var psSnap, lossSnap *metrics.Snapshot
	var delivered, dups int64
	var last sim.Time
	forEach(sc.Workers, 2, func(i int) {
		if i == 0 {
			ps, psSnap = runProbeRig(sc, 200, spec)
		} else {
			delivered, dups, last, lossSnap = runLossTransfer(sc, 201, spec, packets)
		}
	})

	goodput := 0.0
	if last > 0 {
		goodput = float64(delivered) * netstack.MSS * 8 / last.Seconds() / 1e6
	}
	deliveredFrac := float64(delivered) / float64(packets)

	t := &Table{
		Title:   fmt.Sprintf("Scenario %q — degradation summary", name),
		Columns: []string{"metric", "value"},
		Rows: [][]string{
			{"probe delay mean (us)", f1(ps.MeanUS)},
			{"probe delay median (us)", f1(ps.MedianUS)},
			{"probe delay p99 (us)", f0(ps.P99US)},
			{"probe delay max (us)", f0(ps.MaxUS)},
			{"hardclock fire share", pct(ps.HardclockShare)},
			{"trigger checks starved", f0(float64(ps.Starved))},
			{"soft-timer check overhead", pct(ps.OverheadFrac)},
			{"intr jitter injected (ns)", f0(float64(ps.IntrJitterNS))},
			{"cpu perturbation (|ns|)", f0(float64(ps.CPUPerturbNS))},
			{"paced pkts sent", f0(float64(packets))},
			{"paced pkts delivered", f0(float64(delivered))},
			{"paced dup arrivals", f0(float64(dups))},
			{"delivered fraction", f2(deliveredFrac)},
			{"goodput (Mbps)", f2(goodput)},
		},
		Notes: []string{fmt.Sprintf(
			"spec: drop=%g dup=%g reorder=%g intr-jitter=%v coalesce=%g work-jitter=%g starve=%g budget=%s",
			spec.Drop, spec.Dup, spec.Reorder, spec.IntrJitterMax, spec.IntrCoalesce,
			spec.WorkJitter, spec.Starve, pct(faults.OverheadBudget))},
		Metrics: map[string]float64{
			"probe_delay_mean_us": ps.MeanUS,
			"probe_delay_max_us":  ps.MaxUS,
			"delivered_frac":      deliveredFrac,
			"check_overhead_frac": ps.OverheadFrac,
		},
		Telemetry: mergeTelemetry([]*metrics.Snapshot{psSnap, lossSnap}),
	}
	return t
}
