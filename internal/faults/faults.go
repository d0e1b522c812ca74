// Package faults is the deterministic fault-injection layer for the
// simulated substrate. The paper's robustness claim (§4, §5.2, Table 2) is
// that soft timers degrade gracefully: when trigger states are rare the
// facility falls back to the hard periodic timer bound, and overhead stays
// bounded under adverse workloads. Demonstrating that claim requires a
// substrate that can misbehave on demand — packets lost, duplicated and
// reordered on the wire, interrupts delivered late or coalesced, syscall
// costs perturbed, and trigger-state checks starved so the hardclock
// fallback path is actually exercised.
//
// A Plan is constructed from a seed and a Spec (the scenario). Components
// consult it at well-defined points:
//
//   - netstack.Link.Send: per-packet drop, duplication, bounded reorder
//   - nic.NIC.Deliver: receive-ring drop
//   - kernel.runIntr: interrupt-delivery jitter
//   - kernel.PIT: tick-delivery jitter and coalescing perturbation
//   - kernel syscall/trap segments and kernel-context chains: CPU-cost
//     perturbation (via cpu.Perturber)
//   - kernel.trigger: trigger-state starvation (SrcHardClock is exempt —
//     the periodic clock interrupt is the paper's guaranteed backup, and
//     starving it would remove the very bound under test)
//
// Determinism contract: all randomness flows from a single seed through
// split-seed sub-streams (Stream), one per named channel. Each channel's
// draw sequence depends only on the seed, the channel name, and the number
// of prior draws on that same channel — never on draws made by other
// channels or on wall-clock/goroutine scheduling. Since every simulation
// substrate is single-threaded and itself deterministic, a faulty run is
// byte-identically replayable from its seed at any -parallel setting.
//
// A nil *Plan is valid everywhere and injects nothing: every query method
// is nil-safe and returns the "no fault" answer without drawing, so the
// clean path pays only a pointer test.
package faults

import (
	"softtimers/internal/metrics"
	"softtimers/internal/sim"
)

// Spec parameterizes a fault scenario. The zero value is the clean
// scenario: no faults anywhere.
type Spec struct {
	// Drop is the per-packet loss probability on faulted links and NIC
	// receive paths.
	Drop float64
	// Dup is the per-packet duplication probability (the copy is delivered
	// back to back with the original).
	Dup float64
	// Reorder is the probability a packet is held back by an extra delay
	// in [0, ReorderMax), letting later packets overtake it.
	Reorder float64
	// ReorderMax bounds the reorder hold-back. Defaults to 500 µs when
	// Reorder is set.
	ReorderMax sim.Time
	// IntrJitterMax is the maximum extra interrupt-delivery latency; each
	// hardware interrupt is delayed by a uniform draw from [0, max].
	IntrJitterMax sim.Time
	// IntrCoalesce is the probability that a PIT tick's delivery is
	// deferred by up to one period, merging it with the next tick when
	// the line is still asserted (the paper's "some timer interrupts are
	// lost" observation, perturbed on purpose).
	IntrCoalesce float64
	// WorkJitter perturbs per-syscall/trap CPU costs by a uniform factor
	// in [1-j, 1+j].
	WorkJitter float64
	// Starve is the fraction of trigger-state checks suppressed. The
	// hardclock trigger is never starved: it is the facility's guaranteed
	// fallback, and the degradation experiments exist to show the bound
	// it provides.
	Starve float64
}

// OverheadBudget is the maximum tolerated soft-timer check-overhead
// fraction of CPU time under every scenario, which the degradation
// regression tests assert against: 1% of CPU time, far above anything the
// facility should ever consume in checks (§5.2 finds the base overhead
// unobservable).
const OverheadBudget = 0.01

// reorderMax returns the effective hold-back bound.
func (s Spec) reorderMax() sim.Time {
	if s.ReorderMax > 0 {
		return s.ReorderMax
	}
	return 500 * sim.Microsecond
}

// Plan is one simulation's fault-injection state: the scenario spec, the
// split-seed PRNG streams, and the fault counters. A Plan belongs to one
// simulation substrate and, like the engine it perturbs, is not safe for
// concurrent use; independent simulations construct independent plans.
type Plan struct {
	seed uint64
	spec Spec

	links map[string]*LinkPlan
	intr  *sim.RNG
	cpu   *sim.RNG
	sta   *sim.RNG
	pit   *sim.RNG

	// Counters (plan-wide; per-link detail lives on each LinkPlan and on
	// the links' own metrics).
	IntrJitterNS    int64 // total extra interrupt-delivery latency injected
	CPUPerturbNS    int64 // total |delta| of perturbed syscall/trap work
	TriggersStarved int64 // trigger-state checks suppressed
	PITCoalesced    int64 // PIT ticks deferred toward coalescing
	PITJitterNS     int64 // total PIT delivery delay injected
}

// New builds a plan for the given seed and scenario. The seed is split
// into independent per-channel streams; the same (seed, spec) always
// yields the same plan behaviour.
func New(seed uint64, spec Spec) *Plan {
	p := &Plan{seed: seed, spec: spec, links: make(map[string]*LinkPlan)}
	p.intr = p.Stream("intr")
	p.cpu = p.Stream("cpu")
	p.sta = p.Stream("starve")
	p.pit = p.Stream("pit")
	return p
}

// Stream returns a deterministic PRNG sub-stream for the named channel:
// the same (plan seed, name) always yields the same stream, independent of
// every other channel. Components owning their own randomness (and the
// property-test harness) draw from here so fault draws never interleave.
func (p *Plan) Stream(name string) *sim.RNG {
	// Mix the channel hash through one splitmix step so related names do
	// not produce correlated seeds.
	r := sim.NewRNG(p.seed ^ sim.HashName(name))
	return sim.NewRNG(r.Uint64())
}

// Link returns the fault channel for the named link (or NIC receive path),
// creating it on first use. Each link owns an independent stream, so the
// draw sequence a link sees depends only on its own packet order. A nil
// plan returns a nil LinkPlan, whose methods are nil-safe no-ops.
func (p *Plan) Link(name string) *LinkPlan {
	if p == nil {
		return nil
	}
	if lp, ok := p.links[name]; ok {
		return lp
	}
	lp := &LinkPlan{spec: p.spec, rng: p.Stream("link." + name)}
	p.links[name] = lp
	return lp
}

// IntrJitter returns the extra delivery latency for one hardware
// interrupt: a uniform draw from [0, IntrJitterMax].
func (p *Plan) IntrJitter() sim.Time {
	if p == nil || p.spec.IntrJitterMax <= 0 {
		return 0
	}
	j := sim.Time(p.intr.Float64() * float64(p.spec.IntrJitterMax))
	p.IntrJitterNS += int64(j)
	return j
}

// PITPerturb returns the delivery delay for one PIT tick of the given
// period: with probability IntrCoalesce a deferral of up to one period
// (driving ticks into coalescing), otherwise ordinary interrupt jitter.
func (p *Plan) PITPerturb(period sim.Time) sim.Time {
	if p == nil {
		return 0
	}
	if p.spec.IntrCoalesce > 0 && p.pit.Bool(p.spec.IntrCoalesce) {
		p.PITCoalesced++
		j := sim.Time(p.pit.Float64() * float64(period))
		p.PITJitterNS += int64(j)
		return j
	}
	if p.spec.IntrJitterMax > 0 {
		j := sim.Time(p.pit.Float64() * float64(p.spec.IntrJitterMax))
		p.PITJitterNS += int64(j)
		return j
	}
	return 0
}

// PerturbWork implements cpu.Perturber: it scales a nominal syscall/trap
// work duration by a uniform factor in [1-WorkJitter, 1+WorkJitter], with
// a 1 ns floor so perturbed work can always be scheduled.
func (p *Plan) PerturbWork(d sim.Time) sim.Time {
	if p == nil || p.spec.WorkJitter <= 0 || d <= 0 {
		return d
	}
	j := p.spec.WorkJitter
	scale := 1 - j + 2*j*p.cpu.Float64()
	nd := sim.Time(float64(d) * scale)
	if nd < 1 {
		nd = 1
	}
	delta := int64(nd - d)
	if delta < 0 {
		delta = -delta
	}
	p.CPUPerturbNS += delta
	return nd
}

// StarveTrigger reports whether this trigger-state check should be
// suppressed. Callers must exempt the hardclock source themselves (the
// kernel does); the plan only draws the starvation coin.
func (p *Plan) StarveTrigger() bool {
	if p == nil || p.spec.Starve <= 0 {
		return false
	}
	if p.sta.Bool(p.spec.Starve) {
		p.TriggersStarved++
		return true
	}
	return false
}

// RegisterMetrics registers the plan on a telemetry registry, which then
// reports its fault counters as faults.* (Report), so fault activity
// appears in stbench -metrics snapshots next to the counters it perturbs.
func (p *Plan) RegisterMetrics(r *metrics.Registry) {
	if p == nil || r == nil {
		return
	}
	r.Register(p)
}

// Report implements metrics.Reporter. The per-link aggregates are summed
// over all channels.
func (p *Plan) Report(w metrics.Writer) {
	w.Counter("faults.intr_jitter_ns", p.IntrJitterNS)
	w.Counter("faults.cpu_perturb_ns", p.CPUPerturbNS)
	w.Counter("faults.triggers_starved", p.TriggersStarved)
	w.Counter("faults.pit_coalesced", p.PITCoalesced)
	w.Counter("faults.pit_jitter_ns", p.PITJitterNS)
	var dropped, duplicated, reordered int64
	for _, lp := range p.links {
		dropped += lp.Dropped
		duplicated += lp.Duplicated
		reordered += lp.Reordered
	}
	w.Counter("faults.pkts_dropped", dropped)
	w.Counter("faults.pkts_duplicated", duplicated)
	w.Counter("faults.pkts_reordered", reordered)
}

// LinkPlan is one link's (or NIC receive path's) fault channel: an
// independent PRNG stream plus per-channel counters. All methods are
// nil-safe: a nil channel injects nothing and never draws.
type LinkPlan struct {
	spec Spec
	rng  *sim.RNG

	Dropped    int64
	Duplicated int64
	Reordered  int64
}

// Drop reports whether the current packet is lost.
func (lp *LinkPlan) Drop() bool {
	if lp == nil || lp.spec.Drop <= 0 {
		return false
	}
	if lp.rng.Bool(lp.spec.Drop) {
		lp.Dropped++
		return true
	}
	return false
}

// Duplicate reports whether the current packet is delivered twice.
func (lp *LinkPlan) Duplicate() bool {
	if lp == nil || lp.spec.Dup <= 0 {
		return false
	}
	if lp.rng.Bool(lp.spec.Dup) {
		lp.Duplicated++
		return true
	}
	return false
}

// ReorderDelay returns the extra hold-back for the current packet: 0 for
// most packets, a uniform draw from [0, ReorderMax) with probability
// Reorder. Later packets can overtake a held-back one, producing bounded
// reordering.
func (lp *LinkPlan) ReorderDelay() sim.Time {
	if lp == nil || lp.spec.Reorder <= 0 {
		return 0
	}
	if !lp.rng.Bool(lp.spec.Reorder) {
		return 0
	}
	lp.Reordered++
	return sim.Time(lp.rng.Float64() * float64(lp.spec.reorderMax()))
}
