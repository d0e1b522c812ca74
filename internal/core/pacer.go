package core

import (
	"softtimers/internal/metrics"
	"softtimers/internal/sim"
	"softtimers/internal/stats"
)

// Pacer implements the paper's adaptive transmission-scheduling algorithm
// for rate-based clocking (Section 4.1):
//
//	"The algorithm uses two parameters, the target transmission rate and
//	the maximal allowable burst transmission rate. The algorithm keeps
//	track of the average transmission rate since the beginning of the
//	current train of transmitted packets. Normally, the next transmission
//	event is scheduled at an interval appropriate for achieving the
//	target transmission rate. However, when the actual transmission rate
//	falls behind the target transmission rate due to soft timer delays,
//	then the next transmission is scheduled at an interval corresponding
//	to the maximal allowable burst transmission rate."
//
// Only one transmission event is pending at a time; the next is scheduled
// from the previous handler, smoothing rate fluctuations instead of letting
// fixed-interval events pile up and fire in a burst.
type Pacer struct {
	f *Facility

	// TargetInterval is 1/target-rate: the desired packet spacing.
	TargetInterval sim.Time
	// MinInterval is 1/max-burst-rate: the tightest spacing allowed when
	// catching up (e.g. the link's back-to-back packet time).
	MinInterval sim.Time

	// Transmit sends one packet at the given time and returns the CPU
	// cost of doing so and whether more packets remain. When it returns
	// false the train ends and the pacer stops until Start.
	Transmit func(now sim.Time) (cost sim.Time, more bool)

	// Intervals, when non-nil, records the achieved inter-transmission
	// intervals in µs (Tables 4 and 5).
	Intervals *stats.Sample

	trainStart sim.Time
	lastSend   sim.Time
	sent       int64
	ev         *Event
	running    bool

	// Registry counters, shared by every pacer on the same kernel.
	mTrains *metrics.Counter
	mFires  *metrics.Counter
}

// NewPacer creates a pacer on f. target and min are intervals (inverse
// rates); transmit performs one packet transmission.
func NewPacer(f *Facility, target, min sim.Time, transmit func(now sim.Time) (sim.Time, bool)) *Pacer {
	if target <= 0 || min <= 0 {
		panic("core: pacer intervals must be positive")
	}
	if min > target {
		min = target
	}
	r := f.k.Metrics()
	return &Pacer{
		f: f, TargetInterval: target, MinInterval: min, Transmit: transmit,
		mTrains: r.Counter("pacer.trains"),
		mFires:  r.Counter("pacer.fires"),
	}
}

// Start begins a new packet train: the first transmission is scheduled one
// target interval from now.
func (p *Pacer) Start() {
	if p.running {
		return
	}
	p.running = true
	p.mTrains.Inc()
	// f.now(), not k.Now(): in emulation mode the train's rate accounting
	// must run on the same wall-mapped clock the fire handler observes.
	p.trainStart = p.f.now()
	p.lastSend = p.trainStart
	p.sent = 0
	p.schedule(p.TargetInterval)
}

// Running reports whether a train is in progress.
func (p *Pacer) Running() bool { return p.running }

// schedule arms the next transmission event. The steady-state path revives
// the just-fired handle in place (Event.Rearm) — one wheel-node migration,
// zero allocations per packet — instead of minting a fresh event each
// period.
func (p *Pacer) schedule(interval sim.Time) {
	if p.ev != nil {
		p.ev.RearmAfter(interval)
		return
	}
	p.ev = p.f.ScheduleAfter(interval, p.fire)
}

func (p *Pacer) fire(now sim.Time) sim.Time {
	p.mFires.Inc()
	cost, more := p.Transmit(now)
	if p.Intervals != nil && p.sent > 0 {
		p.Intervals.Add((now - p.lastSend).Micros())
	}
	p.sent++
	p.lastSend = now
	if !more {
		p.running = false
		p.ev = nil
		return cost
	}
	// Average-rate catch-up: by target pacing, p.sent packets should
	// have taken sent*TargetInterval since the train began. If reality
	// is behind that schedule, send the next packet at the maximum
	// allowable burst rate; otherwise hold the target rate.
	expected := p.trainStart + sim.Time(p.sent)*p.TargetInterval
	if now > expected {
		p.schedule(p.MinInterval)
	} else {
		p.schedule(p.TargetInterval)
	}
	return cost
}
