// Package core implements the paper's contribution: the soft-timer
// facility (Section 3), which schedules software events at microsecond
// granularity without hardware timer interrupts.
//
// The facility hooks every kernel trigger state — syscall returns, trap and
// interrupt handler exits, IP packet transmissions, the idle loop — and at
// each one performs a check costing a clock read and one comparison. When
// the earliest scheduled event is due, its handler runs right there, with
// procedure-call cost instead of interrupt cost: the CPU state is already
// saved and locality has already shifted. The kernel's periodic clock
// interrupt (hardclock) is itself a trigger state, so no event is ever
// delayed by more than one interrupt-clock period.
//
// The public operations mirror the paper's interface:
//
//	measure_resolution()         -> MeasureResolution
//	measure_time()               -> MeasureTime
//	schedule_soft_event(T, h)    -> ScheduleSoftEvent
//	interrupt_clock_resolution() -> InterruptClockResolution
//
// An event scheduled with parameter T fires at the first trigger state at
// which MeasureTime exceeds its scheduling time by at least T+1 ticks, so
// its actual latency obeys the paper's bound T < actual < T + X + 1, where
// X is the ratio of measurement to interrupt clock resolution.
package core

import (
	"softtimers/internal/kernel"
	"softtimers/internal/metrics"
	"softtimers/internal/sim"
	"softtimers/internal/stats"
	"softtimers/internal/timerwheel"
)

// Handler is a soft-timer event handler. It receives the current time and
// returns the CPU time its work consumes, which the facility charges to the
// trigger state that invoked it.
type Handler func(now sim.Time) sim.Time

// The facility's clock and wheel constants.
const (
	// MeasureHz is the measurement clock resolution: 1 MHz (1 µs ticks),
	// the paper's "typical value". The paper's prototype reads the CPU
	// cycle counter; a 1 µs software view of it keeps the timing wheel
	// advance cheap without changing any observable behaviour at the
	// tens-of-µs event granularities of interest.
	MeasureHz = 1_000_000
	// WheelSlots sizes the hashed timing wheel.
	WheelSlots = 256
)

// tickDur is one measurement-clock tick in simulated time.
const tickDur = sim.Second / MeasureHz

// Options configures the facility.
type Options struct {
	// Hierarchical selects the hierarchical wheel variant instead of the
	// hashed wheel (used by the timer-structure ablation benchmark).
	Hierarchical bool
	// TimeSource, when non-nil, replaces the kernel's virtual clock as the
	// facility's measurement clock. Emulation mode (emu.Clock) supplies
	// its wall-mapped VirtualNow here so measured trigger intervals and
	// firing delays reflect real elapsed time — engine lag included —
	// rather than the event-hop virtual clock; a catch-up burst that fires
	// "on time" in virtual terms still shows its true wall delay. The
	// source must be monotone non-decreasing. Nil (the default) keeps the
	// kernel clock and is byte-identical to the pre-seam facility.
	TimeSource func() sim.Time
}

// Facility is the soft-timer facility, installed as a kernel TriggerSink.
type Facility struct {
	k      *kernel.Kernel
	wheel  timerwheel.Queue
	hashed *timerwheel.Wheel // non-nil when the hashed variant is in use
	// nowFn overrides the kernel clock as the measurement time base
	// (Options.TimeSource); nil in sim mode, where the kernel clock path
	// below stays byte-identical.
	nowFn func() sim.Time

	// Telemetry. The per-tick counters are fields of the facility, which
	// reports them on the kernel's metrics registry at snapshot time
	// (softtimer.checks, softtimer.scheduled, ...; see Report): a fleet
	// host's trigger check and firing then update cache lines the facility
	// already holds, where a registry counter would cost a separate, cold
	// load per update.
	checks    int64
	scheduled int64
	fired     int64
	canceled  int64
	// maxDelay is the worst observed delay beyond an event's requested
	// latency, in µs (high-water mark of the DelayHist input). The
	// softtimer.overshoot_max_us gauge mirrors it and is written only when
	// it rises.
	maxDelay  int64
	overshoot *metrics.Gauge
	// FiresBySource counts event firings per trigger source.
	FiresBySource [kernel.NumSources]int64
	// DelayHist records, in µs, the delay d = actual - T beyond each
	// event's scheduled latency — the paper's d ∈ [0, X+1] variable
	// whose distribution Section 5.3 studies. It is registered on the
	// kernel's metrics registry as softtimer.delay_us.
	DelayHist *stats.Histogram

	// firing guards against re-entrant Trigger during handler execution;
	// currentSrc and pendingCost carry context between Trigger and the
	// wheel callbacks it fires (single-threaded, so fields suffice).
	firing      bool
	currentSrc  kernel.Source
	pendingCost sim.Time

	// freeEv heads the pooled-event free list (ScheduleSoftEventFree), the
	// only pool: a pooled event's wheel node is part of its record.
	freeEv *Event
}

// New installs a soft-timer facility on k and registers it as the kernel's
// trigger sink.
func New(k *kernel.Kernel, opts Options) *Facility {
	return newFacility(k, opts, WheelSlots)
}

// newFacility is New with the hashed wheel's slot count: the fuzz test
// also drives a 16-slot wheel, whose rotations come sixteen times as often.
func newFacility(k *kernel.Kernel, opts Options, slots int) *Facility {
	f := &Facility{
		k:         k,
		nowFn:     opts.TimeSource,
		DelayHist: stats.NewHistogram(1, 2000),
	}
	if opts.Hierarchical {
		f.wheel = timerwheel.NewHierarchical()
	} else {
		f.hashed = timerwheel.New(slots)
		f.wheel = f.hashed
	}
	r := k.Metrics()
	r.Register(f)
	f.overshoot = r.Gauge("softtimer.overshoot_max_us")
	r.Adopt("softtimer.delay_us", f.DelayHist)
	k.SetTriggerSink(f)
	return f
}

// fireNames are the softtimer.fires.<source> counter names.
var fireNames = kernel.NamesBySource("softtimer.fires.")

// Report implements metrics.Reporter: the facility's per-tick counters,
// the events pending on its wheel and its firings per trigger source.
func (f *Facility) Report(w metrics.Writer) {
	w.Counter("softtimer.checks", f.checks)
	w.Counter("softtimer.scheduled", f.scheduled)
	w.Counter("softtimer.fired", f.fired)
	w.Counter("softtimer.canceled", f.canceled)
	w.Gauge("softtimer.pending", int64(f.wheel.Len()))
	for s, n := range f.FiresBySource {
		w.Counter(fireNames[s], n)
	}
}

// MaxDelayUS returns the worst observed delay beyond any event's requested
// latency, in µs — the high-water mark the paper's bound d ≤ X+1 is
// asserted against. Zero until an event has fired.
func (f *Facility) MaxDelayUS() int64 { return f.maxDelay }

// MeasureResolution returns the measurement clock resolution in Hz.
func (f *Facility) MeasureResolution() uint64 { return MeasureHz }

// MeasureTime returns the current time in measurement clock ticks. It is a
// monotonic interval clock, not synchronized to any standard time base. In
// emulation mode (Options.TimeSource) the ticks come from the wall-mapped
// clock instead of the kernel's virtual clock.
func (f *Facility) MeasureTime() uint64 {
	if f.nowFn != nil {
		return uint64(f.nowFn() / tickDur)
	}
	return uint64(f.k.Now() / tickDur)
}

// now returns the facility's time base: the kernel clock, or the override
// (Options.TimeSource) in emulation mode.
func (f *Facility) now() sim.Time {
	if f.nowFn != nil {
		return f.nowFn()
	}
	return f.k.Now()
}

// InterruptClockResolution returns the backup interrupt clock frequency in
// Hz — the minimum rate at which events are guaranteed to be checked, and
// therefore the worst-case granularity of the facility.
func (f *Facility) InterruptClockResolution() uint64 { return kernel.Hz }

// X returns the resolution ratio measure/interrupt — the width, in
// measurement ticks, of the event-firing bound T < actual < T + X + 1.
func (f *Facility) X() uint64 { return MeasureHz / kernel.Hz }

// Event is a handle to a scheduled soft-timer event. It is the event's one
// record: the wheel links the timer node it holds, and the node keeps the
// wheel callback bound when the record was made, across every re-arm and,
// for pooled events (ScheduleSoftEventFree), every recycle through next.
type Event struct {
	t      timerwheel.Timer
	f      *Facility
	sched  uint64 // MeasureTime at scheduling
	T      uint64 // requested latency in ticks
	h      Handler
	pooled bool
	next   *Event
}

// Cancel removes the event if still pending; reports whether it was.
func (ev *Event) Cancel() bool {
	if ev.t.Cancel() {
		ev.f.canceled++
		return true
	}
	return false
}

// Rearm schedules the event to fire again at least T measurement-clock
// ticks from now, reusing the handle, the handler, and the wheel node — no
// allocation in either state. A still-pending event migrates between wheel
// slots in place (Timer.Reschedule); a fired or canceled one has its node
// linked again (Queue.Schedule). This is the rate-based-pacing primitive:
// Section 4.1's transmission events constantly move their own deadline, and
// paying cancel+insert (or a fresh event) per packet is pure queue overhead.
//
// Telemetry parity with the two-step baseline is exact: a pending rearm
// counts one cancellation plus one schedule, a fired rearm counts one
// schedule, and the wheel node lands in the same slot position a freshly
// scheduled timer would — so rearming in place produces the counters and
// traces a cancel+insert would.
func (ev *Event) Rearm(T uint64) {
	f := ev.f
	if ev.pooled {
		panic("core: rearm of a pooled event (pooled events have no handle)")
	}
	if ev.t.Pending() {
		f.canceled++
	}
	f.scheduled++
	now := f.MeasureTime()
	ev.sched, ev.T = now, T
	deadline := now + T + 1
	if !ev.t.Reschedule(deadline) {
		f.wheel.Schedule(&ev.t, deadline, nil) // fired or canceled: relink with its callback
	}
	f.k.NudgeIdle()
}

// RearmAfter is Rearm with a simulated-time latency, mirroring ScheduleAfter.
func (ev *Event) RearmAfter(d sim.Time) {
	ev.Rearm(uint64(d / tickDur))
}

// ScheduleSoftEvent schedules h to be called at least T measurement-clock
// ticks in the future. The handler runs at the first trigger state after
// the deadline; its delay beyond T is bounded by the interrupt clock
// period.
func (f *Facility) ScheduleSoftEvent(T uint64, h Handler) *Event {
	if h == nil {
		panic("core: ScheduleSoftEvent with nil handler")
	}
	f.scheduled++
	now := f.MeasureTime()
	ev := &Event{f: f, sched: now, T: T, h: h}
	// "+1 accounts for the fact that the time at which the event was
	// scheduled may not exactly coincide with a clock tick" (Section 3).
	deadline := now + T + 1
	defer f.k.NudgeIdle() // a halted idle CPU may now have a reason to poll
	f.wheel.Schedule(&ev.t, deadline, ev.fire)
	return ev
}

// fire is the wheel callback shared by both scheduling paths: account the
// firing, record its delay, and run the handler. Pooled events recycle
// before the handler runs, so a handler that immediately reschedules
// reuses its own record.
func (ev *Event) fire(fireTick timerwheel.Tick) {
	f := ev.f
	f.fired++
	f.FiresBySource[f.currentSrc]++
	// d = actual latency minus T, in ticks; convert to µs.
	d := float64(fireTick-ev.sched-ev.T) * float64(tickDur) / float64(sim.Microsecond)
	f.DelayHist.Add(d)
	if us := int64(d); us > f.maxDelay { // worst-case delay, µs (truncated)
		f.maxDelay = us
		f.overshoot.SetMax(us)
	}
	h := ev.h
	if ev.pooled {
		ev.h = nil
		ev.next = f.freeEv
		f.freeEv = ev
	}
	f.pendingCost += f.k.Profile().SoftCall + h(f.now())
}

// ScheduleSoftEventFree schedules h exactly like ScheduleSoftEvent but
// returns no handle: the event record comes from a per-facility pool and
// is recycled the moment it fires, so steady-state rearm loops (probes,
// polls) schedule without allocating. Use it whenever the caller would
// discard the *Event — there is nothing to Cancel.
func (f *Facility) ScheduleSoftEventFree(T uint64, h Handler) {
	if h == nil {
		panic("core: ScheduleSoftEvent with nil handler")
	}
	f.scheduled++
	now := f.MeasureTime()
	var fire timerwheel.Handler // nil: a recycled record keeps its callback
	ev := f.freeEv
	if ev == nil {
		ev = &Event{f: f, pooled: true}
		fire = ev.fire
	} else {
		f.freeEv = ev.next
		ev.next = nil
	}
	ev.sched, ev.T, ev.h = now, T, h
	defer f.k.NudgeIdle()
	f.wheel.Schedule(&ev.t, now+T+1, fire)
}

// ScheduleAfter is a convenience wrapper scheduling h at least d of
// simulated time in the future.
func (f *Facility) ScheduleAfter(d sim.Time, h Handler) *Event {
	ticks := uint64(d / tickDur)
	return f.ScheduleSoftEvent(ticks, h)
}

// Trigger implements kernel.TriggerSink: the per-trigger-state check and,
// when events are due, their execution. Returns the CPU time consumed by
// handlers (the check itself is accounted via Checks).
func (f *Facility) Trigger(src kernel.Source, now sim.Time) sim.Time {
	f.checks++
	if f.firing {
		// A handler's own work produced a nested trigger state; the
		// facility does not recurse (handlers already run back to back).
		return 0
	}
	if f.nowFn != nil {
		// Emulation mode: the wheel runs on wall-mapped ticks, so the due
		// check must too — the virtual now passed in lags real time during
		// catch-up bursts.
		now = f.nowFn()
	}
	tick := timerwheel.Tick(now / tickDur)
	if f.hashed != nil {
		if !f.hashed.Due(tick) {
			return 0
		}
	} else if e := f.wheel.Earliest(); e == timerwheel.NoDeadline || e > tick {
		return 0
	}
	f.firing = true
	f.currentSrc = src
	f.pendingCost = 0
	f.wheel.Advance(tick)
	f.firing = false
	return f.pendingCost
}

// Stats reports the facility's counters.
type Stats struct {
	Checks    int64 // trigger states examined
	Scheduled int64 // events scheduled
	Fired     int64 // events fired
	Canceled  int64 // events canceled
	// CheckOverhead is the estimated total CPU cost of all checks
	// (Checks × the profile's per-check cost) — the "base overhead"
	// Section 5.2 finds unobservable.
	CheckOverhead sim.Time
}

// Stats returns a snapshot of the facility's counters, the same values the
// registry reports as softtimer.*.
func (f *Facility) Stats() Stats {
	return Stats{
		Checks:        f.checks,
		Scheduled:     f.scheduled,
		Fired:         f.fired,
		Canceled:      f.canceled,
		CheckOverhead: sim.Time(f.checks) * f.k.Profile().SoftCheck,
	}
}

// EventBefore implements kernel.IdleAdvisor: it reports whether any
// soft-timer event is due before time t, letting the idle loop halt for
// power saving when nothing needs microsecond service before the next
// hardclock tick (Section 3's idle-halt rule).
func (f *Facility) EventBefore(t sim.Time) bool {
	e := f.wheel.Earliest()
	if e == timerwheel.NoDeadline {
		return false
	}
	return sim.Time(e)*tickDur < t
}
