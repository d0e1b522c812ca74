package sim

// The engine's run loop is driven by a pluggable clock. The default — sim mode — has no driver at
// all: Engine.driver stays nil and RunUntil/Run keep their original tight
// loops, branching once per *call* (never per event), so the deterministic
// engine is byte-identical to the pre-seam code and its hot path pays
// nothing. A non-nil driver slaves the run loop to an external clock: the
// engine asks the driver for permission before firing each event, and the
// driver either authorizes it (after blocking until the event's virtual
// time has arrived on the external clock) or hands back externally
// injected work to run first.
//
// The one real driver is RealTimeClock, which maps virtual time onto the
// wall clock for the emulation mode (package emu): virtual nanoseconds
// advance 1:1 with time.Now(), behind-schedule events fire immediately in
// a catch-up burst with the lag recorded, and goroutines owning real OS
// sockets inject closures that run on the engine goroutine at the
// wall-mapped virtual instant. Determinism ends at this seam: a run under
// RealTimeClock depends on real scheduling and real I/O, which is the
// point — and why stbench rejects -clock realtime for every experiment
// that is part of the reproducibility contract.

import (
	"fmt"
	"sync"
	"time"

	"softtimers/internal/stats"
)

// ClockDriver paces a driven run loop. Implementations are consulted only
// when installed (SetClockDriver); the nil driver is sim mode.
//
// The contract, relied on by Engine.runDriven:
//
//   - Begin(now) is called at the top of every driven run with the
//     engine's current virtual time. Drivers anchor their epoch on the
//     first call and treat later calls as no-ops, so chunked runs
//     (repeated RunFor slices) share one continuous mapping.
//   - WaitUntil(at) blocks until the external clock reaches virtual time
//     at, then returns (at, nil): the caller may fire the event due at
//     that instant (or end the run, if at was the run horizon). If
//     externally injected work arrives first, it returns early with
//     (adv, work): the closures to run and the wall-mapped virtual time
//     they arrived at. The engine clamps adv into [now, at], advances its
//     clock, runs the closures, and re-evaluates the queue — an injected
//     closure may have scheduled something earlier than the event it
//     interrupted the wait for.
//   - A nil and an empty work slice are equivalent: len(work) == 0 means
//     the wait completed. The wait loop (Engine.runDriven) terminates on
//     len(work) == 0, so a driver that hands back empty non-nil batches
//     cannot spin it, and a conforming driver only returns early with at
//     least one closure.
type ClockDriver interface {
	Begin(now Time)
	WaitUntil(at Time) (adv Time, work []func())
}

// ClockKind selects the engine's clock driver (stbench -clock).
type ClockKind uint8

const (
	// ClockSim is the default: virtual time advances only when events
	// fire, runs are deterministic, and the engine carries no driver at
	// all — the run loop is the original tight loop, byte-identical
	// results and zero dispatch.
	ClockSim ClockKind = iota
	// ClockRealTime slaves virtual time to the wall clock (RealTimeClock):
	// each event fires when time.Now() reaches its virtual timestamp,
	// behind-schedule events fire immediately with the lag recorded, and
	// external goroutines may inject work between events. Runs are not
	// reproducible; only emulation experiments accept it.
	ClockRealTime
)

// clockKindNames orders the stable names; index = ClockKind.
var clockKindNames = [...]string{"sim", "realtime"}

// String returns the stable lowercase name ("sim", "realtime") used by
// stbench -clock.
func (k ClockKind) String() string {
	if int(k) < len(clockKindNames) {
		return clockKindNames[k]
	}
	return fmt.Sprintf("ClockKind(%d)", uint8(k))
}

// Description returns the one-line summary stbench -list prints.
func (k ClockKind) Description() string {
	switch k {
	case ClockSim:
		return "deterministic virtual time (the default; byte-identical runs)"
	case ClockRealTime:
		return "virtual time slaved to the wall clock (emulation mode; not reproducible)"
	}
	return "unknown clock driver"
}

// ParseClockKind maps a stable name back to its ClockKind.
func ParseClockKind(s string) (ClockKind, error) {
	for i, n := range clockKindNames {
		if s == n {
			return ClockKind(i), nil
		}
	}
	return 0, fmt.Errorf("sim: unknown clock kind %q (want sim or realtime)", s)
}

// ClockKinds returns every driver kind in presentation order, sim first.
func ClockKinds() []ClockKind {
	return []ClockKind{ClockSim, ClockRealTime}
}

// NewClockDriver builds the driver for kind, or nil for ClockSim (sim mode
// is the driverless engine).
func NewClockDriver(kind ClockKind) ClockDriver {
	switch kind {
	case ClockSim:
		return nil
	case ClockRealTime:
		return NewRealTimeClock(RealTimeOptions{})
	}
	panic(fmt.Sprintf("sim: unknown clock kind %d", kind))
}

// RealTimeOptions configures a RealTimeClock. The zero value uses the real
// wall clock; tests inject fakes so `go test ./...` never sleeps.
type RealTimeOptions struct {
	// Now reads the wall clock (default time.Now).
	Now func() time.Time
	// Sleep blocks for up to d, returning early when wake fires (an
	// Inject arrived). The default sleeps on a timer. Fakes advance a
	// synthetic wall clock instead of blocking.
	Sleep func(d time.Duration, wake <-chan struct{})
}

// RealTimeClock is the ClockDriver that slaves virtual time to the wall
// clock. The mapping is a fixed affine anchor taken at Begin: virtual time
// now corresponds to the wall instant of the first Begin, and both advance
// at the same rate thereafter.
//
// Catch-up/lag policy: when the engine falls behind — a handler ran long,
// the OS descheduled the process, or a burst of injected work piled up —
// every overdue event is authorized immediately, back to back, until the
// virtual clock catches the wall clock (the soft-timer facility's own
// "fire everything due" semantics, one level down). Each overdue
// authorization records its lag in LagHist; the run never tries to slow
// the wall clock down or skip events.
//
// WaitUntil/Begin run on the engine goroutine; Inject is safe from any
// goroutine. The accounting fields are engine-side only.
type RealTimeClock struct {
	nowFn   func() time.Time
	sleepFn func(d time.Duration, wake <-chan struct{})
	wake    chan struct{}

	mu      sync.Mutex
	pending []func()

	started   bool
	epochWall time.Time
	epochV    Time

	// LagHist records, in µs, how far behind the wall clock each overdue
	// event fired — the emulation-mode analogue of the facility's
	// DelayHist. 1 µs buckets; registries adopt it as clock.lag_us.
	LagHist *stats.Histogram

	maxLag   Time
	waits    int64
	bursts   int64
	injected int64
}

// NewRealTimeClock builds a wall-slaved clock driver.
func NewRealTimeClock(opts RealTimeOptions) *RealTimeClock {
	c := &RealTimeClock{
		nowFn:   opts.Now,
		sleepFn: opts.Sleep,
		wake:    make(chan struct{}, 1),
		LagHist: stats.NewHistogram(1, 2000),
	}
	if c.nowFn == nil {
		c.nowFn = time.Now
	}
	if c.sleepFn == nil {
		c.sleepFn = realSleep
	}
	return c
}

// realSleep blocks for up to d on a timer, returning early when wake
// fires. A stale wake token only costs one spurious loop iteration in
// WaitUntil, never a missed deadline.
func realSleep(d time.Duration, wake <-chan struct{}) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-wake:
	}
}

// Begin implements ClockDriver: the first call anchors virtual time now to
// the current wall instant; later calls are no-ops so chunked RunFor
// slices share one continuous mapping.
func (c *RealTimeClock) Begin(now Time) {
	if c.started {
		return
	}
	c.started = true
	c.epochWall = c.nowFn()
	c.epochV = now
}

// VirtualNow returns the wall clock mapped into virtual time. Before Begin
// it returns the zero anchor. This is the time source emulation hosts hand
// to the soft-timer facility (core.Options.TimeSource), so measured
// trigger intervals and firing delays reflect real time — engine lag
// included — rather than the event-hop virtual clock.
func (c *RealTimeClock) VirtualNow() Time {
	if !c.started {
		return c.epochV
	}
	return c.epochV + FromStd(c.nowFn().Sub(c.epochWall))
}

// Inject queues fn to run on the engine goroutine at the wall-mapped
// virtual instant of the next WaitUntil check, waking a sleeping engine
// immediately. This is the only safe way into a driven engine from another
// goroutine — socket readers in package emu deliver packets through it.
func (c *RealTimeClock) Inject(fn func()) {
	if fn == nil {
		panic("sim: inject of nil func")
	}
	c.mu.Lock()
	c.pending = append(c.pending, fn)
	c.mu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// takePending atomically claims the injected-work batch.
func (c *RealTimeClock) takePending() []func() {
	c.mu.Lock()
	work := c.pending
	c.pending = nil
	c.mu.Unlock()
	return work
}

// WaitUntil implements ClockDriver; see the interface contract.
func (c *RealTimeClock) WaitUntil(at Time) (Time, []func()) {
	for {
		// Guard on len, not nil: an (impossible today, but cheap to rule
		// out) empty pending batch must not count as an early return — the
		// ClockDriver contract reserves len(work) == 0 for "wait completed".
		if work := c.takePending(); len(work) > 0 {
			c.injected += int64(len(work))
			return c.VirtualNow(), work
		}
		vnow := c.VirtualNow()
		if vnow >= at {
			if lag := vnow - at; lag > 0 {
				c.LagHist.Add(lag.Micros())
				if lag > c.maxLag {
					c.maxLag = lag
				}
				c.bursts++
			}
			return at, nil
		}
		c.waits++
		c.sleepFn((at - vnow).Std(), c.wake)
	}
}

// MaxLag returns the largest observed behind-schedule lag.
func (c *RealTimeClock) MaxLag() Time { return c.maxLag }

// Waits returns how many times the engine slept waiting for wall time.
func (c *RealTimeClock) Waits() int64 { return c.waits }

// Bursts returns how many events were authorized behind schedule (the
// catch-up burst count; each also landed a sample in LagHist).
func (c *RealTimeClock) Bursts() int64 { return c.bursts }

// Injected returns the number of externally injected closures delivered.
func (c *RealTimeClock) Injected() int64 { return c.injected }
