package emu

import (
	"math"
	"sync"
	"time"

	"softtimers/internal/sim"
	"softtimers/internal/stats"
)

// Clock paces the emulation's engine against the wall clock, driving it
// through its public API (EarliestPending, Step, RunUntil). The mapping is
// a fixed affine anchor taken when the run starts: the engine's virtual
// time then corresponds to that wall instant, and both advance at the same
// rate thereafter. The engine itself knows nothing of the wall clock; this
// is the only place in the repository that paces against one.
//
// Catch-up/lag policy (the OMNeT++ real-time scheduler's, arXiv
// 1509.03105): when the engine falls behind — a handler ran long, the OS
// descheduled the process, or injected work piled up — every overdue
// event fires at once, back to back, until the virtual clock catches the
// wall clock. Each records its lag in LagHist; the run never slows the
// wall clock down or skips events.
//
// run and VirtualNow belong to the engine goroutine, as do the accounting
// fields; Inject is safe from any goroutine.
type Clock struct {
	now   func() time.Time
	sleep func(d time.Duration, wake <-chan struct{})
	wake  chan struct{}

	mu      sync.Mutex
	pending []func()

	started   bool
	epochWall time.Time
	epochV    sim.Time

	// LagHist records, in µs, how far behind the wall clock each overdue
	// event fired: the emulation-mode analogue of the facility's
	// DelayHist. 1 µs buckets up to 20 ms, as for trigger intervals; the
	// host registry adopts it as clock.lag_us.
	LagHist *stats.Histogram

	maxLag   sim.Time
	waits    int64
	bursts   int64
	injected int64
}

// newClock builds a clock reading the wall through now. sleep blocks for
// up to d and returns early when wake fires (an Inject or a stop arrived);
// tests pass a fake pair that advances a synthetic wall clock instead, so
// they never sleep.
func newClock(now func() time.Time, sleep func(d time.Duration, wake <-chan struct{})) *Clock {
	return &Clock{
		now:     now,
		sleep:   sleep,
		wake:    make(chan struct{}, 1),
		LagHist: stats.NewHistogram(1, 20_000),
	}
}

// wallSleep is the real sleep: a timer, cut short by wake. A stale wake
// token costs the run loop one extra pass, never a missed deadline.
func wallSleep(d time.Duration, wake <-chan struct{}) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-wake:
	}
}

// VirtualNow returns the wall clock mapped into virtual time; before the
// run starts it returns the zero anchor. The emulated host's soft-timer
// facility measures on it (core.Options.TimeSource), so trigger intervals
// and firing delays reflect real time, engine lag included, rather than
// the event-hop virtual clock.
func (c *Clock) VirtualNow() sim.Time {
	if !c.started {
		return c.epochV
	}
	return c.epochV + sim.FromStd(c.now().Sub(c.epochWall))
}

// Inject queues fn to run on the engine goroutine at its wall-mapped
// arrival and wakes a sleeping run loop. It is the only way into the
// engine from another goroutine: the socket readers deliver packets
// through it.
func (c *Clock) Inject(fn func()) {
	if fn == nil {
		panic("emu: inject of nil func")
	}
	c.mu.Lock()
	c.pending = append(c.pending, fn)
	c.mu.Unlock()
	c.poke()
}

// poke wakes the run loop if it sleeps.
func (c *Clock) poke() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// run anchors the clock at e's current time and paces e until stop closes.
// Each pass checks stop, then does one thing:
//
//   - fire the earliest event if the wall clock has reached it, recording
//     its lag when it is overdue;
//   - run injected work at its arrival, once every event due by then has
//     fired: RunUntil moves the engine's clock to the arrival, and the
//     work runs there;
//   - sleep until the next event's wall instant, or until work arrives.
//
// A batch's arrival is the wall instant of the pass that claimed it.
// Overdue events due by then fire first; later ones wait for the batch, so
// events and work run in wall-clock order.
func (c *Clock) run(e *sim.Engine, stop <-chan struct{}) {
	c.started, c.epochWall, c.epochV = true, c.now(), e.Now()
	var work []func()
	var arrival sim.Time
	for {
		select {
		case <-stop:
			return
		default:
		}
		vnow := c.VirtualNow()
		if len(work) == 0 { // len, not nil: an empty batch is no work
			c.mu.Lock()
			work, c.pending = c.pending, nil
			c.mu.Unlock()
			c.injected += int64(len(work))
			arrival = vnow
		}
		at, ok := e.EarliestPending()
		switch {
		case ok && at <= vnow && (len(work) == 0 || at <= arrival):
			if lag := vnow - at; lag > 0 {
				c.LagHist.Add(lag.Micros())
				c.maxLag = max(c.maxLag, lag)
				c.bursts++
			}
			e.Step()
		case len(work) > 0:
			e.RunUntil(arrival) // nothing is due by arrival: this only moves the clock
			for _, fn := range work {
				fn()
			}
			work = nil
		default:
			d := time.Duration(math.MaxInt64)
			if ok {
				d = (at - vnow).Std()
			}
			c.waits++
			c.sleep(d, c.wake)
		}
	}
}

// MaxLag returns the largest observed behind-schedule lag.
func (c *Clock) MaxLag() sim.Time { return c.maxLag }

// Waits returns how many times the engine slept waiting for wall time.
func (c *Clock) Waits() int64 { return c.waits }

// Bursts returns how many events fired behind schedule (the catch-up
// count; each also landed a sample in LagHist).
func (c *Clock) Bursts() int64 { return c.bursts }

// Injected returns the number of injected closures the run loop claimed.
func (c *Clock) Injected() int64 { return c.injected }
