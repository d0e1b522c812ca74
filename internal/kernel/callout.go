package kernel

import (
	"softtimers/internal/sim"

	"softtimers/internal/timerwheel"
)

// Callout is a conventional kernel timeout, scheduled at hardclock-tick
// granularity (the paper's "conventional timer facility": events fire from
// the periodic clock interrupt, so resolution is 1/Hz). TCP's delayed-ACK
// and retransmit timers run on callouts.
type Callout struct {
	k    *Kernel
	t    *timerwheel.Timer
	fn   func()
	work sim.Time
}

// Cancel stops the callout; reports whether it was still pending.
func (c *Callout) Cancel() bool { return c.t.Cancel() }

// Pending reports whether the callout has yet to fire.
func (c *Callout) Pending() bool { return c.t.Pending() }

// Reset re-targets the callout to fire no earlier than d from now, rounded
// up to the next hardclock tick — callout_reset(9), the rearm BSD TCP's
// retransmit timer performs on every ACK that moves snd_una. A pending
// callout's wheel node migrates between slots in place; a fired or
// canceled one is revived with its original handler. Neither path
// allocates, where cancel + a fresh Timeout pays a new Callout, a new
// Timer node, and a new wheel closure per rearm.
func (c *Callout) Reset(d sim.Time) {
	ticks := c.k.calloutTicks(d)
	deadline := uint64(c.k.tick + ticks)
	if !c.t.Reschedule(deadline) {
		c.t.Rearm(deadline, nil)
	}
}

type calloutWheel struct {
	wheel *timerwheel.Wheel
}

func newCalloutWheel() *calloutWheel {
	return &calloutWheel{wheel: timerwheel.New(256)}
}

// Timeout schedules fn to run no earlier than d from now, rounded up to the
// next hardclock tick — conventional-timer semantics. work is the CPU time
// the handler consumes; it executes as a software interrupt from the clock
// tick (BSD softclock), and its completion is a TCP/IP-other trigger state.
func (k *Kernel) Timeout(d sim.Time, work sim.Time, fn func()) *Callout {
	ticks := k.calloutTicks(d)
	c := &Callout{k: k, fn: fn, work: work}
	c.t = k.callouts.wheel.Schedule(uint64(k.tick+ticks), func(timerwheel.Tick) {
		k.softclockRuns++
		k.PostSoftIRQ(ChainStep{Work: c.work, Src: SrcTCPIPOther, Fn: c.fn})
	})
	return c
}

// calloutTicks converts a relative delay to whole hardclock ticks, rounded
// up, minimum one (a callout never fires on the tick that set it).
func (k *Kernel) calloutTicks(d sim.Time) int64 {
	period := sim.Second / sim.Time(k.opts.Hz)
	ticks := int64((d + period - 1) / period)
	if ticks < 1 {
		ticks = 1
	}
	return ticks
}

// TickPeriod returns the hardclock period (1/Hz).
func (k *Kernel) TickPeriod() sim.Time { return sim.Second / sim.Time(k.opts.Hz) }

// scheduleHardclock starts the fixed-phase periodic clock interrupt. Each
// tick does timekeeping work, expires callouts, and enforces the scheduler
// quantum; its end-of-handler trigger state is the soft-timer backup that
// bounds event delay at one tick.
func (k *Kernel) scheduleHardclock() {
	period := k.TickPeriod()
	// One closure for the handler body and one for the tick, both bound
	// here once — the per-tick path allocates nothing.
	body := func() {
		k.tick++
		// Reschedule at the next user-mode boundary when the
		// quantum expired, or when a ready process outranks the
		// running one (BSD recomputes priorities at clock ticks).
		if k.running != nil && len(k.runq) > 0 {
			if k.eng.Now()-k.running.quantumStart >= k.opts.Quantum {
				k.reschedule = true
			}
			for _, p := range k.runq {
				if p.Priority > k.running.Priority {
					k.reschedule = true
					break
				}
			}
		}
		k.callouts.wheel.Advance(uint64(k.tick))
	}
	var tick func()
	n := int64(0)
	tick = func() {
		n++
		k.eng.AtLabeled(sim.Time(n+1)*period, "hardclock", tick)
		k.RaiseInterrupt(SrcHardClock, k.opts.HardclockWork, body)
	}
	k.eng.AtLabeled(k.eng.Now()+period, "hardclock", tick)
}

// Tick returns the number of hardclock ticks taken so far.
func (k *Kernel) Tick() int64 { return k.tick }
