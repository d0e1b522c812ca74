package kernel

import "softtimers/internal/sim"

// TickPeriod is the hardclock period (1/Hz).
const TickPeriod = sim.Second / Hz

// scheduleHardclock starts the fixed-phase periodic clock interrupt: tick
// n falls n periods after the current time, whenever the kernel starts.
// Each tick does timekeeping work and enforces the scheduler quantum; its
// end-of-handler trigger state is the soft-timer backup that bounds event
// delay at one tick.
func (k *Kernel) scheduleHardclock() {
	// One closure for the handler body and one for the tick, both bound
	// here once — the per-tick path allocates nothing.
	body := func() {
		k.tick++
		// Reschedule at the next user-mode boundary when the
		// quantum expired, or when a ready process outranks the
		// running one (BSD recomputes priorities at clock ticks).
		if k.running != nil && len(k.runq) > 0 {
			if k.eng.Now()-k.running.quantumStart >= Quantum {
				k.reschedule = true
			}
			for _, p := range k.runq {
				if p.Priority > k.running.Priority {
					k.reschedule = true
					break
				}
			}
		}
	}
	var tick func()
	base, n := k.eng.Now(), int64(0)
	tick = func() {
		n++
		k.eng.AtLabeled(base+sim.Time(n+1)*TickPeriod, "hardclock", tick)
		k.RaiseInterrupt(SrcHardClock, HardclockWork, body)
	}
	k.eng.AtLabeled(base+TickPeriod, "hardclock", tick)
}
