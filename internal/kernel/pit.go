package kernel

import "softtimers/internal/sim"

// PIT models an additional programmable interval timer (the Intel 8253 of
// Section 3) interrupting at a fixed frequency. The Figure 2/3 experiment
// attaches one with a null handler to measure raw interrupt overhead; the
// hardware-timer rate-based-clocking experiments attach one whose handler
// transmits a packet.
//
// Matching the paper's observation that "some timer interrupts are lost
// during periods when interrupts are disabled in FreeBSD", a tick that
// arrives while the previous PIT interrupt is still pending delivery is
// merged with it (counted in Lost) rather than queued.
type PIT struct {
	k       *Kernel
	period  sim.Time
	work    sim.Time
	handler func()

	running bool
	pending bool // an interrupt has been raised but not yet serviced
	n       int64

	// Fires counts delivered interrupts; Lost counts merged ticks.
	Fires int64
	Lost  int64
}

// NewPIT creates a timer interrupting every period, whose handler performs
// work of CPU time and then calls handler (nil for a null handler). It does
// not start ticking until Start.
func (k *Kernel) NewPIT(period sim.Time, work sim.Time, handler func()) *PIT {
	if period <= 0 {
		panic("kernel: PIT period must be positive")
	}
	p := &PIT{k: k, period: period, work: work, handler: handler}
	k.pits = append(k.pits, p)
	return p
}

// Start begins fixed-phase ticking from the current time.
func (p *PIT) Start() {
	if p.running {
		return
	}
	p.running = true
	base := p.k.eng.Now()
	p.n = 0
	// The handler body and the fault-deferred raise are bound once per
	// Start, so steady-state ticking allocates nothing.
	body := func() {
		p.pending = false
		p.Fires++
		if p.handler != nil {
			p.handler()
		}
	}
	raise := func() { p.k.RaiseInterrupt(SrcPIT, p.work, body) }
	var tick func()
	tick = func() {
		p.n++
		p.k.eng.AtLabeled(base+sim.Time(p.n+1)*p.period, "pit", tick)
		if p.pending {
			// Previous interrupt not yet serviced: this tick is lost
			// (the interrupt line is already asserted).
			p.Lost++
			return
		}
		p.pending = true
		// Fault-injected delivery perturbation: the line is asserted now
		// (pending is already set, so meanwhile ticks merge into Lost),
		// but the CPU sees the interrupt late — up to a full period under
		// the coalescing scenario.
		if d := p.k.opts.Faults.PITPerturb(p.period); d > 0 {
			p.k.eng.AfterLabeled(d, "pit:jitter", raise)
			return
		}
		raise()
	}
	p.k.eng.AtLabeled(base+p.period, "pit", tick)
}
