// Package kernel simulates the operating system the paper instruments: a
// uniprocessor BSD-style kernel with processes, a round-robin scheduler,
// system calls, traps, hardware and software interrupts, a periodic clock
// interrupt (hardclock), kernel timeouts (callouts), and an idle loop.
//
// Its defining feature for this reproduction is trigger-state
// instrumentation: every point where the paper's modified FreeBSD would
// check for pending soft-timer events — the end of a syscall, the end of a
// trap or interrupt handler, each IP packet transmission, the TCP/IP
// processing loops, and each idle-loop iteration — reports to a pluggable
// TriggerSink and to an interval meter. The soft-timer facility in
// package core plugs in as the sink; the Table 1/2 and Figure 4/5/6
// experiments read the meter.
package kernel

import (
	"fmt"

	"softtimers/internal/cpu"
	"softtimers/internal/faults"
	"softtimers/internal/metrics"
	"softtimers/internal/sim"
	"softtimers/internal/stats"
	"softtimers/internal/trace"
)

// Source identifies which kind of trigger state (or interrupt origin) an
// event came from, matching the event-source breakdown of Table 2.
type Source int

const (
	// SrcSyscall is the end of a system call, before return to user mode.
	SrcSyscall Source = iota
	// SrcTrap is the end of an exception handler (page fault, arithmetic).
	SrcTrap
	// SrcIPOutput fires on every IP packet transmission.
	SrcIPOutput
	// SrcIPIntr is the end of a network interface interrupt handler.
	SrcIPIntr
	// SrcTCPIPOther covers other network-subsystem trigger states such as
	// the TCP timer processing loop (BSD softclock protocol timers).
	SrcTCPIPOther
	// SrcDisk is the end of a disk controller interrupt handler.
	SrcDisk
	// SrcHardClock is the end of the periodic clock interrupt — the
	// backup that bounds soft-timer delay at one interrupt-clock period.
	SrcHardClock
	// SrcPIT is the end of the *additional* programmable-interval-timer
	// interrupt used by the Figure 2/3 overhead experiment.
	SrcPIT
	// SrcIdle is one iteration of the idle loop.
	SrcIdle

	numSources
)

var sourceNames = [numSources]string{
	"syscalls", "traps", "ip-output", "ip-intr", "tcpip-others",
	"disk-intr", "hardclock", "pit", "idle",
}

// String returns the paper's name for the source.
func (s Source) String() string {
	if s < 0 || int(s) >= len(sourceNames) {
		return fmt.Sprintf("source(%d)", int(s))
	}
	return sourceNames[s]
}

// NumSources is the number of distinct trigger sources.
const NumSources = int(numSources)

// TriggerSink observes trigger states. The soft-timer facility implements
// it: at each trigger it checks for due events, runs their handlers, and
// returns the CPU time those handlers consumed so the kernel can account
// for it. A nil sink is allowed.
type TriggerSink interface {
	// Trigger is invoked at every trigger state with the source and the
	// current time. It returns the CPU time consumed by any handlers it
	// ran (0 if none fired).
	Trigger(src Source, now sim.Time) sim.Time
}

// IdleAdvisor optionally extends a TriggerSink: the idle loop asks whether
// any soft-timer event is scheduled before the given time (the next
// hardclock tick). If not, the CPU halts to save power instead of
// spinning — Section 3: "to minimize power consumption, an idle CPU halts
// when there are no soft timer events scheduled at times prior to the
// next hardware timer interrupt."
type IdleAdvisor interface {
	// EventBefore reports whether a soft-timer event is due before t.
	EventBefore(t sim.Time) bool
}

// Options configures kernel construction.
type Options struct {
	// Hz is the periodic clock interrupt frequency (backup timer).
	// Default 1000 (1 ms), the paper's "typical" interrupt clock.
	Hz int
	// Quantum is the scheduler time slice. Default 10 ms (FreeBSD).
	Quantum sim.Time
	// IdleLoop keeps the idle loop spinning (and producing SrcIdle
	// trigger states) whenever the CPU is idle. Default true; the
	// measured workloads of Table 1 rely on it. When false the CPU
	// halts when idle and wakes only on interrupts.
	IdleLoop bool
	// IdleHalt makes the idle loop halt (stop polling) whenever the
	// trigger sink reports no soft-timer event scheduled before the
	// next hardclock tick — the paper's power-saving rule. Requires a
	// sink implementing IdleAdvisor; without one the loop keeps
	// spinning. Interrupts still wake the CPU normally.
	IdleHalt bool
	// DisabledSources suppresses chosen trigger sources, for the
	// Figure 6 source-ablation experiment. Suppressed sources still
	// execute their work; they just do not report trigger states.
	DisabledSources map[Source]bool
	// SoftIRQDirect and SoftIRQPollution override the entry cost and
	// locality penalty of software interrupts; zero values default to
	// half the hardware-interrupt costs.
	SoftIRQDirect    sim.Time
	SoftIRQPollution sim.Time
	// HardclockWork is the timekeeping work done by each clock tick.
	// Default 1 µs.
	HardclockWork sim.Time
	// StarveBoost is the waiting time after which a ready process gains
	// one effective priority level (BSD-style aging, so a niced compute
	// hog still gets occasional timeslices on a saturated system).
	// Default 300 ms; negative disables aging.
	StarveBoost sim.Time
	// Faults, when set, installs the deterministic fault-injection plan:
	// interrupt-delivery jitter, PIT coalescing perturbation, syscall/
	// trap cost noise, and trigger-state starvation (the hardclock is
	// exempt — it is the facility's guaranteed fallback). Nil, the
	// default, means a perfectly well-behaved substrate.
	Faults *faults.Plan
}

func (o *Options) setDefaults() {
	if o.Hz == 0 {
		o.Hz = 1000
	}
	if o.Quantum == 0 {
		o.Quantum = 10 * sim.Millisecond
	}
	if o.HardclockWork == 0 {
		o.HardclockWork = 1 * sim.Microsecond
	}
	if o.StarveBoost == 0 {
		o.StarveBoost = sim.Second
	}
}

// Accounting aggregates where CPU time went, for the overhead tables.
type Accounting struct {
	User       sim.Time // user-mode computation
	Kernel     sim.Time // syscall and trap service
	Intr       sim.Time // hardware interrupt handling (direct)
	SoftIRQ    sim.Time // software interrupt handling
	CtxSwitch  sim.Time // context-switch direct cost
	SoftTimer  sim.Time // soft-timer handler execution at trigger states
	Idle       sim.Time // idle time
	Interrupts int64    // hardware interrupts taken
	Switches   int64    // context switches
	Syscalls   int64
	Traps      int64
	IdleHalts  int64 // times the idle loop halted instead of polling
}

// Busy returns all non-idle time.
func (a Accounting) Busy() sim.Time {
	return a.User + a.Kernel + a.Intr + a.SoftIRQ + a.CtxSwitch + a.SoftTimer
}

// TriggerMeter records trigger-state intervals, per source, the raw data
// behind Figures 4–6 and Tables 1–2.
type TriggerMeter struct {
	// Hist is the interval histogram in microseconds (1 µs buckets up to
	// 2 ms), memory-bounded for multi-million-sample runs.
	Hist *stats.Histogram
	// BySource counts trigger states per source.
	BySource [NumSources]int64
	// Windows, when non-nil, accumulates windowed medians (Figure 5).
	Windows []*stats.WindowedMedians
	// Trace, when non-nil, receives every (time, interval) pair; used by
	// small-scale tests and the CSV dumper, too costly for 2M-sample runs
	// unless requested.
	Trace func(now sim.Time, interval sim.Time, src Source)

	last    sim.Time
	started bool
	n       int64
}

// NewTriggerMeter returns a meter with a 1 µs × 2000-bucket histogram.
func NewTriggerMeter() *TriggerMeter {
	return &TriggerMeter{Hist: stats.NewHistogram(1, 2000)}
}

// N returns the number of intervals recorded.
func (m *TriggerMeter) N() int64 { return m.n }

func (m *TriggerMeter) record(now sim.Time, src Source) {
	m.BySource[src]++
	if !m.started {
		m.started = true
		m.last = now
		return
	}
	iv := now - m.last
	m.last = now
	m.n++
	us := iv.Micros()
	m.Hist.Add(us)
	for _, w := range m.Windows {
		w.Add(now.Millis(), us)
	}
	if m.Trace != nil {
		m.Trace(now, iv, src)
	}
}

// Kernel is the simulated operating system on one CPU.
type Kernel struct {
	eng  *sim.Engine
	prof cpu.Profile
	opts Options

	sink   TriggerSink
	meter  *TriggerMeter
	tracer *trace.Buffer

	// Telemetry. The kernel owns the simulation's metrics registry; the
	// soft-timer facility, NICs and links register their instruments on
	// it. Per-vector interrupt counters are direct (array-indexed pointer
	// increments on the interrupt path); everything that already has a
	// counter field (accounting, the trigger meter) joins as a func
	// instrument evaluated only at snapshot time.
	m          *metrics.Registry
	mIntr      [NumSources]*metrics.Counter // interrupts delivered per vector
	mIntrNS    [NumSources]*metrics.Counter // CPU ns spent per vector (direct cost)
	mIdleEnter *metrics.Counter             // idle-loop entries
	mSoftclock *metrics.Counter             // callout (softclock) handler runs

	// Scheduler state.
	runq    []*Proc
	running *Proc    // proc owning the CPU (may be paused by an interrupt)
	seg     *segment // currently executing segment, nil if none
	paused  *segment // segment preempted by interrupt context

	inIntr     bool // executing hardware/software interrupt or soft handlers
	pendIntr   []intrReq
	intrHead   int // first unserviced pendIntr entry (head-indexed queue)
	pendSoft   []softReq
	softHead   int   // first unserviced pendSoft entry
	reschedule bool  // quantum expired; switch at next user-mode boundary
	lastRun    *Proc // last process to own the CPU, for switch-cost checks

	// In-flight interrupt-context state. The kernel executes at most one
	// hardware interrupt, one softirq, one work chain, one aux occupancy
	// and one paid context switch at a time, so each parks its request in
	// a field and reuses a closure bound once at construction — the hot
	// path schedules engine events without allocating.
	curIntr    intrReq
	intrBodyFn func()
	intrContFn func()
	curSoft    softReq
	softBodyFn func()
	softDoneFn func()
	chSteps    []ChainStep
	chChain    Chain
	chLen      int
	chIdx      int
	chClass    acctClass
	chSrc      Source
	chDone     func()
	chRunFn    func()
	chNextFn   func()
	chProc     *Proc  // Proc.Chain's continuation target
	chThen     func() // Proc.Chain's continuation
	chProcFn   func()
	finProc    *Proc  // finished segment's process
	finThen    func() // finished segment's continuation
	segContFn  func()
	auxCont    func()
	auxFn      func()
	swProc     *Proc // process resuming after a paid context switch
	swResumeFn func()
	idleTickFn func()
	idleContFn func()

	// Segment pool.
	segFree *segment

	idle      bool
	idleEv    sim.Event
	idleSince sim.Time

	acct    Accounting
	started bool
	nextPID int

	// softIRQ cost model (resolved from Options at New).
	sirqDirect, sirqPollution sim.Time

	// hardclock bookkeeping
	tick     int64
	callouts *calloutWheel

	pits []*PIT

	// pert is the installed CPU-cost perturber (the fault plan), nil on
	// a clean run. Kept as a concrete interface field so the per-segment
	// check is one nil comparison.
	pert cpu.Perturber
}

// New constructs a kernel on the engine with the given CPU profile.
func New(eng *sim.Engine, prof cpu.Profile, opts Options) *Kernel {
	opts.setDefaults()
	k := &Kernel{
		eng:   eng,
		prof:  prof,
		opts:  opts,
		meter: NewTriggerMeter(),
	}
	k.sirqDirect = opts.SoftIRQDirect
	if k.sirqDirect == 0 {
		k.sirqDirect = prof.IntrDirect / 2
	}
	k.sirqPollution = opts.SoftIRQPollution
	if k.sirqPollution == 0 {
		k.sirqPollution = prof.IntrPollution / 2
	}
	k.callouts = newCalloutWheel()
	k.intrBodyFn = k.intrBody
	k.intrContFn = k.intrCont
	k.softBodyFn = k.softBody
	k.softDoneFn = k.softDone
	k.chRunFn = k.chainRun
	k.chNextFn = k.chainNext
	k.chProcFn = k.procChainDone
	k.segContFn = k.segCont
	k.auxFn = k.auxRun
	k.swResumeFn = k.swResume
	k.idleTickFn = k.idleTick
	k.idleContFn = k.idleCont
	k.initMetrics()
	if opts.Faults != nil {
		k.pert = opts.Faults
		opts.Faults.RegisterMetrics(k.m)
	}
	return k
}

// initMetrics builds the kernel's registry and registers the kernel- and
// engine-level instruments. Called once from New.
func (k *Kernel) initMetrics() {
	r := metrics.NewRegistry()
	k.m = r

	// Engine (event-loop) telemetry: lazily read, no hot-path change.
	r.CounterFunc("sim.events_fired", func() int64 { return int64(k.eng.Fired) })
	r.GaugeFunc("sim.events_pending", func() int64 { return int64(k.eng.Pending()) })
	r.GaugeFunc("sim.heap_depth_hwm", func() int64 { return int64(k.eng.MaxPending()) })

	// Per-vector interrupt delivery counts and direct CPU cost.
	for s := Source(0); s < numSources; s++ {
		name := s.String()
		k.mIntr[s] = r.Counter("kernel.intr." + name)
		k.mIntrNS[s] = r.Counter("kernel.intr_ns." + name)
	}

	// Trigger-state visits per source and the interval histogram come from
	// the meter's existing storage.
	for s := Source(0); s < numSources; s++ {
		i := s
		r.CounterFunc("kernel.trigger."+i.String(), func() int64 { return k.meter.BySource[i] })
	}
	r.Adopt("kernel.trigger_interval_us", k.meter.Hist)

	// CPU-time accounting and scheduler activity mirror the Accounting
	// struct, which stays the public API.
	r.CounterFunc("kernel.switches", func() int64 { return k.acct.Switches })
	r.CounterFunc("kernel.syscalls", func() int64 { return k.acct.Syscalls })
	r.CounterFunc("kernel.traps", func() int64 { return k.acct.Traps })
	r.CounterFunc("kernel.interrupts", func() int64 { return k.acct.Interrupts })
	r.CounterFunc("kernel.idle_halts", func() int64 { return k.acct.IdleHalts })
	r.CounterFunc("kernel.hardclock_ticks", func() int64 { return k.tick })
	r.CounterFunc("kernel.acct.user_ns", func() int64 { return int64(k.acct.User) })
	r.CounterFunc("kernel.acct.kernel_ns", func() int64 { return int64(k.acct.Kernel) })
	r.CounterFunc("kernel.acct.intr_ns", func() int64 { return int64(k.acct.Intr) })
	r.CounterFunc("kernel.acct.softirq_ns", func() int64 { return int64(k.acct.SoftIRQ) })
	r.CounterFunc("kernel.acct.ctxswitch_ns", func() int64 { return int64(k.acct.CtxSwitch) })
	r.CounterFunc("kernel.acct.softtimer_ns", func() int64 { return int64(k.acct.SoftTimer) })
	r.CounterFunc("kernel.acct.idle_ns", func() int64 { return int64(k.acct.Idle) })

	// Idle entries and softclock (callout) runs have no pre-existing
	// counter; these are direct, on cold paths.
	k.mIdleEnter = r.Counter("kernel.idle_entries")
	k.mSoftclock = r.Counter("kernel.softclock_runs")
}

// Metrics returns the simulation's telemetry registry. Components built on
// this kernel (the soft-timer facility, NICs, links, pacers) register
// their instruments here; snapshot it for the full picture.
func (k *Kernel) Metrics() *metrics.Registry { return k.m }

// Engine returns the underlying simulation engine.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// Now returns the current simulated time.
func (k *Kernel) Now() sim.Time { return k.eng.Now() }

// Profile returns the CPU cost model in use.
func (k *Kernel) Profile() *cpu.Profile { return &k.prof }

// Meter returns the trigger-interval meter.
func (k *Kernel) Meter() *TriggerMeter { return k.meter }

// Accounting returns a snapshot of CPU time accounting. If the CPU is
// currently idle, idle time up to now is included.
func (k *Kernel) Accounting() Accounting {
	a := k.acct
	if k.isIdle() {
		a.Idle += k.eng.Now() - k.idleSince
	}
	return a
}

// SetTriggerSink installs the soft-timer facility (or any observer).
func (k *Kernel) SetTriggerSink(s TriggerSink) { k.sink = s }

// SetTracer attaches an execution trace buffer; nil detaches. Tracing is
// for debugging and tests; it records scheduling, interrupt and trigger
// events into the bounded ring.
func (k *Kernel) SetTracer(tb *trace.Buffer) { k.tracer = tb }

// Tracer returns the attached trace buffer, or nil.
func (k *Kernel) Tracer() *trace.Buffer { return k.tracer }

// tr records a trace event when a tracer is attached.
func (k *Kernel) tr(kind trace.Kind, label string, arg int64) {
	if k.tracer != nil {
		k.tracer.Add(k.eng.Now(), kind, label, arg)
	}
}

// Hz returns the periodic interrupt clock frequency.
func (k *Kernel) Hz() int { return k.opts.Hz }

// Start begins the hardclock and the scheduler. Call after spawning the
// initial processes and before running the engine.
func (k *Kernel) Start() {
	if k.started {
		panic("kernel: Start called twice")
	}
	k.started = true
	k.scheduleHardclock()
	k.dispatch()
}

// starved reports whether the fault plan suppresses this trigger-state
// check. The hardclock source is always exempt: the periodic clock
// interrupt is the paper's guaranteed backup, and starving it would remove
// the very delay bound the degradation experiments measure.
func (k *Kernel) starved(src Source) bool {
	return src != SrcHardClock && k.opts.Faults.StarveTrigger()
}

// trigger reports a trigger state, then runs cont after any soft-timer
// handler work the sink performed. cont must not be nil.
func (k *Kernel) trigger(src Source, cont func()) {
	if !k.opts.DisabledSources[src] && !k.starved(src) {
		k.tr(trace.TriggerState, src.String(), 0)
		k.meter.record(k.eng.Now(), src)
		if k.sink != nil {
			if consumed := k.sink.Trigger(src, k.eng.Now()); consumed > 0 {
				// Soft-timer handlers execute here, occupying the CPU.
				// They run in "interrupt-like" context: interrupts that
				// arrive meanwhile queue until it completes.
				k.runAux(consumed, cont)
				return
			}
		}
	}
	cont()
}

// workFaulted converts nominal work like prof.Work and then applies the
// fault plan's CPU-cost perturbation. Used for syscall/trap service and
// kernel-context chain work; user computation and fixed hardware costs are
// not perturbed.
func (k *Kernel) workFaulted(d sim.Time) sim.Time {
	return k.prof.PerturbedWork(k.pert, d)
}

// runAux occupies the CPU for d (soft-timer handler execution), then cont.
// Interrupts arriving meanwhile queue; they are serviced at the next
// settling point (startSegment or dispatch) that cont leads to. Aux
// occupancies never nest (handlers already ran inside the sink; nothing
// reports a new trigger state until cont), so the continuation parks in a
// field and the completion closure is bound once.
func (k *Kernel) runAux(d sim.Time, cont func()) {
	if k.auxCont != nil {
		panic("kernel: nested aux occupancy")
	}
	k.inIntr = true
	k.acct.SoftTimer += d
	k.auxCont = cont
	k.eng.After(d, k.auxFn)
}

// auxRun is runAux's deferred tail (bound once as auxFn).
func (k *Kernel) auxRun() {
	cont := k.auxCont
	k.auxCont = nil
	k.inIntr = false
	cont()
}
