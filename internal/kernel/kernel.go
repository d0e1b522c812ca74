// Package kernel simulates the operating system the paper instruments: a
// uniprocessor BSD-style kernel with processes, a round-robin scheduler,
// system calls, traps, hardware and software interrupts, a periodic clock
// interrupt (hardclock), and an idle loop.
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

// The kernel's clock and scheduler constants: the paper's testbed runs a
// 1 ms interrupt clock under FreeBSD-2.2.6's 10 ms quantum.
const (
	// Hz is the periodic clock interrupt frequency (the backup timer):
	// 1000, the paper's "typical" interrupt clock.
	Hz = 1000
	// Quantum is the scheduler time slice (FreeBSD).
	Quantum = 10 * sim.Millisecond
	// HardclockWork is the timekeeping work each clock tick does.
	HardclockWork = 1 * sim.Microsecond
	// StarveBoost is the waiting time after which a ready process gains
	// one effective priority level (BSD-style aging, so a niced compute
	// hog still gets occasional timeslices on a saturated system).
	StarveBoost = sim.Second
)

// Options configures kernel construction.
type Options struct {
	// IdleLoop keeps the idle loop spinning (and producing SrcIdle
	// trigger states) whenever the CPU is idle; the measured workloads
	// of Table 1 rely on it, and every rig that runs them sets it. The
	// zero value, false, halts the CPU when idle, and it wakes only on
	// interrupts.
	IdleLoop bool
	// IdleHalt makes the idle loop halt (stop polling) whenever the
	// trigger sink reports no soft-timer event scheduled before the
	// next hardclock tick — the paper's power-saving rule. Requires a
	// sink implementing IdleAdvisor; without one the loop keeps
	// spinning. Interrupts still wake the CPU normally.
	IdleHalt bool
	// DisabledSources suppresses chosen trigger sources, for the
	// Figure 6 source-ablation experiment. Suppressed sources still
	// execute their work; they just do not report trigger states. New
	// reads the map once; later changes to it have no effect.
	DisabledSources map[Source]bool
	// Faults, when set, installs the deterministic fault-injection plan:
	// interrupt-delivery jitter, PIT coalescing perturbation, syscall/
	// trap cost noise, and trigger-state starvation (the hardclock is
	// exempt — it is the facility's guaranteed fallback). Nil, the
	// default, means a perfectly well-behaved substrate.
	Faults *faults.Plan
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
	// 2 ms), memory-bounded for multi-million-sample runs. Its buckets
	// grow only as far as the longest interval seen: a host that idles at
	// the 1 ms hardclock period holds 1,024 of the 2,000.
	Hist *stats.Histogram
	// BySource counts trigger states per source.
	BySource [NumSources]int64
	// Trace, when non-nil, receives every (time, interval) pair; used by
	// small-scale tests, the CSV dumper and Figure 5's windowed medians.
	Trace func(now sim.Time, interval sim.Time, src Source)

	last    sim.Time
	started bool
	n       int64
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
	if m.Trace != nil {
		m.Trace(now, iv, src)
	}
}

// Kernel is the simulated operating system on one CPU.
type Kernel struct {
	eng  *sim.Engine
	prof cpu.Profile
	opts Options

	sink     TriggerSink
	tracer   *trace.Buffer
	disabled [NumSources]bool // Options.DisabledSources, copied at New
	meter    TriggerMeter

	// Telemetry. The kernel owns the simulation's metrics registry; the
	// soft-timer facility, NICs and links register on it. The kernel's own
	// counters are fields, like the accounting and the trigger meter, which
	// the kernel reports only at snapshot time (Report), so an interrupt
	// or a trigger state updates cache lines the kernel already holds.
	m           *metrics.Registry
	intr        [NumSources]int64 // interrupts delivered per vector
	intrNS      [NumSources]int64 // CPU ns spent per vector (direct cost)
	idleEntries int64             // idle-loop entries

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

	// starveBoost is the aging period (StarveBoost; tests shorten it).
	starveBoost sim.Time

	// hardclock bookkeeping: ticks handled, and the instant the next
	// tick is scheduled for
	tick     int64
	nextTick sim.Time

	pits []*PIT

	// pert is the installed CPU-cost perturber (the fault plan), nil on
	// a clean run. Kept as a concrete interface field so the per-segment
	// check is one nil comparison.
	pert cpu.Perturber
}

// New constructs a kernel on the engine with the given CPU profile.
func New(eng *sim.Engine, prof cpu.Profile, opts Options) *Kernel {
	k := &Kernel{
		eng:         eng,
		prof:        prof,
		opts:        opts,
		meter:       TriggerMeter{Hist: stats.NewHistogram(1, 2000)},
		starveBoost: StarveBoost,
	}
	for src, off := range opts.DisabledSources {
		if off && src >= 0 && src < numSources {
			k.disabled[src] = true
		}
	}
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

// initMetrics builds the kernel's registry, on which the kernel reports
// itself and its engine. Called once from New.
func (k *Kernel) initMetrics() {
	k.m = metrics.NewRegistry()
	k.m.Register(k)
}

// Per-source counter names, the same on every kernel.
var (
	intrNames    = NamesBySource("kernel.intr.")
	intrNSNames  = NamesBySource("kernel.intr_ns.")
	triggerNames = NamesBySource("kernel.trigger.")
)

// NamesBySource returns prefix + the name of every source, in source
// order: the per-source counter names of a component's report.
func NamesBySource(prefix string) (names [NumSources]string) {
	for s := range names {
		names[s] = prefix + Source(s).String()
	}
	return names
}

// Report implements metrics.Reporter: the engine's event counts (sim.*),
// per-vector interrupt deliveries and their direct CPU cost, trigger-state
// visits per source and the trigger meter's interval histogram, and the
// CPU-time accounting and scheduler activity the Accounting struct also
// exposes.
func (k *Kernel) Report(w metrics.Writer) {
	w.Counter("sim.events_fired", int64(k.eng.Fired))
	w.Gauge("sim.events_pending", int64(k.eng.Pending()))
	w.Gauge("sim.heap_depth_hwm", int64(k.eng.MaxPending()))
	for s := range numSources {
		w.Counter(intrNames[s], k.intr[s])
		w.Counter(intrNSNames[s], k.intrNS[s])
		w.Counter(triggerNames[s], k.meter.BySource[s])
	}
	w.Histogram("kernel.trigger_interval_us", k.meter.Hist)
	w.Counter("kernel.switches", k.acct.Switches)
	w.Counter("kernel.syscalls", k.acct.Syscalls)
	w.Counter("kernel.traps", k.acct.Traps)
	w.Counter("kernel.interrupts", k.acct.Interrupts)
	w.Counter("kernel.idle_halts", k.acct.IdleHalts)
	w.Counter("kernel.hardclock_ticks", k.tick)
	w.Counter("kernel.acct.user_ns", int64(k.acct.User))
	w.Counter("kernel.acct.kernel_ns", int64(k.acct.Kernel))
	w.Counter("kernel.acct.intr_ns", int64(k.acct.Intr))
	w.Counter("kernel.acct.softirq_ns", int64(k.acct.SoftIRQ))
	w.Counter("kernel.acct.ctxswitch_ns", int64(k.acct.CtxSwitch))
	w.Counter("kernel.acct.softtimer_ns", int64(k.acct.SoftTimer))
	w.Counter("kernel.acct.idle_ns", int64(k.acct.Idle))
	w.Counter("kernel.idle_entries", k.idleEntries)
}

// Metrics returns the simulation's telemetry registry. Components built on
// this kernel (the soft-timer facility, NICs, links, pacers) register
// themselves here; snapshot it for the full picture.
func (k *Kernel) Metrics() *metrics.Registry { return k.m }

// Engine returns the underlying simulation engine.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// Now returns the current simulated time.
func (k *Kernel) Now() sim.Time { return k.eng.Now() }

// Profile returns the CPU cost model in use.
func (k *Kernel) Profile() *cpu.Profile { return &k.prof }

// Meter returns the trigger-interval meter.
func (k *Kernel) Meter() *TriggerMeter { return &k.meter }

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

// tr records a trace event when a tracer is attached.
func (k *Kernel) tr(kind trace.Kind, label string, arg int64) {
	if k.tracer != nil {
		k.tracer.Add(k.eng.Now(), kind, label, arg)
	}
}

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

// trSrc is tr labeled with the source's name, built only when a tracer is
// attached.
func (k *Kernel) trSrc(kind trace.Kind, src Source) {
	if k.tracer != nil {
		k.tracer.Add(k.eng.Now(), kind, src.String(), 0)
	}
}

// checkTrigger is the trigger-state check: unless the source is disabled
// or starved, it traces and meters the state and offers it to the sink. It
// returns the CPU time the soft-timer handlers the sink ran consumed.
func (k *Kernel) checkTrigger(src Source) sim.Time {
	if k.disabled[src] || k.starved(src) {
		return 0
	}
	k.trSrc(trace.TriggerState, src)
	now := k.eng.Now()
	k.meter.record(now, src)
	if k.sink == nil {
		return 0
	}
	return k.sink.Trigger(src, now)
}

// trigger reports a trigger state, then runs cont after any soft-timer
// handler work the sink performed. cont must not be nil.
func (k *Kernel) trigger(src Source, cont func()) {
	if consumed := k.checkTrigger(src); consumed > 0 {
		// Soft-timer handlers execute here, occupying the CPU. They run in
		// "interrupt-like" context: interrupts that arrive meanwhile queue
		// until it completes.
		k.runAux(consumed, cont)
		return
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
