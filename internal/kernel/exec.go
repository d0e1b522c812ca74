package kernel

import (
	"fmt"

	"softtimers/internal/sim"
	"softtimers/internal/trace"
)

// segKind classifies a CPU work segment.
type segKind int

const (
	segUser segKind = iota
	segSyscall
	segTrap
)

// segment is a contiguous stretch of process work (user computation or a
// syscall/trap service). Interrupts preempt segments; the preempted segment
// resumes afterwards with the profile's pollution penalty added to its
// remaining work — the locality-shift cost the paper measures.
type segment struct {
	p         *Proc
	kind      segKind
	name      string
	remaining sim.Time
	startAt   sim.Time
	doneEv    sim.Event
	then      func()

	// Pool bookkeeping: segments recycle on the kernel's free list, and
	// each carries its completion closure bound once at first allocation
	// so (re)scheduling a segment allocates nothing.
	nextFree *segment
	finFn    func()
}

// acctClass says which Accounting bucket a chain's work belongs to.
type acctClass int

const (
	acctKernel acctClass = iota
	acctSoftIRQ
	acctIntr
)

// SrcNone marks a chain step that is not a trigger state.
const SrcNone Source = -1

// intrReq is a pending hardware interrupt.
type intrReq struct {
	src  Source
	work sim.Time
	fn   func()
}

// softReq is a pending software interrupt: its chain, and the step count
// known at post time, recorded in the trace (batching chains post 0).
type softReq struct {
	chain Chain
	n     int
}

// Chain is a kernel work chain: a sequence of steps, each CPU work, then
// side effects, then (unless its source is SrcNone) a trigger state. The
// TCP/IP output loop is a chain with one SrcIPOutput step per transmitted
// packet. The poster hands the kernel a reusable object it drives step by
// step, so running a chain allocates nothing. Begin is called when the
// chain actually runs — for a softirq, after the entry cost — so work that
// accumulated since posting (e.g. packets queued by further interrupts) is
// batched; it returns the step count. Step reports step i's CPU work and
// trigger source; Run performs its side effects; End is called after the
// last step, where a pooled chain recycles itself.
type Chain interface {
	Begin() int
	Step(i int) (work sim.Time, src Source)
	Run(i int)
	End()
}

// isIdle reports whether the CPU is in the idle state.
func (k *Kernel) isIdle() bool { return k.idle }

// RaiseInterrupt delivers a hardware interrupt: fixed entry cost, work of
// handler time, then fn's side effects, then an end-of-handler trigger
// state. If the CPU is already in interrupt context the request queues
// (interrupts disabled) and is serviced afterwards.
func (k *Kernel) RaiseInterrupt(src Source, work sim.Time, fn func()) {
	k.pendIntr = append(k.pendIntr, intrReq{src: src, work: work, fn: fn})
	k.kick()
}

// PostSoftIRQ queues a software interrupt that executes chain c (protocol
// processing). Software interrupts run after pending hardware interrupts
// and before any process resumes. n is the post-time step count recorded
// in the trace: pass the known length for a fixed chain, 0 for one that
// batches at run time.
func (k *Kernel) PostSoftIRQ(c Chain, n int) {
	if c == nil {
		panic("kernel: nil softirq chain")
	}
	k.pendSoft = append(k.pendSoft, softReq{chain: c, n: n})
	k.kick()
}

// Idle reports whether the CPU is currently in the idle loop (or halted
// idle). Soft-timer network polling with nic.Config.IdleInterrupts uses
// this to re-enable interrupts when the system has nothing to do.
func (k *Kernel) Idle() bool { return k.idle }

// kick reacts to newly queued interrupt-context work: preempt the current
// segment or leave the idle loop. If the CPU is already in interrupt
// context, the queue drains when the current handler finishes.
func (k *Kernel) kick() {
	if k.inIntr {
		return
	}
	if k.seg != nil {
		k.preemptSeg()
		k.serviceIntr()
		return
	}
	if k.idle {
		k.stopIdle()
		k.serviceIntr()
		return
	}
	// The CPU is mid-transition inside the current engine event (e.g. a
	// continuation running right now); the transition's endpoint
	// (startSegment, dispatch) will notice the pending work.
}

// preemptSeg pauses the running segment: account its progress and cancel
// its completion. Pollution is charged when it resumes.
func (k *Kernel) preemptSeg() {
	s := k.seg
	if s == nil {
		panic("kernel: preempt with no segment")
	}
	elapsed := k.eng.Now() - s.startAt
	k.accountSeg(s, elapsed)
	s.remaining -= elapsed
	if s.remaining < 0 {
		s.remaining = 0
	}
	s.doneEv.Cancel()
	s.doneEv = sim.Event{}
	k.seg = nil
	if k.paused != nil {
		panic("kernel: double preemption")
	}
	k.paused = s
}

func (k *Kernel) accountSeg(s *segment, d sim.Time) {
	switch s.kind {
	case segUser:
		k.acct.User += d
	default:
		k.acct.Kernel += d
	}
}

// intrPending reports whether any interrupt-context work is queued.
func (k *Kernel) intrPending() bool {
	return k.intrHead < len(k.pendIntr) || k.softHead < len(k.pendSoft)
}

// serviceIntr runs the next piece of interrupt-context work, or resumes the
// preempted segment / dispatches when none remains. The pending queues are
// head-indexed rings: popping advances a cursor and draining resets the
// slice, so steady-state servicing reuses one backing array instead of
// reallocating on every append after a [1:] reslice.
func (k *Kernel) serviceIntr() {
	if k.inIntr {
		panic("kernel: serviceIntr while in interrupt context")
	}
	if k.intrHead < len(k.pendIntr) {
		req := k.pendIntr[k.intrHead]
		k.pendIntr[k.intrHead] = intrReq{}
		k.intrHead++
		if k.intrHead == len(k.pendIntr) {
			k.pendIntr = k.pendIntr[:0]
			k.intrHead = 0
		}
		k.runIntr(req)
		return
	}
	if k.softHead < len(k.pendSoft) {
		req := k.pendSoft[k.softHead]
		k.pendSoft[k.softHead] = softReq{}
		k.softHead++
		if k.softHead == len(k.pendSoft) {
			k.pendSoft = k.pendSoft[:0]
			k.softHead = 0
		}
		k.runSoft(req)
		return
	}
	if k.paused != nil {
		k.resumePaused()
		return
	}
	k.dispatch()
}

// intrLabel returns the precomputed "intr:<source>" event label.
func intrLabel(src Source) string {
	if src >= 0 && int(src) < len(intrLabels) {
		return intrLabels[src]
	}
	return "intr:" + src.String()
}

var intrLabels = func() [numSources]string {
	var a [numSources]string
	for i := range a {
		a[i] = "intr:" + Source(i).String()
	}
	return a
}()

// runIntr executes one hardware interrupt: entry cost + handler work, side
// effects at the end, then the end-of-handler trigger state. Only one
// hardware interrupt executes at a time (further ones queue with
// interrupts disabled), so the in-flight request parks in curIntr and the
// completion closures are bound once at construction.
func (k *Kernel) runIntr(req intrReq) {
	k.inIntr = true
	k.acct.Interrupts++
	k.trSrc(trace.Intr, req.src)
	dur := k.prof.IntrDirect + k.prof.Work(req.work)
	k.acct.Intr += dur
	k.intr[req.src]++
	k.intrNS[req.src] += int64(dur)
	k.curIntr = req
	// Fault-injected delivery jitter delays the handler's completion (the
	// controller asserted the line late) without charging CPU time — only
	// the handler's own dur lands in the interrupt accounting.
	k.eng.AfterLabeled(dur+k.opts.Faults.IntrJitter(), intrLabel(req.src), k.intrBodyFn)
}

// intrBody is the deferred tail of runIntr (bound once as intrBodyFn).
func (k *Kernel) intrBody() {
	req := k.curIntr
	k.curIntr = intrReq{}
	if req.fn != nil {
		req.fn() // side effects while interrupts still disabled
	}
	k.inIntr = false
	k.trigger(req.src, k.intrContFn)
}

// intrCont runs after the end-of-handler trigger state (bound once).
func (k *Kernel) intrCont() {
	if k.paused != nil {
		// Locality penalty inflicted on the interrupted work.
		k.paused.remaining += k.paused.p.pollute(k.prof.IntrPollution)
	}
	k.serviceIntr()
}

// runSoft executes one software interrupt: entry cost, then its chain.
// Like hardware interrupts, at most one is in flight per kernel.
func (k *Kernel) runSoft(req softReq) {
	k.inIntr = true
	k.tr(trace.SoftIRQ, "softirq", int64(req.n))
	// A softirq's entry cost, and its locality penalty on the paused
	// process (softDone), are half a hardware interrupt's.
	k.acct.SoftIRQ += k.prof.IntrDirect / 2
	k.curSoft = req
	k.eng.After(k.prof.IntrDirect/2, k.softBodyFn)
}

// softBody starts the softirq's chain after the entry cost (bound once).
func (k *Kernel) softBody() {
	req := k.curSoft
	k.curSoft = softReq{}
	k.chainStart(req.chain, acctSoftIRQ, k.softDoneFn)
}

// softDone finishes the softirq (bound once).
func (k *Kernel) softDone() {
	k.inIntr = false
	if k.paused != nil {
		k.paused.remaining += k.paused.p.pollute(k.prof.IntrPollution / 2)
	}
	k.serviceIntr()
}

// chainStart begins executing work chain c in the current (interrupt-like)
// context, then done.
// inIntr must be true on entry and stays true throughout; triggers between
// steps extend the occupancy by any soft-timer handler time. At most one
// chain runs at a time per kernel (chains execute inside interrupt or
// syscall context, both exclusive), so the walk state lives in fields and
// the step closures are bound once at construction.
func (k *Kernel) chainStart(c Chain, class acctClass, done func()) {
	if k.chDone != nil {
		panic("kernel: nested work chain")
	}
	k.chChain, k.chClass, k.chDone = c, class, done
	k.chLen = c.Begin()
	k.chIdx = 0
	k.chainNext()
}

// chainNext schedules step chIdx's work, or finishes the chain.
func (k *Kernel) chainNext() {
	if k.chIdx >= k.chLen {
		done, c := k.chDone, k.chChain
		k.chChain, k.chDone = nil, nil
		c.End()
		done()
		return
	}
	w, src := k.chChain.Step(k.chIdx)
	k.chSrc = src
	switch k.chClass {
	case acctSoftIRQ:
		w = k.prof.Work(w)
		k.acct.SoftIRQ += w
	case acctIntr:
		w = k.prof.Work(w)
		k.acct.Intr += w
	default:
		// Kernel-context chains (syscall-driven protocol output loops)
		// carry the fault plan's CPU-cost perturbation.
		w = k.workFaulted(w)
		k.acct.Kernel += w
	}
	k.eng.After(w, k.chRunFn)
}

// chainRun performs the current step's side effects after its work time
// (bound once as chRunFn), then advances — via the step's trigger state
// when it has one.
func (k *Kernel) chainRun() {
	i := k.chIdx
	k.chIdx++
	k.chChain.Run(i)
	if k.chSrc >= 0 {
		k.triggerInCtx(k.chSrc, k.chNextFn)
		return
	}
	k.chainNext()
}

// procChainDone finishes a Proc.Chain (bound once).
func (k *Kernel) procChainDone() {
	p, then := k.chProc, k.chThen
	k.chProc, k.chThen = nil, nil
	k.inIntr = false
	k.continueProc(p, then)
}

// triggerInCtx reports a trigger state from within occupied CPU context:
// soft-timer handler time simply extends the occupancy.
func (k *Kernel) triggerInCtx(src Source, cont func()) {
	if consumed := k.checkTrigger(src); consumed > 0 {
		k.acct.SoftTimer += consumed
		k.eng.After(consumed, cont)
		return
	}
	cont()
}

// startSegment begins (or resumes) a segment, unless interrupt-context work
// is pending — that runs first, with the segment paused.
func (k *Kernel) startSegment(s *segment) {
	if k.inIntr {
		panic("kernel: startSegment in interrupt context")
	}
	if k.seg != nil {
		panic("kernel: startSegment with a segment already running")
	}
	if k.intrPending() {
		if k.paused != nil {
			panic("kernel: startSegment with another segment paused")
		}
		k.paused = s
		k.serviceIntr()
		return
	}
	// Quantum enforcement happens at user-segment boundaries, i.e. when
	// (re)starting user work — the model's analogue of "on return to
	// user mode".
	if k.reschedule && s.kind == segUser && len(k.runq) > 0 {
		k.reschedule = false
		p := s.p
		p.pending = s
		p.state = Ready
		p.readySince = k.eng.Now()
		k.runq = append(k.runq, p)
		k.running = nil
		k.switchNext()
		return
	}
	k.seg = s
	s.startAt = k.eng.Now()
	s.doneEv = k.eng.AtLabeled(k.eng.Now()+s.remaining, s.name, s.finFn)
}

// finishSegment completes a segment: account it, fire the trigger state for
// kernel-mode segments, and continue the process. The segment recycles
// here — its fields are stashed first, and only finishSegment ends a
// segment's lifetime (preemption keeps it alive as paused/pending).
func (k *Kernel) finishSegment(s *segment) {
	k.accountSeg(s, k.eng.Now()-s.startAt)
	k.seg = nil
	p, then, kind := s.p, s.then, s.kind
	k.freeSegment(s)
	switch kind {
	case segSyscall:
		k.acct.Syscalls++
		k.finProc, k.finThen = p, then
		k.trigger(SrcSyscall, k.segContFn)
	case segTrap:
		k.acct.Traps++
		k.finProc, k.finThen = p, then
		k.trigger(SrcTrap, k.segContFn)
	default:
		k.continueProc(p, then)
	}
}

// segCont continues the process whose segment just finished (bound once;
// at most one segment completion is in flight per kernel).
func (k *Kernel) segCont() {
	p, then := k.finProc, k.finThen
	k.finProc, k.finThen = nil, nil
	k.continueProc(p, then)
}

// newSegment takes a segment from the free list (or grows it), binding the
// completion closure exactly once per pooled object.
func (k *Kernel) newSegment() *segment {
	s := k.segFree
	if s == nil {
		s = &segment{}
		s.finFn = func() { k.finishSegment(s) }
	} else {
		k.segFree = s.nextFree
		s.nextFree = nil
	}
	return s
}

// freeSegment recycles a finished segment.
func (k *Kernel) freeSegment(s *segment) {
	s.p, s.then = nil, nil
	s.name = ""
	s.doneEv = sim.Event{}
	s.nextFree = k.segFree
	k.segFree = s
}

// continueProc runs a process continuation; if it performs no further
// operation the process exits.
func (k *Kernel) continueProc(p *Proc, then func()) {
	if k.running != p {
		panic(fmt.Sprintf("kernel: continueProc for %q but running is not it", p.Name))
	}
	p.acted = false
	if then != nil {
		then()
	}
	if !p.acted && p.state == Running {
		k.exitProc(p)
	}
}

func (k *Kernel) exitProc(p *Proc) {
	p.acted = true
	p.state = Exited
	if k.running == p {
		k.running = nil
		k.dispatch()
	}
}

// resumePaused restarts the segment that interrupt context preempted.
func (k *Kernel) resumePaused() {
	s := k.paused
	k.paused = nil
	k.startSegment(s)
}

// dispatch gives the CPU to the highest-priority ready work: interrupt
// context, a preempted segment, a ready process, or the idle loop.
func (k *Kernel) dispatch() {
	if k.inIntr || k.seg != nil {
		return // busy; completion will dispatch again
	}
	if k.intrPending() {
		k.serviceIntr()
		return
	}
	if k.paused != nil {
		k.resumePaused()
		return
	}
	if k.running != nil {
		return // a continuation is in flight for the running process
	}
	if len(k.runq) > 0 {
		k.switchNext()
		return
	}
	k.goIdle()
}

// switchNext context-switches to the best ready process: highest effective
// priority, FIFO within a level. Effective priority rises with time spent
// waiting (one level per StarveBoost), so low-priority compute processes
// still receive occasional timeslices on a saturated system.
func (k *Kernel) switchNext() {
	now := k.eng.Now()
	eff := func(p *Proc) int {
		return p.Priority + int((now-p.readySince)/k.starveBoost)
	}
	best := 0
	for i := 1; i < len(k.runq); i++ {
		if eff(k.runq[i]) > eff(k.runq[best]) {
			best = i
		}
	}
	p := k.runq[best]
	k.runq = append(k.runq[:best], k.runq[best+1:]...)
	if p.state != Ready {
		panic(fmt.Sprintf("kernel: runq proc %q in state %d", p.Name, p.state))
	}
	p.state = Running
	k.running = p
	k.tr(trace.Sched, p.Name, int64(p.ID))
	p.quantumStart = k.eng.Now()
	// Switching between two processes pays the switch cost; the very
	// first dispatch after boot has no prior context to save.
	switched := k.lastRun != nil && p != k.lastRun
	k.lastRun = p
	if switched {
		k.acct.Switches++
		k.acct.CtxSwitch += k.prof.CtxSwitch
		k.inIntr = true // switch code is non-preemptible
		k.swProc = p
		k.eng.After(k.prof.CtxSwitch, k.swResumeFn)
		return
	}
	k.resumeProc(p, false)
}

// swResume is the deferred tail of a paid context switch (bound once; the
// switch code is non-preemptible, so only one is in flight).
func (k *Kernel) swResume() {
	k.inIntr = false
	p := k.swProc
	k.swProc = nil
	k.resumeProc(p, true)
}

// resumeProc hands the CPU to the freshly scheduled process.
func (k *Kernel) resumeProc(p *Proc, switched bool) {
	if p.pending != nil {
		s := p.pending
		p.pending = nil
		if switched {
			s.remaining += p.pollute(k.prof.CtxPollution)
		}
		k.startSegment(s)
		return
	}
	if p.resume != nil {
		r := p.resume
		p.resume = nil
		if switched {
			p.polluteNext = true
		}
		k.continueProc(p, r)
		return
	}
	k.exitProc(p)
}

// goIdle parks the CPU. With the idle loop enabled, each iteration is a
// trigger state at IdlePoll granularity; otherwise — or when IdleHalt is
// set and no soft-timer event is due before the next hardclock tick — the
// CPU halts until the next interrupt.
func (k *Kernel) goIdle() {
	if k.idle {
		return
	}
	k.idle = true
	k.idleSince = k.eng.Now()
	k.idleEntries++
	k.tr(trace.IdleEnter, "idle", 0)
	if !k.opts.IdleLoop {
		return
	}
	if k.opts.IdleHalt && k.quietUntilTick() {
		k.acct.IdleHalts++
		return // halt: the hardclock's own trigger state backstops
	}
	k.idleEv = k.eng.AfterLabeled(k.prof.IdlePoll, "idle", k.idleTickFn)
}

// quietUntilTick reports whether no soft-timer event is due before the
// next hardclock tick, the instant the hardclock scheduled it for — with
// IdleHalt set, the idle CPU then halts instead of polling.
func (k *Kernel) quietUntilTick() bool {
	adv, ok := k.sink.(IdleAdvisor)
	return ok && !adv.EventBefore(k.nextTick)
}

func (k *Kernel) idleTick() {
	// Account the idle stretch, leave idle for the duration of the
	// trigger (soft handlers may run), then either dispatch real work or
	// resume idling.
	k.stopIdle()
	k.trigger(SrcIdle, k.idleContFn)
}

// idleCont resumes after an idle-loop trigger state (bound once).
func (k *Kernel) idleCont() {
	if k.intrPending() {
		k.serviceIntr()
		return
	}
	if len(k.runq) > 0 {
		k.dispatch()
		return
	}
	k.goIdle()
}

// NudgeIdle re-evaluates a halted idle CPU's decision not to poll. The
// soft-timer facility calls it when a new event is scheduled: if the event
// is now due before the next hardclock tick, the idle loop resumes
// polling. (On real hardware the halt re-evaluation happens on the way
// back to idle after whatever context scheduled the event.)
func (k *Kernel) NudgeIdle() {
	if !k.idle || k.idleEv.Pending() || !k.opts.IdleLoop {
		return
	}
	if k.opts.IdleHalt && k.quietUntilTick() {
		return // stay halted
	}
	k.idleEv = k.eng.AfterLabeled(k.prof.IdlePoll, "idle", k.idleTickFn)
}

// stopIdle leaves the idle state, accumulating idle time.
func (k *Kernel) stopIdle() {
	if !k.idle {
		return
	}
	k.acct.Idle += k.eng.Now() - k.idleSince
	k.idle = false
	k.tr(trace.IdleExit, "idle", 0)
	k.idleEv.Cancel()
	k.idleEv = sim.Event{}
}
