package kernel

import (
	"fmt"

	"softtimers/internal/sim"
)

// ProcState is a process's scheduling state.
type ProcState int

const (
	// Ready means runnable, waiting for the CPU.
	Ready ProcState = iota
	// Running means the process owns the CPU (it may momentarily be
	// preempted by interrupt context).
	Running
	// Blocked means asleep on a WaitQueue.
	Blocked
	// Exited means terminated.
	Exited
)

// Proc is a simulated process. Workload code drives it in continuation-
// passing style: each operation (Compute, Syscall, Trap, Chain, Sleep)
// schedules work and names the continuation to run when it completes. A
// continuation that performs no further operation implicitly exits the
// process.
type Proc struct {
	// ID is a unique process id; Name labels it for debugging.
	ID   int
	Name string

	// Priority orders scheduling: higher runs first, FIFO within a
	// level (a two-level stand-in for BSD's decaying priorities, where
	// I/O-bound processes outrank compute hogs). Waking a process with
	// higher priority than the running one forces a reschedule at the
	// next user-mode boundary. Default 0.
	Priority int

	// PollutionFactor scales the locality penalties (interrupt, softirq
	// and context-switch pollution) charged to this process. Default 1.
	// A small, cache-resident event-driven server like Flash has more
	// working set to lose to an interrupt than a sprawling multi-process
	// server, so it gets a factor above 1 (paper Section 5.6: Flash "is
	// more sensitive to cache pollution from interrupts").
	PollutionFactor float64

	k            *Kernel
	state        ProcState
	pending      *segment // preempted/unstarted segment awaiting the CPU
	resume       func()   // continuation to run when next scheduled
	polluteNext  bool     // charge CtxPollution to the next segment
	quantumStart sim.Time
	readySince   sim.Time // when the process last became ready (for aging)
	acted        bool     // continuation performed an operation this step
}

// pollute scales a pollution penalty by the process's factor.
func (p *Proc) pollute(base sim.Time) sim.Time {
	if p.PollutionFactor <= 0 {
		return base
	}
	return sim.Time(float64(base) * p.PollutionFactor)
}

// Spawn creates a process whose entry continuation runs when it is first
// scheduled. Processes may be spawned before or after Start.
func (k *Kernel) Spawn(name string, entry func(p *Proc)) *Proc {
	k.nextPID++
	p := &Proc{ID: k.nextPID, Name: name, k: k, state: Ready}
	p.readySince = k.eng.Now()
	p.resume = func() { entry(p) }
	k.runq = append(k.runq, p)
	if k.started && k.idle {
		k.stopIdle()
		k.dispatch()
	}
	return p
}

// mustOwnCPU panics unless p is the process the CPU is executing; the Proc
// operations are only legal from within p's own continuations.
func (p *Proc) mustOwnCPU(op string) {
	if p.k.running != p {
		panic(fmt.Sprintf("kernel: %s called on %q which does not own the CPU", op, p.Name))
	}
	if p.state != Running {
		panic(fmt.Sprintf("kernel: %s called on %q in state %d", op, p.Name, p.state))
	}
	if p.k.seg != nil {
		panic(fmt.Sprintf("kernel: %s called on %q while a segment is executing (operations are only legal from continuations)", op, p.Name))
	}
}

// Compute executes d of user-mode work, then runs then. User-mode work ends
// with no trigger state (returning to the same user code involves no kernel
// entry).
func (p *Proc) Compute(d sim.Time, then func()) {
	p.mustOwnCPU("Compute")
	p.acted = true
	p.k.startSegment(p.newSegment(segUser, "compute", d, then))
}

// Syscall executes a system call with service time d (plus the profile's
// fixed crossing overhead); its completion is a trigger state (SrcSyscall).
func (p *Proc) Syscall(name string, d sim.Time, then func()) {
	p.mustOwnCPU("Syscall")
	p.acted = true
	s := p.newSegment(segSyscall, name, d, then)
	s.remaining += p.k.prof.SyscallOverhead
	p.k.startSegment(s)
}

// Trap executes an exception handler (page fault, arithmetic trap) of
// service time d; its completion is a trigger state (SrcTrap).
func (p *Proc) Trap(name string, d sim.Time, then func()) {
	p.mustOwnCPU("Trap")
	p.acted = true
	s := p.newSegment(segTrap, name, d, then)
	s.remaining += p.k.prof.TrapOverhead
	p.k.startSegment(s)
}

// Chain executes a sequence of kernel work steps in this process's kernel
// context — e.g. the TCP/IP output loop inside a send syscall, where each
// transmitted packet is a trigger state — then runs then. Interrupts that
// arrive during the chain are queued (the loop runs at raised SPL) and
// serviced afterwards.
func (p *Proc) Chain(steps []ChainStep, then func()) {
	p.mustOwnCPU("Chain")
	p.acted = true
	k := p.k
	k.inIntr = true
	k.chProc, k.chThen = p, then
	k.chainStart(steps, nil, acctKernel, k.chProcFn)
}

// ChainC is Chain with the work expressed through the Chain interface —
// the allocation-free form for pooled protocol-output chains.
func (p *Proc) ChainC(c Chain, then func()) {
	p.mustOwnCPU("ChainC")
	p.acted = true
	k := p.k
	k.inIntr = true
	k.chProc, k.chThen = p, then
	k.chainStart(nil, c, acctKernel, k.chProcFn)
}

// Sleep blocks the process on wq; when woken, then runs once the scheduler
// picks the process again.
func (p *Proc) Sleep(wq *WaitQueue, then func()) {
	p.mustOwnCPU("Sleep")
	p.acted = true
	p.state = Blocked
	p.resume = then
	wq.ps = append(wq.ps, p)
	k := p.k
	k.running = nil
	k.dispatch()
}

func (p *Proc) newSegment(kind segKind, name string, work sim.Time, then func()) *segment {
	var w sim.Time
	if kind == segUser {
		w = p.k.prof.Work(work)
	} else {
		// Syscall/trap service time carries the fault plan's CPU-cost
		// perturbation; user computation does not.
		w = p.k.workFaulted(work)
	}
	if p.polluteNext {
		w += p.pollute(p.k.prof.CtxPollution)
		p.polluteNext = false
	}
	s := p.k.newSegment()
	s.p, s.kind, s.name, s.remaining, s.then = p, kind, name, w, then
	return s
}

// WaitQueue is a kernel sleep queue. The zero value is ready to use.
type WaitQueue struct {
	ps []*Proc
}

// Len returns the number of sleeping processes.
func (wq *WaitQueue) Len() int { return len(wq.ps) }

// WakeOne wakes the longest-sleeping process, if any, and reports whether
// one was woken.
func (wq *WaitQueue) WakeOne() bool {
	if len(wq.ps) == 0 {
		return false
	}
	p := wq.ps[0]
	wq.ps = wq.ps[1:]
	p.wake()
	return true
}

func (p *Proc) wake() {
	if p.state != Blocked {
		panic(fmt.Sprintf("kernel: wake of %q in state %d", p.Name, p.state))
	}
	p.state = Ready
	p.readySince = p.k.eng.Now()
	k := p.k
	k.runq = append(k.runq, p)
	if k.running != nil && p.Priority > k.running.Priority {
		// An I/O-bound process outranks the running one: preempt at the
		// next user-mode boundary (BSD wakes preempt timeshared hogs).
		k.reschedule = true
	}
	if k.idle {
		k.stopIdle()
		k.dispatch()
	}
}
