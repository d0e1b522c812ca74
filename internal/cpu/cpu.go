// Package cpu defines the processor cost model used by the simulated kernel.
//
// The paper's central cost argument (Sections 2 and 5.1) is that a hardware
// interrupt costs far more than the handler's useful work: the CPU must save
// and restore state, and the handler's code and data evict the interrupted
// program's cache and TLB working set, slowing it down after the handler
// returns. On the paper's 300 MHz Pentium II this totals ≈4.45 µs per
// interrupt; on a 500 MHz Pentium III it is ≈4.36 µs — i.e. interrupt cost
// does NOT scale down with CPU speed, while ordinary work does.
//
// A Profile captures those constants. "Work" durations (user computation,
// syscall service, protocol processing) scale with WorkScale; interrupt and
// context-switch costs are fixed per profile, reproducing the paper's
// scaling observation.
package cpu

import "softtimers/internal/sim"

// Profile is the cost model for one processor generation.
type Profile struct {
	// Name identifies the profile in reports, e.g. "PentiumII-300".
	Name string

	// WorkScale multiplies all workload *work* durations. The Pentium II
	// 300 MHz profile is the 1.0 baseline; a 500 MHz part runs the same
	// work in 0.6× the time.
	WorkScale float64

	// IntrDirect is the fixed cost of taking a hardware interrupt:
	// save/restore of CPU state, vectoring, and handler entry/exit.
	IntrDirect sim.Time

	// IntrPollution is the cache/TLB pollution penalty an interrupt
	// inflicts on the activity it preempted, charged to that activity's
	// remaining work when it resumes. IntrDirect+IntrPollution is the
	// per-interrupt total the paper measures (≈4.45 µs on the P-II).
	IntrPollution sim.Time

	// CtxSwitch is the direct cost of a process context switch.
	CtxSwitch sim.Time

	// CtxPollution is the locality penalty charged to the switched-to
	// process's first segment.
	CtxPollution sim.Time

	// SyscallOverhead is the fixed user/kernel crossing cost added to
	// every syscall's service time.
	SyscallOverhead sim.Time

	// TrapOverhead is the fixed cost of a trap (page fault, arithmetic
	// exception) before its handler work.
	TrapOverhead sim.Time

	// SoftCheck is the cost of the per-trigger-state soft-timer check:
	// read the clock, compare against the earliest pending event. The
	// paper measures this as having no observable impact.
	SoftCheck sim.Time

	// SoftCall is the procedure-call cost of invoking a soft-timer
	// handler from a trigger state (no state save/restore needed).
	SoftCall sim.Time

	// IdlePoll is the idle-loop iteration time: the interval at which an
	// idle CPU passes through its trigger state. Table 1's disk-bound
	// NFS workload shows ≈2 µs trigger intervals from exactly this loop.
	IdlePoll sim.Time
}

// Work converts a nominal work duration (expressed for the baseline CPU)
// into this profile's execution time, with a 1 ns floor so scaled work can
// always be scheduled.
func (p *Profile) Work(d sim.Time) sim.Time {
	w := sim.Time(float64(d) * p.WorkScale)
	if w < 1 {
		w = 1
	}
	return w
}

// Perturber injects noise into computed work durations. The fault-injection
// layer implements it to model per-syscall/trap CPU-cost variation
// (competing bus traffic, cache state, frequency steps); the kernel passes
// its installed perturber — nil when no fault plan — to PerturbedWork.
type Perturber interface {
	// PerturbWork maps an execution time to its perturbed value. It must
	// return a positive duration.
	PerturbWork(d sim.Time) sim.Time
}

// PerturbedWork is Work followed by the perturber, when one is installed.
// A nil perturber costs one comparison, keeping the clean path unchanged.
func (p *Profile) PerturbedWork(pert Perturber, d sim.Time) sim.Time {
	w := p.Work(d)
	if pert != nil {
		w = pert.PerturbWork(w)
	}
	return w
}

// IntrTotal returns the total per-interrupt overhead (direct + pollution),
// the quantity Figure 3's linear fit measures.
func (p *Profile) IntrTotal() sim.Time { return p.IntrDirect + p.IntrPollution }

// PentiumII300 models the paper's main testbed: 300 MHz Pentium II running
// FreeBSD-2.2.6. Interrupt total ≈ 4.45 µs (Section 5.1).
func PentiumII300() Profile {
	return Profile{
		Name:            "PentiumII-300",
		WorkScale:       1.0,
		IntrDirect:      sim.Micros(2.0),
		IntrPollution:   sim.Micros(2.45),
		CtxSwitch:       sim.Micros(5.0),
		CtxPollution:    sim.Micros(5.0),
		SyscallOverhead: sim.Micros(1.2),
		TrapOverhead:    sim.Micros(1.5),
		SoftCheck:       sim.Time(40), // ~12 cycles: clock read + compare
		SoftCall:        sim.Time(150),
		IdlePoll:        sim.Micros(2.0),
	}
}

// PentiumIII500 models the 500 MHz Pentium III (Xeon) check machine running
// FreeBSD-3.3: work runs 1.67× faster, interrupt total ≈ 4.36 µs.
func PentiumIII500() Profile {
	return Profile{
		Name:            "PentiumIII-500",
		WorkScale:       0.6,
		IntrDirect:      sim.Micros(1.96),
		IntrPollution:   sim.Micros(2.40),
		CtxSwitch:       sim.Micros(3.2),
		CtxPollution:    sim.Micros(4.0),
		SyscallOverhead: sim.Micros(0.75),
		TrapOverhead:    sim.Micros(0.95),
		SoftCheck:       sim.Time(25),
		SoftCall:        sim.Time(100),
		IdlePoll:        sim.Micros(1.2),
	}
}

// Alpha500 models the AlphaStation 500au (500 MHz 21164, FreeBSD-4.0-beta)
// from Section 5.1, whose interrupt overhead measured 8.64 µs — evidence
// that high interrupt cost is not unique to Intel PCs.
func Alpha500() Profile {
	return Profile{
		Name:            "Alpha-21164-500",
		WorkScale:       0.62,
		IntrDirect:      sim.Micros(4.0),
		IntrPollution:   sim.Micros(4.64),
		CtxSwitch:       sim.Micros(4.0),
		CtxPollution:    sim.Micros(5.0),
		SyscallOverhead: sim.Micros(0.9),
		TrapOverhead:    sim.Micros(1.1),
		SoftCheck:       sim.Time(30),
		SoftCall:        sim.Time(120),
		IdlePoll:        sim.Micros(1.3),
	}
}
