package kernel

import (
	"testing"

	"softtimers/internal/cpu"
	"softtimers/internal/sim"
	"softtimers/internal/stats"
)

// newTestKernel builds a kernel on a fresh engine with the baseline CPU.
func newTestKernel(opts Options) (*sim.Engine, *Kernel) {
	eng := sim.NewEngine(42)
	k := New(eng, cpu.PentiumII300(), opts)
	return eng, k
}

// steps is a fixed work chain for tests, one step per entry.
type steps []step

// step is one test chain step: work, then fn if set, then a trigger state
// unless src is SrcNone.
type step struct {
	work sim.Time
	src  Source
	fn   func()
}

func (c steps) Begin() int                    { return len(c) }
func (c steps) Step(i int) (sim.Time, Source) { return c[i].work, c[i].src }
func (c steps) End()                          {}

func (c steps) Run(i int) {
	if c[i].fn != nil {
		c[i].fn()
	}
}

func TestProcComputeRunsAndExits(t *testing.T) {
	eng, k := newTestKernel(Options{})
	done := false
	p := k.Spawn("worker", func(p *Proc) {
		p.Compute(100*sim.Microsecond, func() {
			done = true
		})
	})
	k.Start()
	eng.RunFor(10 * sim.Millisecond)
	if !done {
		t.Fatal("compute continuation never ran")
	}
	if p.state != Exited {
		t.Fatalf("proc state = %d, want Exited", p.state)
	}
	acct := k.Accounting()
	if acct.User != 100*sim.Microsecond {
		t.Fatalf("user time = %v, want 100us", acct.User)
	}
}

func TestFallingOffContinuationExits(t *testing.T) {
	eng, k := newTestKernel(Options{})
	p := k.Spawn("oneshot", func(p *Proc) {
		p.Compute(time10us, func() { /* no further operation */ })
	})
	k.Start()
	eng.RunFor(sim.Millisecond)
	if p.state != Exited {
		t.Fatalf("proc that fell off continuation should exit, state=%d", p.state)
	}
}

const time10us = 10 * sim.Microsecond

func TestSyscallEndIsTriggerState(t *testing.T) {
	eng, k := newTestKernel(Options{})
	k.Spawn("w", func(p *Proc) {
		p.Syscall("read", time10us, func() {
			p.Syscall("write", time10us, func() {})
		})
	})
	k.Start()
	eng.RunFor(sim.Millisecond)
	if got := k.Meter().BySource[SrcSyscall]; got != 2 {
		t.Fatalf("syscall trigger count = %d, want 2", got)
	}
	if k.Accounting().Syscalls != 2 {
		t.Fatalf("syscall count = %d, want 2", k.Accounting().Syscalls)
	}
}

func TestSyscallIncludesCrossingOverhead(t *testing.T) {
	eng, k := newTestKernel(Options{})
	var endAt sim.Time
	k.Spawn("w", func(p *Proc) {
		p.Syscall("read", time10us, func() {
			endAt = eng.Now()
		})
	})
	k.Start()
	eng.RunFor(sim.Millisecond)
	want := time10us + cpu.PentiumII300().SyscallOverhead
	if endAt != want {
		t.Fatalf("syscall finished at %v, want %v", endAt, want)
	}
}

func TestTrapEndIsTriggerState(t *testing.T) {
	eng, k := newTestKernel(Options{})
	k.Spawn("w", func(p *Proc) {
		p.Trap("pagefault", time10us, func() {})
	})
	k.Start()
	eng.RunFor(sim.Millisecond)
	if got := k.Meter().BySource[SrcTrap]; got != 1 {
		t.Fatalf("trap trigger count = %d, want 1", got)
	}
}

func TestInterruptPreemptsAndDelaysSegment(t *testing.T) {
	eng, k := newTestKernel(Options{IdleLoop: false})
	var finishedAt sim.Time
	k.Spawn("victim", func(p *Proc) {
		p.Compute(100*sim.Microsecond, func() {
			finishedAt = eng.Now()
		})
	})
	k.Start()
	// Interrupt at t=50us with 10us of handler work.
	eng.At(50*sim.Microsecond, func() {
		k.RaiseInterrupt(SrcDisk, time10us, nil)
	})
	eng.RunFor(900 * sim.Microsecond) // before the first hardclock tick
	prof := cpu.PentiumII300()
	// The victim loses: handler duration (direct + work) plus the
	// pollution penalty added to its remaining work.
	want := 100*sim.Microsecond + prof.IntrDirect + time10us + prof.IntrPollution
	if finishedAt != want {
		t.Fatalf("victim finished at %v, want %v", finishedAt, want)
	}
	if got := k.Meter().BySource[SrcDisk]; got != 1 {
		t.Fatalf("disk trigger count = %d, want 1", got)
	}
	if k.Accounting().Interrupts != 1 {
		t.Fatalf("interrupt count = %d", k.Accounting().Interrupts)
	}
}

func TestInterruptDuringInterruptQueues(t *testing.T) {
	eng, k := newTestKernel(Options{IdleLoop: false})
	var order []string
	k.Start()
	eng.At(10*sim.Microsecond, func() {
		k.RaiseInterrupt(SrcDisk, 20*sim.Microsecond, func() { order = append(order, "first") })
	})
	// Arrives while the first handler is executing: must queue, not nest.
	eng.At(15*sim.Microsecond, func() {
		k.RaiseInterrupt(SrcIPIntr, time10us, func() { order = append(order, "second") })
	})
	eng.RunFor(900 * sim.Microsecond) // before the first hardclock tick
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("order = %v", order)
	}
	if k.Accounting().Interrupts != 2 {
		t.Fatalf("interrupts = %d", k.Accounting().Interrupts)
	}
}

func TestSoftIRQRunsAfterInterrupts(t *testing.T) {
	eng, k := newTestKernel(Options{IdleLoop: false})
	var order []string
	k.Start()
	eng.At(time10us, func() {
		k.RaiseInterrupt(SrcIPIntr, time10us, func() {
			// Handler posts protocol processing, then a second interrupt
			// arrives before the softirq can run.
			k.PostSoftIRQ(steps{{time10us, SrcTCPIPOther, func() { order = append(order, "softirq") }}}, 1)
			k.RaiseInterrupt(SrcDisk, time10us, func() { order = append(order, "intr2") })
		})
	})
	eng.RunFor(sim.Millisecond)
	if len(order) != 2 || order[0] != "intr2" || order[1] != "softirq" {
		t.Fatalf("order = %v, want hardware interrupt before softirq", order)
	}
	if got := k.Meter().BySource[SrcTCPIPOther]; got != 1 {
		t.Fatalf("tcpip-other triggers = %d, want 1", got)
	}
}

func TestChainStepsProduceIPOutputTriggers(t *testing.T) {
	eng, k := newTestKernel(Options{})
	sent := 0
	k.Spawn("server", func(p *Proc) {
		out := make(steps, 5)
		for i := range out {
			out[i] = step{5 * sim.Microsecond, SrcIPOutput, func() { sent++ }}
		}
		// The send syscall returns, then the TCP/IP output loop runs as a
		// kernel chain with one trigger state per transmitted packet.
		p.Syscall("writev", time10us, func() {
			p.Chain(out, func() {})
		})
	})
	k.Start()
	eng.RunFor(sim.Millisecond)
	_ = sent
	if got := k.Meter().BySource[SrcIPOutput]; got != 5 {
		t.Fatalf("ip-output triggers = %d, want 5", got)
	}
	if sent != 5 {
		t.Fatalf("sent = %d, want 5", sent)
	}
}

func TestSleepWakeup(t *testing.T) {
	eng, k := newTestKernel(Options{IdleLoop: false})
	var wq WaitQueue
	var wokeAt sim.Time
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(&wq, func() {
			wokeAt = eng.Now()
		})
	})
	k.Start()
	eng.At(500*sim.Microsecond, func() {
		k.RaiseInterrupt(SrcDisk, time10us, func() { wq.WakeOne() })
	})
	eng.RunFor(sim.Millisecond)
	if wokeAt == 0 {
		t.Fatal("sleeper never woke")
	}
	if wokeAt < 500*sim.Microsecond {
		t.Fatalf("woke too early: %v", wokeAt)
	}
	if wq.Len() != 0 {
		t.Fatalf("wait queue len = %d", wq.Len())
	}
}

func TestWakeAll(t *testing.T) {
	eng, k := newTestKernel(Options{IdleLoop: false})
	var wq WaitQueue
	woke := 0
	for i := 0; i < 3; i++ {
		k.Spawn("s", func(p *Proc) {
			p.Sleep(&wq, func() {
				woke++
			})
		})
	}
	k.Start()
	eng.At(100*sim.Microsecond, func() {
		k.RaiseInterrupt(SrcDisk, time10us, func() {
			if n := wakeAll(&wq); n != 3 {
				t.Errorf("woke %d, want 3", n)
			}
		})
	})
	eng.RunFor(10 * sim.Millisecond)
	if woke != 3 {
		t.Fatalf("woke = %d, want 3", woke)
	}
}

// wakeAll wakes every process sleeping on wq and returns how many woke.
func wakeAll(wq *WaitQueue) int {
	n := 0
	for wq.WakeOne() {
		n++
	}
	return n
}

func TestRoundRobinSharing(t *testing.T) {
	eng, k := newTestKernel(Options{IdleLoop: false})
	// Two CPU-bound procs in 20ms compute chunks must alternate via
	// quantum preemption rather than run to completion serially.
	var firstDone, secondDone sim.Time
	mk := func(donep *sim.Time) func(p *Proc) {
		return func(p *Proc) {
			remaining := 3
			var loop func()
			loop = func() {
				remaining--
				if remaining == 0 {
					*donep = eng.Now()
					return
				}
				p.Compute(20*sim.Millisecond, loop)
			}
			p.Compute(20*sim.Millisecond, loop)
		}
	}
	k.Spawn("a", mk(&firstDone))
	k.Spawn("b", mk(&secondDone))
	k.Start()
	eng.RunFor(sim.Second)
	if firstDone == 0 || secondDone == 0 {
		t.Fatal("procs did not finish")
	}
	// With fair sharing both finish near 120ms; serial execution would
	// finish the first at 60ms.
	gap := secondDone - firstDone
	if gap < 0 {
		gap = -gap
	}
	if gap > 40*sim.Millisecond {
		t.Fatalf("unfair sharing: finish gap %v (first %v, second %v)", gap, firstDone, secondDone)
	}
	if k.Accounting().Switches < 5 {
		t.Fatalf("switches = %d, want several from quantum preemption", k.Accounting().Switches)
	}
}

func TestIdleLoopProducesIdleTriggers(t *testing.T) {
	eng, k := newTestKernel(Options{IdleLoop: true})
	k.Start()
	eng.RunFor(10 * sim.Millisecond)
	idle := k.Meter().BySource[SrcIdle]
	// ~2us poll over 10ms => ~5000 iterations (hardclock steals a few).
	if idle < 4000 || idle > 5100 {
		t.Fatalf("idle triggers = %d, want ~5000", idle)
	}
	acct := k.Accounting()
	if acct.Idle < 9*sim.Millisecond {
		t.Fatalf("idle time = %v, want ~10ms", acct.Idle)
	}
}

func TestIdleLoopDisabledHalts(t *testing.T) {
	eng, k := newTestKernel(Options{IdleLoop: false})
	k.Start()
	eng.RunFor(10 * sim.Millisecond)
	if got := k.Meter().BySource[SrcIdle]; got != 0 {
		t.Fatalf("idle triggers = %d with idle loop disabled", got)
	}
	// Hardclock still ticks: ~10 interrupts.
	if got := k.Meter().BySource[SrcHardClock]; got < 9 || got > 11 {
		t.Fatalf("hardclock triggers = %d, want ~10", got)
	}
}

func TestHardclockBoundsTriggerGap(t *testing.T) {
	// Even a fully compute-bound process without syscalls cannot keep the
	// system out of trigger states longer than one hardclock period.
	eng, k := newTestKernel(Options{IdleLoop: false})
	k.Spawn("spin", func(p *Proc) {
		var loop func()
		loop = func() { p.Compute(100*sim.Millisecond, loop) }
		loop()
	})
	var maxGap sim.Time
	k.Meter().Trace = func(_ sim.Time, iv sim.Time, _ Source) {
		if iv > maxGap {
			maxGap = iv
		}
	}
	k.Start()
	eng.RunFor(2 * sim.Second)
	if maxGap > sim.Millisecond+50*sim.Microsecond {
		t.Fatalf("max trigger gap = %v, want <= ~1ms (hardclock backup)", maxGap)
	}
	if maxGap < 900*sim.Microsecond {
		t.Fatalf("max trigger gap = %v suspiciously small for pure compute", maxGap)
	}
}

// TestHardclockTicksFromStart starts a halting kernel at 0, half a period
// and one and a half periods: its hardclock must tick once per period
// from the moment it started, each tick's trigger state as far past its
// tick as at start 0 (the interrupt's entry and work). A kernel started
// past the first period used to put tick n at n periods from time 0,
// behind its clock.
func TestHardclockTicksFromStart(t *testing.T) {
	var cost sim.Time // tick to trigger state, as start 0 reads it
	for _, start := range []sim.Time{0, TickPeriod / 2, 3 * TickPeriod / 2} {
		eng, k := newTestKernel(Options{})
		var ends []sim.Time
		k.SetTriggerSink(sinkFunc(func(src Source, now sim.Time) sim.Time {
			if src == SrcHardClock {
				ends = append(ends, now)
			}
			return 0
		}))
		eng.RunUntil(start)
		k.Start()
		eng.RunUntil(start + 10*TickPeriod + TickPeriod/2)
		if len(ends) != 10 {
			t.Fatalf("start %v: %d hardclock trigger states in 10.5 periods, want 10", start, len(ends))
		}
		if start == 0 {
			cost = ends[0] - TickPeriod
		}
		for i, at := range ends {
			if want := start + sim.Time(i+1)*TickPeriod + cost; at != want {
				t.Fatalf("start %v: tick %d's trigger state at %v, want %v", start, i+1, at, want)
			}
		}
	}
}

func TestDisabledSourcesSuppressed(t *testing.T) {
	eng, k := newTestKernel(Options{
		IdleLoop:        false,
		DisabledSources: map[Source]bool{SrcSyscall: true},
	})
	k.Spawn("w", func(p *Proc) {
		p.Syscall("read", time10us, func() {})
	})
	k.Start()
	eng.RunFor(sim.Millisecond)
	if got := k.Meter().BySource[SrcSyscall]; got != 0 {
		t.Fatalf("suppressed source recorded %d triggers", got)
	}
	// The syscall itself still executed.
	if k.Accounting().Syscalls != 1 {
		t.Fatal("suppressing the trigger must not suppress the work")
	}
}

func TestPITDeliversAtFrequency(t *testing.T) {
	eng, k := newTestKernel(Options{IdleLoop: false})
	pit := k.NewPIT(100*sim.Microsecond, 0, nil)
	k.Start()
	pit.Start()
	eng.RunFor(100 * sim.Millisecond)
	// 1000 ticks in 100ms; nearly all delivered on an idle system.
	if pit.Fires < 990 || pit.Fires > 1001 {
		t.Fatalf("PIT fires = %d, want ~1000", pit.Fires)
	}
}

func TestPITLosesTicksUnderPressure(t *testing.T) {
	// A PIT period far below the handler cost must lose ticks (merged
	// interrupts), as FreeBSD loses timer interrupts with interrupts
	// disabled — it must NOT queue unboundedly.
	eng, k := newTestKernel(Options{IdleLoop: false})
	pit := k.NewPIT(sim.Microsecond, 5*sim.Microsecond, nil)
	k.Start()
	pit.Start()
	eng.RunFor(10 * sim.Millisecond)
	if pit.Lost == 0 {
		t.Fatal("expected lost ticks at 1us period with 5us handlers")
	}
	if pit.Fires+pit.Lost < 9000 {
		t.Fatalf("fires+lost = %d, want ~10000", pit.Fires+pit.Lost)
	}
}

func TestAccountingConservation(t *testing.T) {
	// Busy + Idle must equal elapsed time for a mixed workload.
	eng, k := newTestKernel(Options{IdleLoop: true})
	var wq WaitQueue
	k.Spawn("mix", func(p *Proc) {
		var loop func()
		loop = func() {
			p.Compute(200*sim.Microsecond, func() {
				p.Syscall("io", 50*sim.Microsecond, func() {
					p.Sleep(&wq, loop)
				})
			})
		}
		loop()
	})
	k.Start()
	// Disk completion wakes the proc every ms.
	var tickDisk func()
	tickDisk = func() {
		k.RaiseInterrupt(SrcDisk, 5*sim.Microsecond, func() { wq.WakeOne() })
		eng.After(sim.Millisecond, tickDisk)
	}
	eng.After(sim.Millisecond, tickDisk)
	total := 500 * sim.Millisecond
	eng.RunFor(total)
	a := k.Accounting()
	sum := a.Busy() + a.Idle
	diff := total - sum
	if diff < 0 {
		diff = -diff
	}
	// Small slack: a segment can be mid-flight at the horizon.
	if diff > sim.Millisecond {
		t.Fatalf("accounting leak: busy=%v idle=%v sum=%v elapsed=%v", a.Busy(), a.Idle, sum, total)
	}
}

func TestTriggerSinkConsumesTime(t *testing.T) {
	// A sink that runs a 20us handler at each syscall trigger must delay
	// the process by exactly that much.
	eng, k := newTestKernel(Options{IdleLoop: false})
	fired := 0
	k.SetTriggerSink(sinkFunc(func(src Source, now sim.Time) sim.Time {
		if src == SrcSyscall {
			fired++
			return 20 * sim.Microsecond
		}
		return 0
	}))
	var doneAt sim.Time
	k.Spawn("w", func(p *Proc) {
		p.Syscall("read", time10us, func() {
			p.Compute(time10us, func() {
				doneAt = eng.Now()
			})
		})
	})
	k.Start()
	eng.RunFor(sim.Millisecond)
	prof := cpu.PentiumII300()
	want := time10us + prof.SyscallOverhead + 20*sim.Microsecond + time10us
	if doneAt != want {
		t.Fatalf("done at %v, want %v", doneAt, want)
	}
	if fired != 1 {
		t.Fatalf("sink fired %d times at syscall, want 1", fired)
	}
	if k.Accounting().SoftTimer != 20*sim.Microsecond {
		t.Fatalf("SoftTimer accounting = %v", k.Accounting().SoftTimer)
	}
}

type sinkFunc func(Source, sim.Time) sim.Time

func (f sinkFunc) Trigger(src Source, now sim.Time) sim.Time { return f(src, now) }

func TestMeterIntervals(t *testing.T) {
	m := &TriggerMeter{Hist: stats.NewHistogram(1, 2000)}
	m.record(10*sim.Microsecond, SrcSyscall)
	m.record(15*sim.Microsecond, SrcIPOutput)
	m.record(35*sim.Microsecond, SrcSyscall)
	if m.N() != 2 {
		t.Fatalf("N = %d, want 2 (first sample starts the clock)", m.N())
	}
	if m.BySource[SrcSyscall] != 2 || m.BySource[SrcIPOutput] != 1 {
		t.Fatalf("per-source counts wrong: %v", m.BySource)
	}
	if got := m.Hist.Mean(); got != 12.5 {
		t.Fatalf("mean interval = %v us, want 12.5", got)
	}
}

func TestSourceString(t *testing.T) {
	if SrcSyscall.String() != "syscalls" || SrcIPOutput.String() != "ip-output" {
		t.Fatal("source names wrong")
	}
	if Source(99).String() == "" {
		t.Fatal("out-of-range source must still format")
	}
}

func TestStartTwicePanics(t *testing.T) {
	_, k := newTestKernel(Options{})
	k.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("second Start did not panic")
		}
	}()
	k.Start()
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int64, sim.Time) {
		eng, k := newTestKernel(Options{IdleLoop: true})
		var wq WaitQueue
		k.Spawn("w", func(p *Proc) {
			var loop func()
			loop = func() {
				p.Compute(eng.Rand().ExpTime(100*sim.Microsecond), func() {
					p.Syscall("s", eng.Rand().ExpTime(20*sim.Microsecond), func() {
						p.Sleep(&wq, loop)
					})
				})
			}
			loop()
		})
		k.Start()
		var kickDisk func()
		kickDisk = func() {
			k.RaiseInterrupt(SrcDisk, 5*sim.Microsecond, func() { wq.WakeOne() })
			eng.After(eng.Rand().ExpTime(300*sim.Microsecond), kickDisk)
		}
		eng.After(sim.Millisecond, kickDisk)
		eng.RunFor(200 * sim.Millisecond)
		return k.Meter().N(), k.Accounting().Busy()
	}
	n1, b1 := run()
	n2, b2 := run()
	if n1 != n2 || b1 != b2 {
		t.Fatalf("nondeterministic: (%d,%v) vs (%d,%v)", n1, b1, n2, b2)
	}
	if n1 == 0 {
		t.Fatal("no triggers recorded")
	}
}

// BenchmarkKernelTrigger times the kernel's own share of a trigger state —
// the disabled and starved checks, the trace hook and the meter record —
// with a no-op sink, so the facility's share (BenchmarkFacilityCheck in
// internal/core) is left out. Each op is one hardclock trigger state 1 ms
// after the last; the engine holds no events, so RunFor only moves the
// clock.
func BenchmarkKernelTrigger(b *testing.B) {
	eng, k := newTestKernel(Options{})
	k.SetTriggerSink(sinkFunc(func(Source, sim.Time) sim.Time { return 0 }))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunFor(sim.Millisecond)
		k.checkTrigger(SrcHardClock)
	}
}
