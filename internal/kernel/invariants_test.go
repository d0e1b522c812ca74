package kernel

import (
	"testing"
	"testing/quick"

	"softtimers/internal/cpu"
	"softtimers/internal/sim"
)

// TestPropertyAccountingConservation: under arbitrary mixes of processes,
// interrupts, softirqs and sleeps, accounted busy + idle time equals
// elapsed simulated time (within one in-flight segment of slack), and no
// counter goes negative.
func TestPropertyAccountingConservation(t *testing.T) {
	f := func(seed uint64, nprocRaw, intrRateRaw, sirqRateRaw uint8) bool {
		eng := sim.NewEngine(seed)
		k := New(eng, cpu.PentiumII300(), Options{IdleLoop: seed%2 == 0})
		rng := eng.Rand().Fork()
		nproc := int(nprocRaw%4) + 1
		var wq WaitQueue
		for i := 0; i < nproc; i++ {
			k.Spawn("p", func(p *Proc) {
				var loop func()
				loop = func() {
					p.Compute(rng.ExpTime(80*sim.Microsecond), func() {
						switch rng.Intn(3) {
						case 0:
							p.Syscall("s", rng.ExpTime(15*sim.Microsecond), loop)
						case 1:
							p.Trap("t", rng.ExpTime(8*sim.Microsecond), loop)
						default:
							p.Sleep(&wq, loop)
						}
					})
				}
				loop()
			})
		}
		k.Start()
		// Random interrupt and softirq storms; interrupts also wake
		// sleepers so the system never wedges.
		intrGap := sim.Time(intrRateRaw%200+20) * sim.Microsecond
		var storm func()
		storm = func() {
			k.RaiseInterrupt(SrcDisk, rng.ExpTime(4*sim.Microsecond), func() {
				wakeAll(&wq)
			})
			if sirqRateRaw%3 == 0 {
				k.PostSoftIRQ(ChainStep{Work: rng.ExpTime(6 * sim.Microsecond), Src: SrcTCPIPOther})
			}
			eng.After(rng.ExpTime(intrGap), storm)
		}
		eng.After(sim.Millisecond, storm)

		total := 200 * sim.Millisecond
		eng.RunFor(total)
		a := k.Accounting()
		sum := a.Busy() + a.Idle
		diff := total - sum
		if diff < 0 {
			diff = -diff
		}
		if diff > 2*sim.Millisecond {
			return false
		}
		for _, v := range []sim.Time{a.User, a.Kernel, a.Intr, a.SoftIRQ, a.CtxSwitch, a.Idle} {
			if v < 0 {
				return false
			}
		}
		return a.Interrupts > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyTriggerTimesMonotone: the meter's trigger timestamps never
// decrease and intervals are never negative, regardless of workload.
func TestPropertyTriggerMonotone(t *testing.T) {
	f := func(seed uint64, loadRaw uint8) bool {
		eng := sim.NewEngine(seed)
		k := New(eng, cpu.PentiumII300(), Options{IdleLoop: true})
		rng := eng.Rand().Fork()
		k.Spawn("w", func(p *Proc) {
			var loop func()
			loop = func() {
				p.Compute(rng.ExpTime(sim.Time(loadRaw%50+1)*sim.Microsecond), func() {
					p.Syscall("s", 3*sim.Microsecond, loop)
				})
			}
			loop()
		})
		ok := true
		var last sim.Time = -1
		k.Meter().Trace = func(now sim.Time, iv sim.Time, _ Source) {
			if now < last || iv < 0 {
				ok = false
			}
			last = now
		}
		k.Start()
		eng.RunFor(50 * sim.Millisecond)
		return ok && k.Meter().N() > 100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestChainInterleavedWithInterrupts: interrupts arriving during a kernel
// chain are queued (SPL raised) and serviced after it, and the chain's
// trigger states all still fire.
func TestChainInterleavedWithInterrupts(t *testing.T) {
	eng := sim.NewEngine(5)
	k := New(eng, cpu.PentiumII300(), Options{IdleLoop: false})
	var order []string
	k.Spawn("w", func(p *Proc) {
		p.Syscall("send", 5*sim.Microsecond, func() {
			steps := []ChainStep{
				{Work: 20 * sim.Microsecond, Src: SrcIPOutput, Fn: func() { order = append(order, "pkt1") }},
				{Work: 20 * sim.Microsecond, Src: SrcIPOutput, Fn: func() { order = append(order, "pkt2") }},
			}
			p.Chain(steps, func() {})
		})
	})
	k.Start()
	// Interrupt lands mid-chain (during the first step).
	eng.At(15*sim.Microsecond, func() {
		k.RaiseInterrupt(SrcDisk, 2*sim.Microsecond, func() { order = append(order, "disk") })
	})
	eng.RunFor(sim.Millisecond)
	want := []string{"pkt1", "pkt2", "disk"}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want chain to complete before queued interrupt", order)
		}
	}
	if got := k.Meter().BySource[SrcIPOutput]; got != 2 {
		t.Fatalf("ip-output triggers = %d", got)
	}
}

// TestStarvationAgingGivesHogTimeslices: a nice'd compute hog on a fully
// loaded system still receives occasional CPU via aging.
func TestStarvationAgingGivesHogTimeslices(t *testing.T) {
	eng := sim.NewEngine(6)
	k := New(eng, cpu.PentiumII300(), Options{IdleLoop: false})
	k.starveBoost = 100 * sim.Millisecond
	// A high-priority proc that never blocks, only yields to itself via
	// syscalls — keeps the CPU busy forever.
	k.Spawn("busy", func(p *Proc) {
		var loop func()
		loop = func() {
			p.Compute(50*sim.Microsecond, func() { p.Syscall("s", 5*sim.Microsecond, loop) })
		}
		loop()
	})
	// Each completed loop iteration represents exactly 1ms of hog CPU
	// time, however long the hog waited in between.
	hogLoops := 0
	hog := k.Spawn("hog", func(p *Proc) {
		var loop func()
		loop = func() {
			p.Compute(sim.Millisecond, func() {
				hogLoops++
				loop()
			})
		}
		loop()
	})
	hog.Priority = -1
	k.Start()
	eng.RunFor(2 * sim.Second)
	if hogLoops == 0 {
		t.Fatal("aging never gave the hog a timeslice")
	}
	frac := float64(hogLoops) * sim.Millisecond.Seconds() / 2
	if frac > 0.25 {
		t.Fatalf("hog got %.0f%% of the CPU; aging too generous", frac*100)
	}
	// With a 100ms aging period and tick-granularity preemption by the
	// higher-priority process, the hog gets ~one 1ms slice per aging
	// period: ~1% of the CPU.
	if frac < 0.003 {
		t.Fatalf("hog got only %.2f%% of the CPU; aging ineffective", frac*100)
	}
}

// TestWakeAllFromProcContext: a process waking others keeps running; the
// woken ones queue behind it.
func TestWakeAllFromProcContext(t *testing.T) {
	eng := sim.NewEngine(7)
	k := New(eng, cpu.PentiumII300(), Options{IdleLoop: false})
	var wq WaitQueue
	var order []string
	for i := 0; i < 2; i++ {
		name := string(rune('a' + i))
		k.Spawn("sleeper-"+name, func(p *Proc) {
			p.Sleep(&wq, func() {
				order = append(order, name)
			})
		})
	}
	k.Spawn("waker", func(p *Proc) {
		p.Compute(50*sim.Microsecond, func() {
			wakeAll(&wq)
			p.Compute(30*sim.Microsecond, func() {
				order = append(order, "waker-done")
			})
		})
	})
	k.Start()
	eng.RunFor(sim.Millisecond)
	if len(order) != 3 || order[0] != "waker-done" {
		t.Fatalf("order = %v, want waker to finish its slice first", order)
	}
}

// TestDoubleSleepPanics guards the WaitQueue contract.
func TestWakeOfRunningPanics(t *testing.T) {
	eng := sim.NewEngine(8)
	k := New(eng, cpu.PentiumII300(), Options{IdleLoop: false})
	var wq WaitQueue
	k.Spawn("p", func(p *Proc) {
		// Manually corrupt: put a running proc on a wait queue.
		wq.ps = append(wq.ps, p)
		p.Compute(10*sim.Microsecond, func() {})
	})
	k.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("waking a non-blocked proc did not panic")
		}
	}()
	eng.At(sim.Microsecond, func() { wq.WakeOne() })
	eng.RunFor(sim.Millisecond)
}
