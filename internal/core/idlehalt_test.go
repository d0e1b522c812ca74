package core

import (
	"testing"

	"softtimers/internal/cpu"
	"softtimers/internal/kernel"
	"softtimers/internal/sim"
)

// newIdleHaltRig builds an otherwise-idle kernel with the power-saving
// idle-halt rule enabled.
func newIdleHaltRig() (*sim.Engine, *kernel.Kernel, *Facility) {
	eng := sim.NewEngine(21)
	k := kernel.New(eng, cpu.PentiumII300(), kernel.Options{IdleLoop: true, IdleHalt: true})
	f := New(k, Options{})
	return eng, k, f
}

func TestIdleHaltStopsPollingWhenNoEvents(t *testing.T) {
	eng, k, _ := newIdleHaltRig()
	k.Start()
	eng.RunFor(100 * sim.Millisecond)
	// With no soft events the CPU must halt: only hardclock trigger
	// states, no idle polls.
	if got := k.Meter().BySource[kernel.SrcIdle]; got != 0 {
		t.Fatalf("idle polls = %d with nothing scheduled, want 0 (halted)", got)
	}
	if k.Accounting().IdleHalts == 0 {
		t.Fatal("no idle halts recorded")
	}
	if got := k.Meter().BySource[kernel.SrcHardClock]; got < 90 {
		t.Fatalf("hardclock triggers = %d, want ~100", got)
	}
}

func TestIdleHaltKeepsPollingWhileEventPending(t *testing.T) {
	eng, k, f := newIdleHaltRig()
	k.Start()
	var firedAt sim.Time
	f.ScheduleSoftEvent(200, func(now sim.Time) sim.Time { // due at ~200us
		firedAt = now
		return 0
	})
	eng.RunFor(10 * sim.Millisecond)
	if firedAt == 0 {
		t.Fatal("event never fired")
	}
	// The idle loop must have kept polling (the event is before the next
	// tick once within 1ms of it), so the event fires with idle-loop
	// precision, not at the 1ms hardclock.
	if firedAt > 250*sim.Microsecond {
		t.Fatalf("event fired at %v — idle loop did not poll for it", firedAt)
	}
	if got := k.Meter().BySource[kernel.SrcIdle]; got == 0 {
		t.Fatal("no idle polls while an event was pending")
	}
	// After the event fires, the CPU halts again: poll count stops.
	polls := k.Meter().BySource[kernel.SrcIdle]
	eng.RunFor(50 * sim.Millisecond)
	after := k.Meter().BySource[kernel.SrcIdle]
	if after != polls {
		t.Fatalf("idle polls kept accumulating after the last event: %d -> %d", polls, after)
	}
}

// The halt decision compares the event's deadline with the hardclock's own
// next tick, which falls a whole period after the kernel started, not on a
// multiple of the period from time 0. An event due before that tick fires
// with idle-poll precision whatever the kernel's start time.
func TestIdleHaltFollowsHardclockPhase(t *testing.T) {
	for _, start := range []sim.Time{0, kernel.TickPeriod / 2} {
		eng, k, f := newIdleHaltRig()
		eng.RunUntil(start)
		k.Start()
		var due, firedAt sim.Time
		eng.At(start+100*sim.Microsecond, func() {
			due = eng.Now() + 700*sim.Microsecond
			f.ScheduleSoftEvent(700, func(now sim.Time) sim.Time {
				firedAt = now
				return 0
			})
		})
		eng.RunFor(5 * sim.Millisecond)
		if firedAt == 0 {
			t.Fatalf("start %v: event never fired", start)
		}
		if late := firedAt - due; late < 0 || late > 2*k.Profile().IdlePoll {
			t.Errorf("start %v: event due at %v fired at %v (%v late), want within two idle polls",
				start, due, firedAt, late)
		}
	}
}

func TestIdleHaltFarFutureEventStillHalts(t *testing.T) {
	// An event 500ms out does not justify spinning: the CPU halts, and
	// closer to the deadline (within one tick) polling resumes; the
	// event still fires within the interrupt-clock bound.
	eng, k, f := newIdleHaltRig()
	k.Start()
	var firedAt sim.Time
	const T = 500_000 // 500ms in 1us ticks
	f.ScheduleSoftEvent(T, func(now sim.Time) sim.Time {
		firedAt = now
		return 0
	})
	eng.RunFor(sim.Second)
	if firedAt == 0 {
		t.Fatal("event never fired")
	}
	latency := firedAt
	if latency < 500*sim.Millisecond || latency > 502*sim.Millisecond {
		t.Fatalf("event fired at %v, want within a tick of 500ms", latency)
	}
	// The CPU must have mostly halted: far fewer than the ~250k polls a
	// spinning loop would do in 500ms.
	if polls := k.Meter().BySource[kernel.SrcIdle]; polls > 5000 {
		t.Fatalf("idle polls = %d, want mostly halted", polls)
	}
}

func TestIdleHaltPreservesInterruptWakeups(t *testing.T) {
	eng, k, _ := newIdleHaltRig()
	k.Start()
	woke := false
	eng.At(10*sim.Millisecond, func() {
		k.RaiseInterrupt(kernel.SrcDisk, sim.Microsecond, func() { woke = true })
	})
	eng.RunFor(20 * sim.Millisecond)
	if !woke {
		t.Fatal("interrupt did not wake the halted CPU")
	}
}
