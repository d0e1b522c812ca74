package kernel

import (
	"testing"

	"softtimers/internal/cpu"
	"softtimers/internal/sim"
	"softtimers/internal/trace"
)

func TestKernelTracing(t *testing.T) {
	eng := sim.NewEngine(19)
	k := New(eng, cpu.PentiumII300(), Options{IdleLoop: true})
	// The idle loop alone produces thousands of trigger events per
	// simulated millisecond; size the ring to hold the whole run.
	tb := trace.New(100_000)
	k.SetTracer(tb)
	if k.tracer != tb {
		t.Fatal("tracer not attached")
	}
	k.Spawn("worker", func(p *Proc) {
		p.Compute(100*sim.Microsecond, func() {
			p.Syscall("read", 10*sim.Microsecond, func() {})
		})
	})
	k.Start()
	eng.At(50*sim.Microsecond, func() {
		k.RaiseInterrupt(SrcDisk, 5*sim.Microsecond, nil)
	})
	eng.RunFor(5 * sim.Millisecond)

	if got := len(ofKind(tb, trace.Sched)); got < 1 {
		t.Errorf("sched events = %d", got)
	}
	intrs := ofKind(tb, trace.Intr)
	foundDisk := false
	for _, e := range intrs {
		if e.Label == "disk-intr" {
			foundDisk = true
		}
	}
	if !foundDisk {
		t.Errorf("no disk interrupt traced: %v", intrs)
	}
	if got := len(ofKind(tb, trace.TriggerState)); got < 10 {
		t.Errorf("trigger events = %d, want many (idle polls)", got)
	}
	if got := len(ofKind(tb, trace.IdleEnter)); got < 1 {
		t.Errorf("idle-enter events = %d", got)
	}
	// Events must be time-ordered.
	evs := tb.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatal("trace not time-ordered")
		}
	}
}

// ofKind returns b's retained events of the given kind, oldest first.
func ofKind(b *trace.Buffer, kind trace.Kind) []trace.Event {
	var out []trace.Event
	for _, e := range b.Events() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

func TestTracingDisabledByDefault(t *testing.T) {
	eng := sim.NewEngine(20)
	k := New(eng, cpu.PentiumII300(), Options{IdleLoop: true})
	if k.tracer != nil {
		t.Fatal("tracer attached by default")
	}
	k.Start()
	eng.RunFor(sim.Millisecond) // must not panic without a tracer
}
