package kernel

import (
	"testing"

	"softtimers/internal/cpu"
	"softtimers/internal/sim"
)

func TestKernelAccessors(t *testing.T) {
	eng := sim.NewEngine(1)
	k := New(eng, cpu.PentiumII300(), Options{})
	if k.Engine() != eng {
		t.Error("Engine() mismatch")
	}
	if k.Profile().Name != "PentiumII-300" {
		t.Error("Profile() mismatch")
	}
	if TickPeriod != sim.Millisecond {
		t.Errorf("TickPeriod = %v", TickPeriod)
	}
	k.Start()
	// Run slightly past the 10ms boundary: the tick interrupt raised at
	// exactly 10ms takes a few µs of handler time to count.
	eng.RunFor(10*sim.Millisecond + 100*sim.Microsecond)
	if k.Now() != eng.Now() {
		t.Error("Now() mismatch")
	}
	if k.tick != 10 {
		t.Errorf("tick = %d past 10ms at %d Hz, want 10", k.tick, Hz)
	}
	if k.Idle() != true {
		t.Error("Idle() should be true with no work (halted idle)")
	}
}

func TestPostSoftIRQEmptyIsNoop(t *testing.T) {
	eng := sim.NewEngine(2)
	k := New(eng, cpu.PentiumII300(), Options{IdleLoop: false})
	k.Start()
	k.PostSoftIRQ() // no steps: nothing should happen
	eng.RunFor(sim.Millisecond)
	if k.Accounting().SoftIRQ != 0 {
		t.Fatal("empty PostSoftIRQ consumed time")
	}
}

func TestPostSoftIRQChainNilPanics(t *testing.T) {
	eng := sim.NewEngine(3)
	k := New(eng, cpu.PentiumII300(), Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	k.PostSoftIRQChain(nil, 0)
}

// batchChain is a one-step Chain that takes, when the softirq runs, every
// item pending by then.
type batchChain struct {
	pending, batch []int
}

func (c *batchChain) Begin() int {
	c.batch, c.pending = c.pending, nil
	return 1
}
func (c *batchChain) Step(int) (sim.Time, Source) { return sim.Microsecond, SrcNone }
func (c *batchChain) Run(int)                     {}
func (c *batchChain) End()                        {}

func TestPostSoftIRQChainBatches(t *testing.T) {
	eng := sim.NewEngine(4)
	k := New(eng, cpu.PentiumII300(), Options{IdleLoop: false})
	k.Start()
	c := &batchChain{pending: []int{1}}
	// Raise an interrupt whose handler posts the chain softirq and
	// appends more work before the softirq runs (queued behind a second
	// interrupt): the chain must see everything.
	eng.At(10*sim.Microsecond, func() {
		k.RaiseInterrupt(SrcIPIntr, 5*sim.Microsecond, func() {
			k.PostSoftIRQChain(c, 0)
			// A second interrupt queued while the first runs adds work
			// before the softirq executes.
			k.RaiseInterrupt(SrcIPIntr, 5*sim.Microsecond, func() {
				c.pending = append(c.pending, 2)
			})
		})
	})
	eng.RunFor(sim.Millisecond)
	if len(c.batch) != 2 {
		t.Fatalf("chain saw batch %v, want both items", c.batch)
	}
}

func TestPITAccessors(t *testing.T) {
	eng := sim.NewEngine(5)
	k := New(eng, cpu.PentiumII300(), Options{})
	pit := k.NewPIT(100*sim.Microsecond, 0, nil)
	if pit.period != 100*sim.Microsecond {
		t.Errorf("period = %v", pit.period)
	}
	if pit.running {
		t.Error("running before Start")
	}
	pit.Start()
	pit.Start() // idempotent
	if !pit.running {
		t.Error("not running after Start")
	}
	eng.RunFor(sim.Millisecond)
	if pit.n != 10 {
		t.Errorf("%d ticks in 1 ms at a 100 µs period, want 10 (a second Start must not add a tick stream)", pit.n)
	}
}

func TestPITValidation(t *testing.T) {
	eng := sim.NewEngine(6)
	k := New(eng, cpu.PentiumII300(), Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero period")
		}
	}()
	k.NewPIT(0, 0, nil)
}

func TestMeterTraceCallback(t *testing.T) {
	eng := sim.NewEngine(7)
	k := New(eng, cpu.PentiumII300(), Options{IdleLoop: false})
	var srcs []Source
	k.Meter().Trace = func(_ sim.Time, _ sim.Time, src Source) { srcs = append(srcs, src) }
	k.Spawn("w", func(p *Proc) {
		p.Syscall("a", sim.Microsecond, func() {
			p.Syscall("b", sim.Microsecond, func() {})
		})
	})
	k.Start()
	eng.RunFor(sim.Millisecond)
	// The first trigger starts the interval clock; the trace sees the
	// second onward.
	if len(srcs) < 1 || srcs[0] != SrcSyscall {
		t.Fatalf("trace srcs = %v", srcs)
	}
}
