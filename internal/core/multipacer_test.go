package core

import (
	"math"
	"testing"

	"softtimers/internal/kernel"
	"softtimers/internal/sim"
)

func TestMultiPacerValidation(t *testing.T) {
	_, k, f := newRig(kernel.Options{IdleLoop: true}, Options{})
	_ = k
	m := NewMultiPacer(f)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero target did not panic")
			}
		}()
		m.AddFlow(1, 0, 0, nil)
	}()
	m.AddFlow(1, 100*sim.Microsecond, 10*sim.Microsecond,
		func(sim.Time) (sim.Time, bool) { return 0, true })
	defer func() {
		if recover() == nil {
			t.Error("duplicate flow did not panic")
		}
	}()
	m.AddFlow(1, 100*sim.Microsecond, 10*sim.Microsecond, nil)
}

func TestMultiPacerTwoRatesSimultaneously(t *testing.T) {
	// The capability hardware timers lack: clock one flow every 40us and
	// another every 100us at the same time, from one event stream.
	eng, k, f := newRig(kernel.Options{IdleLoop: true}, Options{})
	k.Start()
	m := NewMultiPacer(f)
	sent := map[int]int{}
	mk := func(id, limit int) func(sim.Time) (sim.Time, bool) {
		return func(sim.Time) (sim.Time, bool) {
			sent[id]++
			return sim.Microsecond, sent[id] < limit
		}
	}
	m.AddFlow(1, 40*sim.Microsecond, 12*sim.Microsecond, mk(1, 2000))
	m.AddFlow(2, 100*sim.Microsecond, 12*sim.Microsecond, mk(2, 800))
	eng.RunFor(100 * sim.Millisecond)
	if sent[1] != 2000 || sent[2] != 800 {
		t.Fatalf("sent = %v, want both trains complete", sent)
	}
	// Rates: flow 1 should finish ~2000*40us = 80ms; flow 2 ~800*100us =
	// 80ms — both complete within the run and at distinct rates. Verify
	// flows were NOT serialized: combined duration far below the sum.
	if len(m.flows) != 0 {
		t.Fatalf("flows remaining = %d", len(m.flows))
	}
}

func TestMultiPacerHoldsPerFlowRates(t *testing.T) {
	eng, k, f := newRig(kernel.Options{IdleLoop: true}, Options{})
	k.Start()
	m := NewMultiPacer(f)
	const n = 1000
	c1, c2 := 0, 0
	var end1, end2 sim.Time
	m.AddFlow(1, 50*sim.Microsecond, 12*sim.Microsecond, func(now sim.Time) (sim.Time, bool) {
		c1++
		end1 = now
		return 500, c1 < n
	})
	m.AddFlow(2, 150*sim.Microsecond, 12*sim.Microsecond, func(now sim.Time) (sim.Time, bool) {
		c2++
		end2 = now
		return 500, c2 < n
	})
	eng.RunFor(sim.Second)
	if c1 != n || c2 != n {
		t.Fatalf("sent %d/%d", c1, c2)
	}
	r1 := end1.Seconds() / (float64(n) * 50e-6)
	r2 := end2.Seconds() / (float64(n) * 150e-6)
	if math.Abs(r1-1) > 0.1 {
		t.Errorf("flow 1 duration ratio = %.2f, want ~1 (held 50us rate)", r1)
	}
	if math.Abs(r2-1) > 0.1 {
		t.Errorf("flow 2 duration ratio = %.2f, want ~1 (held 150us rate)", r2)
	}
}

func TestMultiPacerSingleEventOutstanding(t *testing.T) {
	eng, k, f := newRig(kernel.Options{IdleLoop: true}, Options{})
	k.Start()
	m := NewMultiPacer(f)
	for id := 1; id <= 10; id++ {
		id := id
		m.AddFlow(id, sim.Time(id)*30*sim.Microsecond, 12*sim.Microsecond,
			func(sim.Time) (sim.Time, bool) { return 0, true })
	}
	eng.RunFor(10 * sim.Millisecond)
	// 10 flows but never more than one pending soft event.
	if p := f.wheel.Len(); p > 1 {
		t.Fatalf("pending events = %d, want <= 1", p)
	}
	if len(m.flows) != 10 {
		t.Fatalf("flows = %d", len(m.flows))
	}
}

func TestMultiPacerSharedEventServesMultipleDueFlows(t *testing.T) {
	// Two flows at the same rate become due together: one soft event
	// must service both (the paper: multiple packets on different
	// connections per trigger state).
	eng, k, f := newRig(kernel.Options{IdleLoop: true}, Options{})
	k.Start()
	m := NewMultiPacer(f)
	var times1, times2 []sim.Time
	m.AddFlow(1, 100*sim.Microsecond, 12*sim.Microsecond,
		func(now sim.Time) (sim.Time, bool) { times1 = append(times1, now); return 0, len(times1) < 20 })
	m.AddFlow(2, 100*sim.Microsecond, 12*sim.Microsecond,
		func(now sim.Time) (sim.Time, bool) { times2 = append(times2, now); return 0, len(times2) < 20 })
	eng.RunFor(5 * sim.Millisecond)
	if len(times1) != 20 || len(times2) != 20 {
		t.Fatalf("sent %d/%d", len(times1), len(times2))
	}
	same := 0
	for i := range times1 {
		if times1[i] == times2[i] {
			same++
		}
	}
	if same < 15 {
		t.Fatalf("only %d/20 transmissions shared an event; flows should batch", same)
	}
	st := f.Stats()
	if st.Fired >= 40 {
		t.Fatalf("fired %d events for 40 sends; sharing broken", st.Fired)
	}
}

func TestMultiPacerDeterministicOrder(t *testing.T) {
	run := func() []int {
		eng, k, f := newRig(kernel.Options{IdleLoop: true}, Options{})
		k.Start()
		m := NewMultiPacer(f)
		var order []int
		for id := 5; id >= 1; id-- {
			id := id
			m.AddFlow(id, 80*sim.Microsecond, 12*sim.Microsecond,
				func(sim.Time) (sim.Time, bool) {
					order = append(order, id)
					return 0, len(order) < 50
				})
		}
		eng.RunFor(5 * sim.Millisecond)
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order diverges at %d: %d vs %d (map iteration leaked in)", i, a[i], b[i])
		}
	}
}

// TestMultiPacerFireAllocs drives two warm flows, at 40 µs and 60 µs
// targets, for 10 ms of virtual time per measured run (416 packets). A
// firing allocates nothing of its own; what remains is the amortized
// growth of each flow's interval sample, well under one allocation per 50
// packets.
func TestMultiPacerFireAllocs(t *testing.T) {
	eng, k, f := newRig(kernel.Options{IdleLoop: true}, Options{})
	k.Start()
	m := NewMultiPacer(f)
	sent := 0
	send := func(sim.Time) (sim.Time, bool) { sent++; return sim.Microsecond, true }
	m.AddFlow(1, 40*sim.Microsecond, 12*sim.Microsecond, send)
	m.AddFlow(2, 60*sim.Microsecond, 12*sim.Microsecond, send)
	eng.RunFor(10 * sim.Millisecond) // warm the engine's and the facility's pools
	const runs = 20
	before := sent
	allocs := testing.AllocsPerRun(runs, func() { eng.RunFor(10 * sim.Millisecond) })
	perRun := float64(sent-before) / (runs + 1) // AllocsPerRun adds one warm-up run
	if perRun < 400 {
		t.Fatalf("sent %.0f packets per 10 ms, want the two flows' 416", perRun)
	}
	if allocs*50 >= perRun {
		t.Fatalf("%.0f allocations per %.0f packets, want under one per 50", allocs, perRun)
	}
}
