package timerwheel

import "testing"

// TestScheduleFreeFires checks that pooled timers behave like handled ones
// observationally: they fire at (or after) their deadline with the advance
// tick, on both wheel variants.
func TestScheduleFreeFires(t *testing.T) {
	for name, q := range makeQueues() {
		var fired []Tick
		q.ScheduleFree(5, func(now Tick) { fired = append(fired, now) })
		q.ScheduleFree(10, func(now Tick) { fired = append(fired, now) })
		if q.Len() != 2 {
			t.Fatalf("%s: Len = %d, want 2", name, q.Len())
		}
		if q.Earliest() != 5 {
			t.Fatalf("%s: Earliest = %d, want 5", name, q.Earliest())
		}
		q.Advance(4)
		if len(fired) != 0 {
			t.Fatalf("%s: fired early", name)
		}
		q.Advance(12)
		if len(fired) != 2 || fired[0] != 12 || fired[1] != 12 {
			t.Fatalf("%s: fired = %v, want [12 12]", name, fired)
		}
		if q.Len() != 0 {
			t.Fatalf("%s: Len = %d after firing, want 0", name, q.Len())
		}
	}
}

// TestScheduleFreeNilPanics mirrors the handled-path guard.
func TestScheduleFreeNilPanics(t *testing.T) {
	for name, q := range makeQueues() {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: ScheduleFree(nil) did not panic", name)
				}
			}()
			q.ScheduleFree(1, nil)
		}()
	}
}

// TestScheduleFreeRearmReusesNode pins the pooling contract: a handler that
// immediately reschedules gets its own just-fired node back (the node is
// recycled before the handler runs), so a steady-state rearm loop touches
// exactly one timer node and never allocates.
func TestScheduleFreeRearmReusesNode(t *testing.T) {
	check := func(name string, q Queue, nodeAddr func() *Timer) {
		var first *Timer
		cycles := 0
		var rearm Handler
		rearm = func(now Tick) {
			cycles++
			if cycles >= 50 {
				return
			}
			q.ScheduleFree(now+3, rearm)
			n := nodeAddr()
			if first == nil {
				first = n
			} else if n != first {
				t.Fatalf("%s: cycle %d scheduled onto node %p, want pooled reuse of %p",
					name, cycles, n, first)
			}
		}
		q.ScheduleFree(3, rearm)
		for now := Tick(1); cycles < 50; now++ {
			q.Advance(now)
		}
		allocs := testing.AllocsPerRun(100, func() {
			q.ScheduleFree(q.(interface{ Now() Tick }).Now()+1, rearm)
			q.Advance(q.(interface{ Now() Tick }).Now() + 2)
		})
		if allocs != 0 {
			t.Fatalf("%s: steady-state ScheduleFree cycle allocates %.0f/op", name, allocs)
		}
	}

	w := New(64)
	check("hashed", w, func() *Timer {
		// The just-scheduled node is the only one pending: the lone timer,
		// or, when linked, the head of its deadline slot.
		if w.lone != nil {
			return w.lone
		}
		for i := range w.slots {
			if w.slots[i].head != nil {
				return w.slots[i].head
			}
		}
		return nil
	})
	h := NewHierarchical()
	check("hierarchical", h, func() *Timer {
		for l := 0; l < hLevels; l++ {
			for i := range h.levels[l] {
				if h.levels[l][i].head != nil {
					return h.levels[l][i].head
				}
			}
		}
		return h.overflow.head
	})
}

// TestScheduleFreeMixesWithHandledTimers runs pooled and handled timers on
// one wheel and checks cancellation of handled timers never disturbs pooled
// nodes (pooled nodes expose no handle, so nothing can cancel them).
func TestScheduleFreeMixesWithHandledTimers(t *testing.T) {
	for name, q := range makeQueues() {
		var pooled, handled int
		q.ScheduleFree(5, func(Tick) { pooled++ })
		ht := q.Schedule(5, func(Tick) { handled++ })
		q.ScheduleFree(7, func(Tick) { pooled++ })
		victim := q.Schedule(6, func(Tick) { handled++ })
		if !victim.Cancel() {
			t.Fatalf("%s: cancel failed", name)
		}
		q.Advance(10)
		if pooled != 2 || handled != 1 {
			t.Fatalf("%s: pooled=%d handled=%d, want 2/1", name, pooled, handled)
		}
		if ht.Pending() {
			t.Fatalf("%s: fired handled timer still pending", name)
		}
	}
}
