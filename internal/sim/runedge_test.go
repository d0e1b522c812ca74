package sim

import "testing"

// These tests pin the edge semantics documented on RunUntil/RunFor: a
// queue that handled the empty-band or due-now cases differently would
// break callers that rely on RunFor(0) as a "drain due work" idiom.

// onHeap runs f on a fresh engine in a subtest named for its heap queue.
func onHeap(t *testing.T, f func(t *testing.T, e *Engine)) {
	t.Run("heap", func(t *testing.T) { f(t, NewEngine(1)) })
}

// RunFor(0) fires events due exactly now — including ones a handler
// schedules at the same instant — and leaves the clock unchanged.
func TestRunForZero(t *testing.T) {
	onHeap(t, func(t *testing.T, e *Engine) {
		e.RunUntil(50 * Microsecond)
		var order []string
		e.At(e.Now(), func() {
			order = append(order, "a")
			e.After(0, func() { order = append(order, "chained") })
		})
		e.At(e.Now(), func() { order = append(order, "b") })
		e.At(e.Now()+1, func() { order = append(order, "future") })

		e.RunFor(0)
		if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "chained" {
			t.Errorf("RunFor(0) fired %v; want [a b chained] (due-now incl. same-instant chains)", order)
		}
		if e.Now() != 50*Microsecond {
			t.Errorf("clock moved to %v; want unchanged 50us", e.Now())
		}
		if e.Pending() != 1 {
			t.Errorf("pending = %d; want 1 (the future event stays queued)", e.Pending())
		}
	})
}

// RunUntil(now) is RunFor(0); RunUntil(past) is a strict no-op — no
// firing, no clock movement, even with overdue-looking events queued.
func TestRunUntilNowAndPast(t *testing.T) {
	onHeap(t, func(t *testing.T, e *Engine) {
		e.RunUntil(100 * Microsecond)
		fired := 0
		e.At(e.Now(), func() { fired++ })

		e.RunUntil(40 * Microsecond) // past
		if fired != 0 || e.Now() != 100*Microsecond {
			t.Errorf("RunUntil(past): fired=%d now=%v; want 0, 100us", fired, e.Now())
		}
		e.RunUntil(e.Now()) // now
		if fired != 1 || e.Now() != 100*Microsecond {
			t.Errorf("RunUntil(now): fired=%d now=%v; want 1, 100us", fired, e.Now())
		}
	})
}

// RunUntil advances the clock to the horizon even when no event lands
// there, and never past it; an event exactly at the horizon fires.
func TestRunUntilHorizon(t *testing.T) {
	onHeap(t, func(t *testing.T, e *Engine) {
		fired := 0
		e.At(30*Microsecond, func() { fired++ })
		e.At(70*Microsecond, func() { fired++ })
		e.RunUntil(70 * Microsecond)
		if fired != 2 {
			t.Errorf("fired %d; want 2 (horizon event inclusive)", fired)
		}
		if e.Now() != 70*Microsecond {
			t.Errorf("now = %v; want 70us", e.Now())
		}
		e.RunUntil(90 * Microsecond)
		if e.Now() != 90*Microsecond {
			t.Errorf("empty run: now = %v; want horizon 90us", e.Now())
		}
	})
}

// Run drains everything, including chains, and leaves the clock at the
// last fired event.
func TestRunDrains(t *testing.T) {
	onHeap(t, func(t *testing.T, e *Engine) {
		var last Time
		e.At(10*Microsecond, func() {
			e.After(25*Microsecond, func() { last = e.Now() })
		})
		e.Run()
		if last != 35*Microsecond || e.Now() != 35*Microsecond {
			t.Errorf("last=%v now=%v; want 35us both", last, e.Now())
		}
		if e.Pending() != 0 {
			t.Errorf("pending = %d; want 0", e.Pending())
		}
	})
}
