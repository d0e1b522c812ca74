package timerwheel

import "testing"

// heldLone fails unless tm is w's lone timer with every slot and bitmap word
// empty: the held state, where no query or firing reads a slot.
func heldLone(t *testing.T, w *Wheel, tm *Timer) {
	t.Helper()
	if w.lone != tm {
		t.Fatalf("lone = %p, want %p", w.lone, tm)
	}
	for i := range w.slots {
		if w.slots[i].head != nil {
			t.Fatalf("slot %d is linked while a lone timer is held", i)
		}
	}
	for k, word := range w.occ {
		if word != 0 {
			t.Fatalf("occupancy word %d = %#x while a lone timer is held", k, word)
		}
	}
}

// TestLoneTimerTransitions walks the hashed wheel's lone timer through every
// transition: held on entry into an empty wheel, answering Pending,
// Deadline, Earliest and Due from the wheel struct, moved in place, canceled
// and revived, linked ahead of a second timer exactly as an always-linked
// wheel would have linked it, and fired from the field with a slot
// firing's semantics (an already-due timer its handler schedules waits for
// the next Advance; Now still reads the previous tick inside the handler).
func TestLoneTimerTransitions(t *testing.T) {
	t.Run("queries", func(t *testing.T) {
		w := New(16)
		tm := schedule(w, 40, func(Tick) {})
		heldLone(t, w, tm)
		if !tm.Pending() || tm.deadline != 40 || w.Len() != 1 || w.Earliest() != 40 {
			t.Fatalf("pending %v, deadline %d, len %d, earliest %d; want true, 40, 1, 40",
				tm.Pending(), tm.deadline, w.Len(), w.Earliest())
		}
		if w.Due(39) || !w.Due(40) {
			t.Fatalf("Due(39) = %v, Due(40) = %v; want false, true", w.Due(39), w.Due(40))
		}
		if w.Advance(39) != 0 || !tm.Pending() {
			t.Fatal("an Advance short of the deadline fired the lone timer")
		}
		heldLone(t, w, tm)
	})

	t.Run("cancel, reschedule, rearm", func(t *testing.T) {
		w := New(16)
		fired := 0
		tm := schedule(w, 40, func(Tick) { fired++ })
		// 40 → 56 is the same slot later, 56 → 24 the same slot earlier,
		// 24 → 45 another slot later, 45 → 30 another slot earlier.
		for _, d := range []Tick{56, 24, 45, 30} {
			if !tm.Reschedule(d) {
				t.Fatalf("Reschedule(%d) of the lone timer reported not pending", d)
			}
			heldLone(t, w, tm)
			if tm.deadline != d || w.Earliest() != d || w.Due(d-1) || !w.Due(d) {
				t.Fatalf("after Reschedule(%d): deadline %d, earliest %d, Due(d-1) %v, Due(d) %v",
					d, tm.deadline, w.Earliest(), w.Due(d-1), w.Due(d))
			}
		}
		if !tm.Cancel() || tm.Pending() || w.Len() != 0 || w.Earliest() != NoDeadline || w.lone != nil {
			t.Fatal("canceling the lone timer did not empty the wheel")
		}
		if tm.Cancel() || tm.Reschedule(50) || w.Len() != 0 {
			t.Fatal("Cancel or Reschedule of a canceled lone timer was not inert")
		}
		w.Schedule(tm, 35, nil)
		heldLone(t, w, tm)
		if w.Advance(34) != 0 || w.Advance(35) != 1 || fired != 1 || tm.Pending() || w.lone != nil || w.Len() != 0 {
			t.Fatalf("revived lone timer: fired %d, pending %v, len %d; want 1 firing at 35",
				fired, tm.Pending(), w.Len())
		}
	})

	t.Run("second timer joins", func(t *testing.T) {
		// Timer a is held lone when b arrives. Deadlines 20 and 36 share
		// slot 4 of 16, where b is pushed ahead of a and so fires first
		// whatever the deadlines; 18 hashes below slot 4 and 27 above.
		for _, c := range []struct {
			name    string
			a, b    Tick
			want    string
			earlier Tick
		}{
			{"same slot", 20, 36, "ba", 20},
			{"same slot, newcomer earlier", 36, 20, "ba", 20},
			{"lower slot", 20, 18, "ba", 18},
			{"higher slot", 20, 27, "ab", 20},
		} {
			t.Run(c.name, func(t *testing.T) {
				w := New(16)
				var order []byte
				a := schedule(w, c.a, func(Tick) { order = append(order, 'a') })
				heldLone(t, w, a)
				schedule(w, c.b, func(Tick) { order = append(order, 'b') })
				if w.lone != nil || !occupancyExact(w) || w.Len() != 2 || w.Earliest() != c.earlier {
					t.Fatalf("after the join: lone %p, occupancy exact %v, len %d, earliest %d",
						w.lone, occupancyExact(w), w.Len(), w.Earliest())
				}
				if n := w.Advance(40); n != 2 || string(order) != c.want {
					t.Fatalf("Advance fired %d in order %q, want 2 in order %q", n, order, c.want)
				}
			})
		}
	})

	t.Run("handler on the lone path", func(t *testing.T) {
		w := New(16)
		w.Advance(5)
		inner := 0
		var sawNow Tick
		var held *Timer
		schedule(w, 10, func(now Tick) {
			sawNow = w.cur
			held = schedule(w, now-3, func(Tick) { inner++ }) // already due
		})
		if n := w.Advance(12); n != 1 {
			t.Fatalf("Advance(12) fired %d, want the lone timer only", n)
		}
		if sawNow != 5 || w.cur != 12 {
			t.Fatalf("cur read %d inside the handler and %d after; want 5 and 12", sawNow, w.cur)
		}
		if inner != 0 || !held.Pending() {
			t.Fatal("a timer scheduled due inside the lone handler fired in the same Advance")
		}
		heldLone(t, w, held)
		if !w.Due(12) || w.Advance(12) != 1 || inner != 1 {
			t.Fatalf("the held-back timer did not fire on the next Advance (inner %d)", inner)
		}
	})
}
