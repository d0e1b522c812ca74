package timerwheel

import "testing"

// A handler may cancel or move any timer, including the one linked after
// its own in the slot being fired. These cases put timers due at one tick
// into one slot, plus one far out, and let the first to fire act on a
// sibling; each runs on both wheels. Which sibling fires first is the
// wheel's choice, so the expectations hold for any order.

func bothWheels() []struct {
	name string
	q    Queue
} {
	return []struct {
		name string
		q    Queue
	}{{"hashed", New(256)}, {"hierarchical", NewHierarchical()}}
}

// TestHandlerCancelsSibling: two timers due at tick 20, each of whose
// handlers cancels the other. Exactly one fires, and the far timer stays
// pending and counted.
func TestHandlerCancelsSibling(t *testing.T) {
	for _, c := range bothWheels() {
		t.Run(c.name, func(t *testing.T) {
			var a, b, far Timer
			fired := map[*Timer]int{}
			on := func(self, other *Timer) Handler {
				return func(Tick) {
					fired[self]++
					other.Cancel()
				}
			}
			c.q.Schedule(&a, 20, on(&a, &b))
			c.q.Schedule(&b, 20, on(&b, &a))
			c.q.Schedule(&far, 500, func(Tick) { fired[&far]++ })
			if n := c.q.Advance(20); n != 1 || fired[&a]+fired[&b] != 1 {
				t.Fatalf("Advance(20) fired %d (a %d, b %d), want exactly one of the two", n, fired[&a], fired[&b])
			}
			if c.q.Len() != 1 || c.q.Earliest() != 500 || a.Pending() || b.Pending() || !far.Pending() {
				t.Fatalf("after the cancel: Len %d, Earliest %d, pending a/b/far %v/%v/%v; want 1, 500, false/false/true",
					c.q.Len(), c.q.Earliest(), a.Pending(), b.Pending(), far.Pending())
			}
			if n := c.q.Advance(500); n != 1 || fired[&far] != 1 || c.q.Len() != 0 {
				t.Fatalf("Advance(500) fired %d (far %d), Len %d; want 1, 1, 0", n, fired[&far], c.q.Len())
			}
		})
	}
}

// TestHandlerReschedulesSibling: three timers due at tick 20; the first to
// fire moves a sibling, to tick 20 again (its own slot, held to the next
// Advance because it moved during this one) or to tick 30 (another slot).
// The third timer must still fire in the same Advance, and the moved one
// exactly once, at its new deadline.
func TestHandlerReschedulesSibling(t *testing.T) {
	for _, move := range []struct {
		name     string
		deadline Tick
		next     Tick // the Advance that fires the moved timer
	}{{"within-slot", 20, 21}, {"across-slots", 30, 30}} {
		for _, c := range bothWheels() {
			t.Run(move.name+"/"+c.name, func(t *testing.T) {
				var timers [3]Timer
				var far Timer
				var moved *Timer
				fired := map[*Timer]int{}
				for i := range timers {
					self := &timers[i]
					c.q.Schedule(self, 20, func(Tick) {
						fired[self]++
						if moved != nil {
							return
						}
						// Latest scheduled first: a wheel links each new
						// timer at its slot's head, so this picks the one
						// linked right after the first to fire.
						for j := len(timers) - 1; j >= 0; j-- {
							if o := &timers[j]; o != self && o.Pending() {
								moved = o
								o.Reschedule(move.deadline)
								return
							}
						}
					})
				}
				c.q.Schedule(&far, 500, func(Tick) { fired[&far]++ })
				if n := c.q.Advance(20); n != 2 || moved == nil || fired[moved] != 0 {
					t.Fatalf("Advance(20) fired %d, moved one fired %d times; want 2 and 0", n, fired[moved])
				}
				if c.q.Len() != 2 || !moved.Pending() || moved.deadline != move.deadline {
					t.Fatalf("after the move: Len %d, moved pending %v at %d; want 2, true at %d",
						c.q.Len(), moved.Pending(), moved.deadline, move.deadline)
				}
				if n := c.q.Advance(move.next); n != 1 || fired[moved] != 1 {
					t.Fatalf("Advance(%d) fired %d, moved one %d times; want 1 and 1", move.next, n, fired[moved])
				}
				for i := range timers {
					if fired[&timers[i]] != 1 {
						t.Fatalf("timer %d fired %d times, want 1", i, fired[&timers[i]])
					}
				}
				if c.q.Len() != 1 || c.q.Earliest() != 500 {
					t.Fatalf("Len %d, Earliest %d; want 1 and 500", c.q.Len(), c.q.Earliest())
				}
			})
		}
	}
}
