package timerwheel

import (
	"sort"
	"testing"
	"testing/quick"
)

// refQueue is a trivially-correct reference implementation used to check the
// wheels property-style: a sorted slice of pending timers.
type refQueue struct {
	pending []*refTimer
	cur     Tick
}

type refTimer struct {
	deadline Tick
	fn       Handler
	canceled bool
	queued   bool // in pending (possibly canceled, dropped at the next advance)
}

func (r *refQueue) schedule(deadline Tick, fn Handler) *refTimer {
	t := &refTimer{deadline: deadline, fn: fn, queued: true}
	r.pending = append(r.pending, t)
	return t
}

// live reports whether t is scheduled and not canceled. A timer taken off
// pending as due by the advance in progress is no longer live.
func (t *refTimer) live() bool { return t.queued && !t.canceled }

func (r *refQueue) cancel(t *refTimer) bool {
	ok := t.live()
	t.canceled = true
	return ok
}

// reschedule moves a live timer, which then waits at least for the next
// advance, as Timer.Reschedule's timers do.
func (r *refQueue) reschedule(t *refTimer, deadline Tick) bool {
	if !t.live() {
		return false
	}
	t.deadline = deadline
	return true
}

// rearm revives a fired or canceled timer at deadline.
func (r *refQueue) rearm(t *refTimer, deadline Tick) {
	t.deadline, t.canceled = deadline, false
	if !t.queued {
		t.queued = true
		r.pending = append(r.pending, t)
	}
}

func (r *refQueue) len() int {
	n := 0
	for _, t := range r.pending {
		if !t.canceled {
			n++
		}
	}
	return n
}

func (r *refQueue) advance(now Tick) int {
	r.cur = now
	fired := 0
	keep := r.pending[:0]
	due := []*refTimer{}
	for _, t := range r.pending {
		switch {
		case t.canceled:
			t.queued = false
		case t.deadline <= now:
			t.queued = false
			due = append(due, t)
		default:
			keep = append(keep, t)
		}
	}
	r.pending = keep
	sort.SliceStable(due, func(i, j int) bool { return due[i].deadline < due[j].deadline })
	for _, t := range due {
		fired++
		t.fn(now)
	}
	return fired
}

func (r *refQueue) earliest() Tick {
	min := NoDeadline
	for _, t := range r.pending {
		if !t.canceled && t.deadline < min {
			min = t.deadline
		}
	}
	return min
}

// queues under test, constructed fresh per case.
func makeQueues() map[string]Queue {
	return map[string]Queue{
		"hashed":       New(64),
		"hierarchical": NewHierarchical(),
	}
}

// schedule links a new node on q and returns it.
func schedule(q Queue, deadline Tick, fn Handler) *Timer {
	t := new(Timer)
	q.Schedule(t, deadline, fn)
	return t
}

func TestScheduleNilPanics(t *testing.T) {
	for name, q := range makeQueues() {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("nil handler did not panic")
				}
			}()
			schedule(q, 5, nil)
		})
	}
}

// TestSchedulePendingPanics: a pending node is moved with Reschedule;
// linking it a second time would corrupt its slot list.
func TestSchedulePendingPanics(t *testing.T) {
	for name, q := range makeQueues() {
		t.Run(name, func(t *testing.T) {
			tm := schedule(q, 5, func(Tick) {})
			defer func() {
				if recover() == nil {
					t.Error("scheduling a pending node did not panic")
				}
			}()
			q.Schedule(tm, 7, nil)
		})
	}
}

func TestFireAtDeadline(t *testing.T) {
	for name, q := range makeQueues() {
		t.Run(name, func(t *testing.T) {
			var firedAt Tick
			schedule(q, 10, func(now Tick) { firedAt = now })
			if n := q.Advance(9); n != 0 {
				t.Fatalf("fired %d before deadline", n)
			}
			if n := q.Advance(10); n != 1 {
				t.Fatalf("Advance(10) fired %d, want 1", n)
			}
			if firedAt != 10 {
				t.Fatalf("handler saw now=%d, want 10", firedAt)
			}
			if q.Len() != 0 {
				t.Fatalf("Len = %d after firing", q.Len())
			}
		})
	}
}

func TestLateAdvanceFiresWithLateNow(t *testing.T) {
	for name, q := range makeQueues() {
		t.Run(name, func(t *testing.T) {
			var firedAt Tick
			schedule(q, 10, func(now Tick) { firedAt = now })
			q.Advance(500) // system was busy; event fires late
			if firedAt != 500 {
				t.Fatalf("handler saw now=%d, want 500", firedAt)
			}
		})
	}
}

func TestEarliestTracksMinimum(t *testing.T) {
	for name, q := range makeQueues() {
		t.Run(name, func(t *testing.T) {
			if q.Earliest() != NoDeadline {
				t.Fatal("empty queue should report NoDeadline")
			}
			schedule(q, 100, func(Tick) {})
			schedule(q, 50, func(Tick) {})
			schedule(q, 75, func(Tick) {})
			if got := q.Earliest(); got != 50 {
				t.Fatalf("Earliest = %d, want 50", got)
			}
			q.Advance(50)
			if got := q.Earliest(); got != 75 {
				t.Fatalf("Earliest after fire = %d, want 75", got)
			}
		})
	}
}

func TestCancel(t *testing.T) {
	for name, q := range makeQueues() {
		t.Run(name, func(t *testing.T) {
			fired := false
			tm := schedule(q, 10, func(Tick) { fired = true })
			if !tm.Pending() {
				t.Fatal("timer not pending after schedule")
			}
			if !tm.Cancel() {
				t.Fatal("Cancel returned false for pending timer")
			}
			if tm.Cancel() {
				t.Fatal("second Cancel returned true")
			}
			if tm.Pending() {
				t.Fatal("canceled timer still pending")
			}
			q.Advance(100)
			if fired {
				t.Fatal("canceled timer fired")
			}
			if q.Len() != 0 {
				t.Fatalf("Len = %d", q.Len())
			}
		})
	}
	var nilTimer *Timer
	if nilTimer.Cancel() {
		t.Fatal("nil Cancel returned true")
	}
	if nilTimer.Pending() {
		t.Fatal("nil Pending returned true")
	}
}

func TestCancelUpdatesEarliestLazily(t *testing.T) {
	for name, q := range makeQueues() {
		t.Run(name, func(t *testing.T) {
			a := schedule(q, 10, func(Tick) {})
			schedule(q, 90, func(Tick) {})
			a.Cancel()
			// The cached bound may be stale (10), but Advance(50) must not
			// fire anything and Earliest must eventually report 90.
			if n := q.Advance(50); n != 0 {
				t.Fatalf("fired %d", n)
			}
			if got := q.Earliest(); got != 90 {
				t.Fatalf("Earliest = %d, want 90", got)
			}
		})
	}
}

func TestBackwardsAdvancePanics(t *testing.T) {
	for name, q := range makeQueues() {
		t.Run(name, func(t *testing.T) {
			q.Advance(100)
			defer func() {
				if recover() == nil {
					t.Error("backwards Advance did not panic")
				}
			}()
			q.Advance(99)
		})
	}
}

func TestPastDeadlineFiresNextAdvance(t *testing.T) {
	for name, q := range makeQueues() {
		t.Run(name, func(t *testing.T) {
			q.Advance(1000)
			fired := false
			schedule(q, 500, func(Tick) { fired = true }) // already past
			q.Advance(1001)
			if !fired {
				t.Fatal("past-deadline timer did not fire on next Advance")
			}
		})
	}
}

func TestHandlerRescheduleHeldToNextAdvance(t *testing.T) {
	for name, q := range makeQueues() {
		t.Run(name, func(t *testing.T) {
			count := 0
			var handler Handler
			handler = func(now Tick) {
				count++
				schedule(q, now, handler) // due immediately — must wait
			}
			schedule(q, 5, handler)
			q.Advance(10)
			if count != 1 {
				t.Fatalf("handler ran %d times in one Advance, want 1", count)
			}
			q.Advance(11)
			if count != 2 {
				t.Fatalf("handler ran %d times after second Advance, want 2", count)
			}
		})
	}
}

func TestWrapAroundManyRotations(t *testing.T) {
	for name, q := range makeQueues() {
		t.Run(name, func(t *testing.T) {
			// Deadlines far apart force wrap-around in the hashed wheel
			// and cascading in the hierarchical one.
			var fired []Tick
			for _, d := range []Tick{3, 70, 700, 7000, 70000} {
				d := d
				schedule(q, d, func(Tick) { fired = append(fired, d) })
			}
			for now := Tick(0); now <= 70000; now += 37 {
				q.Advance(now)
			}
			q.Advance(70001)
			if len(fired) != 5 {
				t.Fatalf("fired %d of 5 timers: %v", len(fired), fired)
			}
			for i := 1; i < len(fired); i++ {
				if fired[i] < fired[i-1] {
					t.Fatalf("out of order: %v", fired)
				}
			}
		})
	}
}

func TestBigJumpFiresEverythingDue(t *testing.T) {
	for name, q := range makeQueues() {
		t.Run(name, func(t *testing.T) {
			fired := 0
			for i := Tick(1); i <= 100; i++ {
				schedule(q, i*13, func(Tick) { fired++ })
			}
			q.Advance(10_000_000) // way past everything in one jump
			if fired != 100 {
				t.Fatalf("fired %d of 100 after big jump", fired)
			}
		})
	}
}

func TestHashedDueCheck(t *testing.T) {
	w := New(64)
	if w.Due(100) {
		t.Fatal("empty wheel reported due")
	}
	schedule(w, 50, func(Tick) {})
	if w.Due(49) {
		t.Fatal("Due(49) for deadline 50")
	}
	if !w.Due(50) {
		t.Fatal("!Due(50) for deadline 50")
	}
	w.Advance(60)
	if w.Due(1000) {
		t.Fatal("fired wheel still due")
	}
}

// TestNewRoundsSlotsUp checks the slot count New settles on: a power of
// two, at least 2 and at least the count asked for. New allocates none of
// them; the first link allocates that many slots and the bitmap words that
// cover them.
func TestNewRoundsSlotsUp(t *testing.T) {
	for _, n := range []int{0, 1, 3, 63, 64, 100} {
		w := New(n)
		got := int(w.mask) + 1
		if got&(got-1) != 0 || got < 2 {
			t.Errorf("New(%d) gave %d slots", n, got)
		}
		if got < n {
			t.Errorf("New(%d) gave only %d slots", n, got)
		}
		if w.slots != nil || w.occ != nil {
			t.Errorf("New(%d) allocated %d slots and %d bitmap words before any link", n, len(w.slots), len(w.occ))
		}
		schedule(w, 1, func(Tick) {})
		schedule(w, 2, func(Tick) {})
		if len(w.slots) != got || len(w.occ) != (got+63)/64 {
			t.Errorf("New(%d): the first link allocated %d slots and %d bitmap words, want %d and %d",
				n, len(w.slots), len(w.occ), got, (got+63)/64)
		}
	}
}

// wheelSink keeps the wheel TestLoneWheelAllocs makes on the heap, where
// every facility's wheel lives.
var wheelSink *Wheel

// TestLoneWheelAllocs pins what a wheel that never holds two timers at once
// costs: New's one allocation, the wheel itself, and nothing across cycles
// that schedule, move, cancel, re-arm and fire one timer
// (TestNewRoundsSlotsUp checks what the first link allocates).
func TestLoneWheelAllocs(t *testing.T) {
	const slots = 256 // the facility's wheel
	if n := testing.AllocsPerRun(100, func() { wheelSink = New(slots) }); n != 1 {
		t.Fatalf("New allocates %.1f times, want 1", n)
	}
	w := New(slots)
	tm, fired := new(Timer), 0
	fn := func(Tick) { fired++ }
	now := Tick(0)
	cycle := func() {
		w.Schedule(tm, now+10, fn)
		tm.Reschedule(now + 300) // another slot, past a rotation
		w.Advance(now + 5)
		tm.Cancel()
		w.Schedule(tm, now+20, nil)
		tm.Reschedule(now + 30)
		now += 40
		w.Advance(now)
	}
	// One measured run of 1,000 cycles counts every allocation
	// (AllocsPerRun rounds a per-run mean down); a warm-up run precedes it.
	if n := testing.AllocsPerRun(1, func() {
		for range 1000 {
			cycle()
		}
	}); n != 0 {
		t.Fatalf("1,000 lone-timer cycles allocate %.0f times, want 0", n)
	}
	if fired != 2000 || w.slots != nil || w.occ != nil {
		t.Fatalf("fired %d of 2,000 cycles with %d slots allocated, want all and none", fired, len(w.slots))
	}
}

// Property: each wheel behaves exactly like the reference queue under a
// random schedule/cancel/advance script — same fire counts at every step,
// same totals, and every scheduled timer fires exactly once unless canceled.
func TestPropertyWheelMatchesReference(t *testing.T) {
	type op struct {
		Kind     uint8  // 0,1 = schedule; 2 = advance; 3 = cancel
		Deadline uint16 // relative offset for schedules; advance step
		Target   uint8  // which earlier timer to cancel
	}
	for _, variant := range []string{"hashed", "hierarchical"} {
		variant := variant
		t.Run(variant, func(t *testing.T) {
			f := func(ops []op) bool {
				var q Queue
				if variant == "hashed" {
					q = New(16) // small wheel to force collisions and wraps
				} else {
					q = NewHierarchical()
				}
				ref := &refQueue{}
				now := Tick(0)
				var qFired, refFired map[int]int
				qFired, refFired = map[int]int{}, map[int]int{}
				var qTimers []*Timer
				var refTimers []*refTimer
				id := 0
				for _, o := range ops {
					switch o.Kind % 4 {
					case 0, 1:
						tid := id
						id++
						d := now + Tick(o.Deadline%512)
						qTimers = append(qTimers, schedule(q, d, func(Tick) { qFired[tid]++ }))
						refTimers = append(refTimers, ref.schedule(d, func(Tick) { refFired[tid]++ }))
					case 2:
						now += Tick(o.Deadline % 256)
						nq := q.Advance(now)
						nr := ref.advance(now)
						if nq != nr {
							return false
						}
					case 3:
						if len(qTimers) > 0 {
							i := int(o.Target) % len(qTimers)
							qc := qTimers[i].Cancel()
							rt := refTimers[i]
							// A timer is cancelable iff it has neither been
							// canceled nor fired — even if its deadline has
							// passed but no Advance has fired it yet.
							rc := !rt.canceled && refFired[i] == 0
							// Cancel on an already-fired timer returns false
							// in both; on pending returns true in both.
							if qc != rc {
								return false
							}
							rt.canceled = true
						}
					}
					if q.Len() == 0 != (ref.earliest() == NoDeadline) {
						return false
					}
				}
				// Drain both completely.
				now += 100000
				q.Advance(now)
				ref.advance(now)
				for tid := 0; tid < id; tid++ {
					if qFired[tid] != refFired[tid] {
						return false
					}
					if qFired[tid] > 1 {
						return false // double fire
					}
				}
				return q.Len() == 0
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Property: Earliest always equals the reference minimum after any script
// prefix (when queried, i.e. with lazy recomputation forced).
func TestPropertyEarliestExact(t *testing.T) {
	f := func(deadlines []uint16, advances []uint8) bool {
		for _, variant := range []int{0, 1} {
			var q Queue
			if variant == 0 {
				q = New(8)
			} else {
				q = NewHierarchical()
			}
			ref := &refQueue{}
			now := Tick(0)
			for i, d := range deadlines {
				dl := now + Tick(d%300)
				schedule(q, dl, func(Tick) {})
				ref.schedule(dl, func(Tick) {})
				if i < len(advances) {
					now += Tick(advances[i] % 64)
					q.Advance(now)
					ref.advance(now)
				}
				if q.Earliest() != ref.earliest() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHashedScheduleAdvance(b *testing.B) {
	w := New(256)
	b.ReportAllocs()
	now := Tick(0)
	for i := 0; i < b.N; i++ {
		schedule(w, now+30, func(Tick) {})
		now += 31
		w.Advance(now)
	}
}

func BenchmarkHierarchicalScheduleAdvance(b *testing.B) {
	h := NewHierarchical()
	b.ReportAllocs()
	now := Tick(0)
	for i := 0; i < b.N; i++ {
		schedule(h, now+30, func(Tick) {})
		now += 31
		h.Advance(now)
	}
}

func BenchmarkHashedDueCheckIdle(b *testing.B) {
	// The per-trigger-state check with one far-future event pending — the
	// cost the paper argues is negligible.
	w := New(256)
	schedule(w, 1<<40, func(Tick) {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w.Due(Tick(i)) {
			b.Fatal("unexpected due")
		}
	}
}

// sparseFire returns one cycle of the idle fleet host's timer pattern on q:
// advance the clock 1001 ticks, make a trigger state's due check (Wheel.Due
// on the hashed wheel, Earliest on the hierarchical one), fire the lone
// timer, and re-arm it 1000 ticks out. At a 1 ms hardclock and 1 µs ticks
// every firing crosses more than a full rotation of the wheel. fired
// counts the firings.
func sparseFire(q Queue) (cycle func(), fired *int) {
	fired = new(int)
	t := schedule(q, 1000, func(Tick) { *fired++ })
	due := func(now Tick) bool { return q.Earliest() <= now }
	if w, ok := q.(*Wheel); ok {
		due = w.Due
	}
	now := Tick(0)
	return func() {
		now += 1001
		if due(now) {
			q.Advance(now)
		}
		q.Schedule(t, now+1000, nil)
	}, fired
}

func TestSparseFireZeroAlloc(t *testing.T) {
	for name, q := range map[string]Queue{"hashed": New(256), "hierarchical": NewHierarchical()} {
		cycle, fired := sparseFire(q)
		// One measured run of 1,000 cycles counts every allocation
		// (AllocsPerRun rounds a per-run mean down); a warm-up run
		// precedes it.
		if allocs := testing.AllocsPerRun(1, func() {
			for range 1000 {
				cycle()
			}
		}); allocs != 0 {
			t.Errorf("%s: 1,000 cycles allocate %.0f times, want 0", name, allocs)
		}
		if *fired != 2000 {
			t.Errorf("%s: fired %d of 2,000 cycles", name, *fired)
		}
	}
}

func BenchmarkWheelSparseFire(b *testing.B) {
	for _, c := range []struct {
		name string
		q    func() Queue
	}{{"hashed", func() Queue { return New(256) }}, {"hierarchical", func() Queue { return NewHierarchical() }}} {
		b.Run(c.name, func(b *testing.B) {
			cycle, fired := sparseFire(c.q())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
			b.StopTimer()
			if *fired != b.N {
				b.Fatalf("fired %d of %d", *fired, b.N)
			}
		})
	}
}

// TestRearmedLoneTimerExactBound pins the idle host's fast path: a lone timer
// scheduled again (or replaced by a new node) after each firing lands in an
// empty wheel,
// so the earliest bound is exact at once and the due checks before its next
// firing never rescan, however stale the bound the firing left behind.
func TestRearmedLoneTimerExactBound(t *testing.T) {
	type bound interface {
		Queue
		bound() (Tick, bool)
	}
	for name, q := range map[string]bound{"hashed": New(256), "hierarchical": NewHierarchical()} {
		t.Run(name, func(t *testing.T) {
			check := func(want Tick) {
				t.Helper()
				if e, dirty := q.bound(); dirty || e != want {
					t.Fatalf("bound = %d (dirty %v), want exact %d", e, dirty, want)
				}
			}
			tm := schedule(q, 1000, func(Tick) {})
			now := Tick(0)
			for i := 0; i < 50; i++ {
				now += 1001
				if q.Advance(now) != 1 {
					t.Fatalf("cycle %d: the lone timer did not fire", i)
				}
				if i%2 == 0 {
					q.Schedule(tm, now+1000, nil)
					check(now + 1000)
				} else {
					q.Schedule(new(Timer), now+700, func(Tick) {})
					check(now + 700)
				}
			}
		})
	}
}

func (w *Wheel) bound() (Tick, bool)        { return w.earliest, w.dirty }
func (h *Hierarchical) bound() (Tick, bool) { return h.earliest, h.dirty }
