package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine(1)
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	for _, at := range []Time{30, 10, 20, 25, 5} {
		at := at
		e.At(at, func() { got = append(got, e.Now()) })
	}
	e.Run()
	want := []Time{5, 10, 20, 25, 30}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSameTimeEventsFireFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine(1)
	var fired Time = -1
	e.At(50, func() {
		e.After(25, func() { fired = e.Now() })
	})
	e.Run()
	if fired != 75 {
		t.Fatalf("nested After fired at %v, want 75", fired)
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.At(10, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if ev.Pending() {
		t.Fatal("canceled event still pending")
	}
}

func TestCancelIsIdempotentAndZeroSafe(t *testing.T) {
	e := NewEngine(1)
	ev := e.At(10, func() {})
	if !ev.Cancel() {
		t.Fatal("first Cancel of a pending event must report true")
	}
	if ev.Cancel() { // second cancel must not panic or disturb the queue
		t.Fatal("second Cancel must report false")
	}
	var zero Event
	if zero.Cancel() {
		t.Fatal("Cancel of the zero Event must report false")
	}
	if zero.Pending() {
		t.Fatal("zero Event must not be pending")
	}
	e.At(5, func() {})
	e.Run()
	if e.Fired != 1 {
		t.Fatalf("Fired = %d, want 1", e.Fired)
	}
}

// A canceled or fired event's storage is recycled; a retained handle must
// become inert rather than acting on the event that reused the slot.
func TestStaleHandleCannotTouchRecycledEvent(t *testing.T) {
	e := NewEngine(1)
	old := e.At(10, func() { t.Fatal("canceled event fired") })
	old.Cancel()
	if e.FreeListLen() != 1 {
		t.Fatalf("FreeListLen = %d after cancel, want 1", e.FreeListLen())
	}
	fired := false
	fresh := e.At(20, func() { fired = true }) // reuses old's slot
	if e.FreeListLen() != 0 {
		t.Fatalf("FreeListLen = %d after a fresh schedule, want 0 (slot reused)", e.FreeListLen())
	}
	if old.Pending() {
		t.Fatal("stale handle reports pending after its slot was recycled")
	}
	if old.Cancel() {
		t.Fatal("stale handle canceled the event that reused its slot")
	}
	if old.Label() != "" {
		t.Fatalf("stale handle Label = %q, want \"\"", old.Label())
	}
	if !fresh.Pending() {
		t.Fatal("fresh event must still be pending")
	}
	e.Run()
	if !fired {
		t.Fatal("fresh event did not fire")
	}
}

// Cancel-after-fire is a no-op even while the handler of the same event is
// running (the event is recycled before its handler executes).
func TestCancelAfterFireIsNoOp(t *testing.T) {
	e := NewEngine(1)
	var ev Event
	inHandler := false
	ev = e.At(10, func() {
		inHandler = true
		if ev.Pending() {
			t.Error("event reports pending inside its own handler")
		}
		if ev.Cancel() {
			t.Error("Cancel inside the event's own handler reported true")
		}
	})
	e.Run()
	if !inHandler {
		t.Fatal("handler did not run")
	}
	if ev.Cancel() {
		t.Fatal("Cancel after fire reported true")
	}
}

// Steady-state schedule/fire cycles must recycle a bounded set of event
// structs instead of allocating per event.
func TestEventPoolRecycles(t *testing.T) {
	e := NewEngine(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 10_000 {
			e.After(10, tick)
		}
	}
	e.After(10, tick)
	e.Run()
	if e.Fired != 10_000 {
		t.Fatalf("Fired = %d, want 10000", e.Fired)
	}
	if e.FreeListLen() > poolChunk {
		t.Fatalf("free list grew to %d; steady-state reuse should keep it within one chunk (%d)",
			e.FreeListLen(), poolChunk)
	}
}

func TestCancelMiddleOfQueueKeepsOrder(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	record := func() { got = append(got, e.Now()) }
	e.At(10, record)
	ev := e.At(20, record)
	e.At(30, record)
	e.At(40, record)
	ev.Cancel()
	e.Run()
	want := []Time{10, 30, 40}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRunUntilAdvancesClockExactly(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.At(10, func() { count++ })
	e.At(99, func() { count++ })
	e.At(101, func() { count++ })
	e.RunUntil(100)
	if count != 2 {
		t.Fatalf("fired %d events, want 2", count)
	}
	if e.Now() != 100 {
		t.Fatalf("Now() = %v, want 100", e.Now())
	}
	e.RunUntil(200)
	if count != 3 {
		t.Fatalf("fired %d events, want 3", count)
	}
}

func TestRunUntilFiresBoundaryEvent(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.At(100, func() { fired = true })
	e.RunUntil(100)
	if !fired {
		t.Fatal("event at boundary time did not fire")
	}
}

func TestRunForIsRelative(t *testing.T) {
	e := NewEngine(1)
	e.At(5, func() {})
	e.RunFor(10)
	if e.Now() != 10 {
		t.Fatalf("Now() = %v, want 10", e.Now())
	}
	e.RunFor(10)
	if e.Now() != 20 {
		t.Fatalf("Now() = %v, want 20", e.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestScheduleNilFuncPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("scheduling nil func did not panic")
		}
	}()
	e.At(1, nil)
}

func TestEventMetadata(t *testing.T) {
	e := NewEngine(1)
	ev := e.AtLabeled(42, "tick", func() {})
	if ev.At() != 42 {
		t.Errorf("At() = %v, want 42", ev.At())
	}
	if ev.Label() != "tick" {
		t.Errorf("Label() = %q, want tick", ev.Label())
	}
	if !ev.Pending() {
		t.Error("Pending() = false before firing")
	}
	e.Run()
	if ev.Pending() {
		t.Error("Pending() = true after firing")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []Time {
		e := NewEngine(1234)
		var got []Time
		var spawn func()
		spawn = func() {
			got = append(got, e.Now())
			if len(got) < 200 {
				e.After(e.Rand().ExpTime(50*Microsecond), spawn)
			}
		}
		e.After(1, spawn)
		e.Run()
		return got
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at event %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any batch of (time, id) pairs, events fire sorted by time
// with FIFO tie-breaking, and the engine clock never decreases.
func TestPropertyFiringOrder(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewEngine(99)
		type rec struct {
			at  Time
			seq int
		}
		var got []rec
		for i, r := range raw {
			at := Time(r % 1000)
			seq := i
			e.At(at, func() { got = append(got, rec{at, seq}) })
		}
		e.Run()
		if len(got) != len(raw) {
			return false
		}
		last := rec{at: -1, seq: -1}
		for _, g := range got {
			if g.at < last.at {
				return false
			}
			if g.at == last.at && g.seq < last.seq {
				return false
			}
			last = g
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: canceling an arbitrary subset leaves exactly the complement to
// fire, still in order.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(times []uint16, mask []bool) bool {
		e := NewEngine(7)
		fired := make(map[int]bool)
		var evs []Event
		for i, r := range times {
			i := i
			evs = append(evs, e.At(Time(r), func() { fired[i] = true }))
		}
		canceled := make(map[int]bool)
		for i, ev := range evs {
			if i < len(mask) && mask[i] {
				ev.Cancel()
				canceled[i] = true
			}
		}
		e.Run()
		for i := range times {
			if canceled[i] == fired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMaxPendingHighWaterMark checks the heap-depth high-water mark the
// telemetry layer exports: it tracks the deepest the queue ever got, not
// the current depth.
func TestMaxPendingHighWaterMark(t *testing.T) {
	e := NewEngine(1)
	if e.MaxPending() != 0 {
		t.Fatalf("fresh engine MaxPending = %d, want 0", e.MaxPending())
	}
	for i := 0; i < 10; i++ {
		e.At(Time(i+1), func() {})
	}
	if e.MaxPending() != 10 {
		t.Fatalf("MaxPending = %d, want 10", e.MaxPending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("queue should have drained")
	}
	if e.MaxPending() != 10 {
		t.Fatalf("MaxPending after drain = %d, want 10 (high-water, not current)", e.MaxPending())
	}
	// A shallower refill must not lower the mark.
	e.At(e.Now()+1, func() {})
	e.Run()
	if e.MaxPending() != 10 {
		t.Fatalf("MaxPending after refill = %d, want 10", e.MaxPending())
	}
}
