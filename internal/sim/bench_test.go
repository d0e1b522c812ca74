package sim

import "testing"

// Engine microbenchmarks. The engine drives every experiment in the
// reproduction, so ns/event and allocs/event here translate directly into
// wall time for `stbench -exp all -scale full`. The pooled free list and
// the concrete (non-container/heap) event queue are the two optimizations
// under test: steady-state scheduling should allocate nothing, and queue
// operations should pay no interface-boxing round trips.

// BenchmarkEngineScheduleFire measures the self-rescheduling steady state:
// one pending event at a time, schedule+fire per iteration. The one event
// always sits in the queue's front slot, so no heap operation is timed;
// BenchmarkEngineContinuations is the shape with other events pending.
func BenchmarkEngineScheduleFire(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			e.After(10, tick)
		}
	}
	e.After(10, tick)
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngine1kPendingEvents measures scheduling and draining a
// 1000-event queue — deep-heap sift costs plus pool warmup per iteration.
// It builds a fresh engine per op, so its 40 allocs/op are all warm-up
// (a -memprofile of it attributes every one): the engine and its RNG (2),
// 16 pool chunks of 64 events for the 1000 events (16), and 11 doublings
// each of the heap slice and the free list on their way to 1024 entries
// (22). The steady state is pinned at 0 by TestEngineZeroAlloc.
func BenchmarkEngine1kPendingEvents(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine(1)
		for j := 0; j < 1000; j++ {
			e.At(Time(e.Rand().Intn(1_000_000)), func() {})
		}
		e.Run()
	}
}

// BenchmarkEngineCancelHeavy is pacer/TCP-shaped: every scheduled timeout
// is canceled and rescheduled before it can fire, as rate-based clocking
// and retransmit timers do constantly. Measures schedule+cancel cost and
// free-list turnover with a warm pool.
func BenchmarkEngineCancelHeavy(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	ev := e.After(1000, fn)
	for i := 0; i < b.N; i++ {
		ev.Cancel()
		ev = e.After(1000+Time(i%64), fn)
	}
}

// BenchmarkEngineCancelMid measures canceling from the middle of a deep
// queue (heap remove + sift), the worst-case cancel the TCP layer issues
// when many flows hold staggered retransmit timers.
func BenchmarkEngineCancelMid(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	const depth = 1024
	evs := make([]Event, depth)
	for i := range evs {
		evs[i] = e.At(Time(1_000_000+i*7919%depth), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % depth
		evs[j].Cancel()
		evs[j] = e.At(Time(1_000_000+(i+depth)%(depth*2)), fn)
	}
}

// BenchmarkEngineRunUntil measures the RunUntil driver loop with a mix of
// due and not-yet-due events, the main experiment-driver entry point.
func BenchmarkEngineRunUntil(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	var tick func()
	tick = func() { e.After(10, tick) }
	for i := 0; i < 8; i++ {
		e.After(Time(i+1), tick)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunFor(100)
	}
}

// BenchmarkEngineContinuations is paper-rig-shaped: a single host keeps
// eight future events pending — hardclock, PIT and link deliveries, each
// re-arming a fixed period out — while a chain of continuations runs
// beneath them, each handler scheduling its successor 100 ns out, which
// makes the successor the new earliest event. One op is one fired event,
// almost always a continuation.
func BenchmarkEngineContinuations(b *testing.B) {
	e := NewEngine(1)
	for i := 0; i < 8; i++ {
		period := Millisecond + Time(i)*37*Microsecond
		var tick func()
		tick = func() { e.After(period, tick) }
		e.After(period, tick)
	}
	var step func()
	step = func() { e.After(100, step) }
	e.After(100, step)
	for i := 0; i < 1000; i++ { // warm the pool
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineAlignedTicks is fleet-shaped: 1024 tickers on one engine
// re-arm at exact 1 ms multiples, as every host's hardclock does, so each
// tick instant holds 1024 events. Each tick also schedules a +5 µs
// follow-up (the interrupt body, so those instants are shared too) and an
// event an exponential gap away (unaligned traffic). One op is one fired
// event; the queue holds ~3k events, most of them behind instant leaders.
func BenchmarkEngineAlignedTicks(b *testing.B) {
	const tickers = 1024
	e := NewEngine(1)
	fn := func() {}
	var tick func()
	tick = func() {
		e.After(Millisecond, tick)
		e.After(5*Microsecond, fn)
		e.After(e.Rand().ExpTime(Millisecond), fn)
	}
	for i := 0; i < tickers; i++ {
		e.At(Millisecond, tick)
	}
	for i := 0; i < 3*tickers; i++ { // warm the pool and the queue's depth
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// TestEngineZeroAlloc pins the hot paths at zero allocations per op,
// moves and same-instant batches included, with a warm pool — run by
// `make bench` before any numbers are printed so a pooling regression
// fails loudly rather than skewing results.
func TestEngineZeroAlloc(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		e := NewEngine(1)
		fn := func() {}
		// Warm the event pool past everything one shot needs.
		for i := 0; i < 8; i++ {
			e.After(Time(i), fn)
		}
		e.Run()
		// move cancels ev and schedules its replacement at t.
		move := func(ev Event, t Time) Event {
			ev.Cancel()
			return e.At(t, fn)
		}
		shot := func() {
			ev := e.After(10, fn)
			ev = move(ev, e.Now()+900)
			move(ev, e.Now()+20)
			dead := e.After(5, fn)
			dead.Cancel()
			// A same-instant batch: cancel its leader, move a follower
			// to the back of the instant, and add an arrival behind it.
			lead := e.After(30, fn)
			f := e.After(30, fn)
			e.After(30, fn)
			lead.Cancel()
			move(f, e.Now()+30)
			e.AtArrival(e.Now()+30, 0, 0, "", fn)
			e.Run()
			// The front slot: a batch takes the empty queue's front and
			// an arrival lands at its instant; a heap leader moved before
			// it displaces the batch into the heap, then moves past the
			// heap root; a new minimum takes the emptied front, and
			// cancelling it hands the front to a follower that fires with
			// a follower of its own.
			e.After(40, fn)
			b := e.After(60, fn)
			e.After(40, fn)
			e.AtArrival(e.Now()+40, 1, 0, "", fn)
			b = move(b, e.Now()+10)
			move(b, e.Now()+70)
			c := e.After(20, fn)
			e.After(20, fn)
			e.After(20, fn)
			c.Cancel()
			e.Run()
		}
		if n := testing.AllocsPerRun(100, shot); n != 0 {
			t.Fatalf("schedule+move+cancel+batch+front+fire allocates %.1f/op, want 0", n)
		}
	})
}
