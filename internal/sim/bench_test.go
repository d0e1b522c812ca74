package sim

import "testing"

// Engine microbenchmarks. The engine drives every experiment in the
// reproduction, so ns/event and allocs/event here translate directly into
// wall time for `stbench -exp all -scale full`. The pooled free list and
// the concrete (non-container/heap) event queue are the two optimizations
// under test: steady-state scheduling should allocate nothing, and queue
// operations should pay no interface-boxing round trips.

// BenchmarkEngineScheduleFire measures the self-rescheduling steady state:
// one pending event at a time, schedule+fire per iteration. This is the
// shape of hardclock, PIT ticks, and the idle loop.
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
