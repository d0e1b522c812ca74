package sim

import (
	"fmt"
	"testing"
)

// Benchmarks and allocation guards for the pluggable queue backends and
// the in-place reschedule path. The headline claims under test: the
// default heap's schedule+fire steady state stays allocation-free and
// within its historical ~12 ns/op envelope despite the backend seam, and
// Reschedule beats cancel+insert once the queue is deep (one sift or
// bucket migration versus a full remove, a pool round trip, and a fresh
// push).

// TestEngineZeroAlloc pins the hot paths at zero allocations per op on
// every backend, reschedule and same-instant batches included, with a warm
// pool — run by `make bench` before any numbers are printed so a pooling
// regression fails loudly rather than skewing results.
func TestEngineZeroAlloc(t *testing.T) {
	for _, kind := range QueueKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			e := NewEngineWithQueue(1, kind)
			fn := func() {}
			// Warm the event pool past everything one shot needs.
			for i := 0; i < 8; i++ {
				e.After(Time(i), fn)
			}
			e.Run()
			shot := func() {
				ev := e.After(10, fn)
				ev.Reschedule(e.Now() + 900)
				ev.RescheduleAfter(20)
				dead := e.After(5, fn)
				dead.Cancel()
				// A same-instant batch: cancel its leader, move a follower
				// within the instant, and add an arrival behind it.
				lead := e.After(30, fn)
				f := e.After(30, fn)
				e.After(30, fn)
				lead.Cancel()
				f.Reschedule(e.Now() + 30)
				e.AtArrival(e.Now()+30, 0, 0, "", fn)
				e.Run()
			}
			if n := testing.AllocsPerRun(100, shot); n != 0 {
				t.Fatalf("schedule+reschedule+cancel+batch+fire allocates %.1f/op on %s, want 0", n, kind)
			}
		})
	}
}

// BenchmarkReschedule compares moving a pending timer in place against the
// cancel+insert two-step, per backend, with 1024 bystander events keeping
// the queue deep — the rate-based-pacing and TCP-rearm shape.
func BenchmarkReschedule(b *testing.B) {
	const depth = 1024
	setup := func(kind QueueKind) (*Engine, Event) {
		e := NewEngineWithQueue(1, kind)
		fn := func() {}
		for i := 0; i < depth; i++ {
			e.At(Time(1_000_000+i*7919%depth), fn)
		}
		return e, e.At(2_000_000, fn)
	}
	for _, kind := range QueueKinds() {
		kind := kind
		b.Run(kind.String()+"/inplace", func(b *testing.B) {
			_, ev := setup(kind)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.Reschedule(Time(2_000_000 + i%4096))
			}
		})
		b.Run(kind.String()+"/cancelinsert", func(b *testing.B) {
			e, ev := setup(kind)
			fn := func() {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.Cancel()
				ev = e.At(Time(2_000_000+i%4096), fn)
			}
		})
	}
}

// BenchmarkQueueChurn measures the mixed maintenance load — one in-place
// reschedule, one cancel, one fresh insert per round — against deep
// queues, per backend, at 1k and 10k pending.
func BenchmarkQueueChurn(b *testing.B) {
	for _, kind := range QueueKinds() {
		for _, depth := range []int{1_000, 10_000} {
			kind, depth := kind, depth
			b.Run(fmt.Sprintf("%s/pending=%dk", kind, depth/1000), func(b *testing.B) {
				e := NewEngineWithQueue(1, kind)
				fn := func() {}
				evs := make([]Event, depth)
				for i := range evs {
					evs[i] = e.At(Time(1_000_000+i*7919%(depth*8)), fn)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					j := i % depth
					switch i % 3 {
					case 0:
						evs[j].Reschedule(Time(1_000_000 + (i+depth)%(depth*8)))
					case 1:
						evs[j].Cancel()
					default:
						if !evs[j].Pending() {
							evs[j] = e.At(Time(1_000_000+(i+depth)%(depth*8)), fn)
						}
					}
				}
			})
		}
	}
}
