package sim

// Tests for the conservative-sync grant machinery: the started-guards
// freezing the channel topology, the mining fixpoint's transitive
// soundness, the one-shard group's clock, and the EarliestPending peek
// that mining rides on.

import (
	"fmt"
	"reflect"
	"testing"
)

// Every assembly-time knob must refuse to move once the first round has
// run: rounds in flight were granted under the old topology.
func TestShardGroupStartedGuards(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic after the group has run", name)
			}
		}()
		fn()
	}
	g := NewShardGroup(2, 1)
	g.SetLookahead(0, 1, 25*Microsecond)
	g.SetLookahead(1, 0, 25*Microsecond)
	g.NewConduit(0, 1) // fine before Run
	g.Run(100 * Microsecond)

	mustPanic("SetLookahead", func() { g.SetLookahead(0, 1, 10*Microsecond) })
	mustPanic("NewConduit", func() { g.NewConduit(0, 2) })
}

// The mining fixpoint must account for transitive wakes. Chain
// 2 → 0 → 1: shard 0's own queue is empty, but shard 2 is about to wake
// it, and the woken handler relays into shard 1 well before shard 1's own
// queue head. Granting shard 1 from shard 0's bare queue head (the naive
// rule) would let it run its 500 µs local event first and the 25 µs relay
// would arrive in its past. The fixpoint lowers shard 0's bound through
// the 2→0 channel, so the relay is delivered in timestamp order.
func TestShardGroupMiningTransitiveWake(t *testing.T) {
	g := NewShardGroup(3, 1)
	g.SetLookahead(2, 0, 10*Microsecond)
	g.SetLookahead(0, 1, 10*Microsecond)
	c20 := g.NewConduit(2, 1)
	c01 := g.NewConduit(0, 2)

	var order []string
	g.Engine(1).At(500*Microsecond, func() { order = append(order, "local@500") })
	g.Engine(2).At(5*Microsecond, func() {
		c20.Send(0, 15*Microsecond, 1, func() {
			c01.Send(1, 25*Microsecond, 1, func() {
				order = append(order, fmt.Sprintf("relay@%d", g.Engine(1).Now()/Microsecond))
			})
		})
	})
	g.Run(Millisecond)

	want := []string{"relay@25", "local@500"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("delivery order = %v, want %v", order, want)
	}
}

// A shard with no inbound channels is never constrained: its first grant
// is the run horizon, so it has reached the horizon before its peer runs
// anything, and the one-directional two-shard group drains without
// deadlock.
func TestShardGroupNoInboundAdvancesToHorizon(t *testing.T) {
	g := NewShardGroup(2, 1)
	g.SetLookahead(0, 1, 25*Microsecond) // no 1→0 channel
	until := 2 * Millisecond

	var fired0, fired1 int
	var peerSaw Time = -1 // shard 0's clock when shard 1 first fires
	var tick0, tick1 func()
	tick0 = func() {
		fired0++
		if next := g.Engine(0).Now() + 100*Microsecond; next <= until {
			g.Engine(0).At(next, tick0)
		}
	}
	tick1 = func() {
		if fired1 == 0 {
			peerSaw = g.Engine(0).Now()
		}
		fired1++
		if next := g.Engine(1).Now() + 100*Microsecond; next <= until {
			g.Engine(1).At(next, tick1)
		}
	}
	g.Engine(0).At(50*Microsecond, tick0)
	g.Engine(1).At(50*Microsecond, tick1)
	g.Run(until)

	if g.Engine(0).Now() != until || g.Engine(1).Now() != until {
		t.Fatalf("clocks = %v, %v; want both at %v", g.Engine(0).Now(), g.Engine(1).Now(), until)
	}
	if fired0 == 0 || fired1 == 0 {
		t.Fatalf("fired = %d, %d; want both > 0", fired0, fired1)
	}
	if peerSaw != until {
		t.Fatalf("no-inbound shard stood at %v when its peer first fired; want %v (granted straight to the horizon)", peerSaw, until)
	}
}

// A one-shard group's clock is its engine's: a rig that drives the engine
// directly and then the group (the paper drivers do both) sees one
// clock, exactly as on a bare engine.
func TestShardGroupSingleShardClockFollowsEngine(t *testing.T) {
	g := NewShardGroup(1, 1)
	e := g.Engine(0)
	var firedAt Time
	e.At(150*Millisecond, func() { firedAt = e.Now() })
	e.RunFor(100 * Millisecond)
	if g.Now() != 100*Millisecond {
		t.Fatalf("group clock %v after the engine ran to 100ms", g.Now())
	}
	g.RunFor(100 * Millisecond)
	if g.Now() != 200*Millisecond || e.Now() != 200*Millisecond {
		t.Fatalf("clocks after RunFor: group %v, engine %v; want 200ms both", g.Now(), e.Now())
	}
	if firedAt != 150*Millisecond {
		t.Fatalf("event due at 150ms fired at %v", firedAt)
	}
}

// EarliestPending is the queue peek mining rides on: exact, tracking the
// head as events fire, and empty-aware.
func TestEngineEarliestPendingAcrossBackends(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		e := NewEngine(1)
		if _, ok := e.EarliestPending(); ok {
			t.Fatal("empty engine reported a pending event")
		}
		e.At(300*Microsecond, func() {})
		e.At(100*Microsecond, func() {})
		e.At(200*Microsecond, func() {})
		if at, ok := e.EarliestPending(); !ok || at != 100*Microsecond {
			t.Fatalf("head = %v, %v; want 100µs, true", at, ok)
		}
		e.RunUntil(150 * Microsecond)
		if at, ok := e.EarliestPending(); !ok || at != 200*Microsecond {
			t.Fatalf("head after firing = %v, %v; want 200µs, true", at, ok)
		}
		e.RunUntil(Millisecond)
		if _, ok := e.EarliestPending(); ok {
			t.Fatal("drained engine still reports a pending event")
		}
	})
}

// BenchmarkShardRound measures one sync round — flush, the mining
// fixpoint, each shard's run to its grant and the clock commit — on
// all-to-all groups of 2, 4 and 8 shards, each with one 20 µs ticker, so
// the round machinery dominates the handlers.
func BenchmarkShardRound(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			g := NewShardGroup(n, 1)
			for s := 0; s < n; s++ {
				for d := 0; d < n; d++ {
					if s != d {
						g.SetLookahead(s, d, 50*Microsecond)
					}
				}
			}
			for s := 0; s < n; s++ {
				eng := g.Engine(s)
				var tick func()
				tick = func() { eng.After(20*Microsecond, tick) }
				eng.After(20*Microsecond, tick)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.RunFor(50 * Microsecond)
			}
			rounds, _ := g.Stats()
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
		})
	}
}
