package sim

// Tests for the conservative-sync grant machinery added with lookahead
// mining: the started-guards freezing the channel topology, the mining
// fixpoint's transitive soundness, the grant-utilization telemetry, the
// empty-work-batch clause of the ClockDriver contract, and the
// EarliestPending peek that mining rides on.

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
	g.SetMining(false)
	g.SetMining(true)
	g.Run(100 * Microsecond)

	mustPanic("SetLookahead", func() { g.SetLookahead(0, 1, 10*Microsecond) })
	mustPanic("NewConduit", func() { g.NewConduit(0, 2) })
	mustPanic("SetClockDriver", func() { g.SetClockDriver(nil) })
	mustPanic("SetMining", func() { g.SetMining(false) })
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
// is the run horizon (one active round, horizon-bound), and the
// one-directional two-shard group drains without deadlock.
func TestShardGroupNoInboundAdvancesToHorizon(t *testing.T) {
	g := NewShardGroup(2, 1)
	g.SetLookahead(0, 1, 25*Microsecond) // no 1→0 channel
	until := 2 * Millisecond

	var fired0, fired1 int
	var tick0, tick1 func()
	tick0 = func() {
		fired0++
		if next := g.Engine(0).Now() + 100*Microsecond; next <= until {
			g.Engine(0).At(next, tick0)
		}
	}
	tick1 = func() {
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
	st := g.SyncStats()
	s0 := st.Shards[0]
	if s0.Rounds != 1 || s0.HorizonBound != 1 {
		t.Fatalf("no-inbound shard: %d rounds, %d horizon-bound; want 1 and 1 (granted straight to the horizon)", s0.Rounds, s0.HorizonBound)
	}
}

// ringShards assembles the shard_test ring workload on a 4-shard group
// and runs it to until, returning the logs and the group.
func ringShards(seed uint64, until Time, mining bool) ([][]string, *ShardGroup) {
	g := NewShardGroup(4, seed)
	g.SetMining(mining)
	for s := 0; s < 4; s++ {
		g.SetLookahead(s, (s+1)%4, 40*Microsecond)
	}
	cons := make([]*Conduit, 4)
	for s := 0; s < 4; s++ {
		cons[s] = g.NewConduit(s, int32(s)+1)
	}
	engines := []*Engine{g.Engine(0), g.Engine(1), g.Engine(2), g.Engine(3)}
	logs := ringLog(engines, until, func(src, dst int, at Time, seq uint64, fn func()) {
		cons[src].Send(dst, at, seq, fn)
	})
	g.Run(until)
	return logs, g
}

// Mining is invisible in results and strictly helpful in rounds: the
// mined run replays the static run's event history byte-for-byte (which
// itself matches the single-engine oracle, per
// TestShardGroupMatchesSingleEngineReference) in no more rounds, every
// mined grant dominates its static twin (gain >= 0), and with mining off
// the gain accounting stays identically zero.
func TestShardGroupMiningMatchesStaticWithFewerRounds(t *testing.T) {
	const until = 2 * Millisecond
	staticLogs, gs := ringShards(9, until, false)
	minedLogs, gm := ringShards(9, until, true)

	if !reflect.DeepEqual(staticLogs, minedLogs) {
		t.Fatalf("mining changed the event history:\nstatic %v\nmined  %v", staticLogs, minedLogs)
	}
	sr, _ := gs.Stats()
	mr, _ := gm.Stats()
	if mr > sr {
		t.Fatalf("mined run took %d rounds, static %d; mined grants dominate static so rounds must not grow", mr, sr)
	}
	for i, ss := range gs.SyncStats().Shards {
		if ss.MinedGainNS != 0 {
			t.Fatalf("shard %d: mined gain %d ns with mining off; want 0", i, ss.MinedGainNS)
		}
	}
	for i, ss := range gm.SyncStats().Shards {
		if ss.MinedGainNS < 0 {
			t.Fatalf("shard %d: negative mined gain %d ns; mined grants must dominate static", i, ss.MinedGainNS)
		}
	}
}

// The telemetry is internally consistent: each shard's active rounds are
// fully attributed (binding channel or horizon), the group-wide
// histograms carry one sample per active shard-round, and no shard
// reaches more of its horizon than it was granted.
func TestShardGroupSyncStatsAccounting(t *testing.T) {
	_, g := ringShards(9, 2*Millisecond, true)
	st := g.SyncStats()

	if st.Rounds == 0 || st.Messages == 0 {
		t.Fatalf("no rounds (%d) or messages (%d) recorded", st.Rounds, st.Messages)
	}
	var activeSum int64
	for i := range st.Shards {
		ss := st.Shards[i]
		activeSum += ss.Rounds
		var bound int64 = ss.HorizonBound
		for src := range st.Binding {
			bound += st.Binding[src][i]
		}
		if bound != ss.Rounds {
			t.Fatalf("shard %d: %d rounds but %d attributed (binding+horizon)", i, ss.Rounds, bound)
		}
		if ss.ReachedNS > ss.GrantedNS {
			t.Fatalf("shard %d: reached %d ns > granted %d ns", i, ss.ReachedNS, ss.GrantedNS)
		}
		if ss.IdleRounds > ss.Rounds {
			t.Fatalf("shard %d: %d idle rounds out of %d", i, ss.IdleRounds, ss.Rounds)
		}
	}
	if st.ActiveShardRounds != activeSum {
		t.Fatalf("ActiveShardRounds = %d, per-shard sum = %d", st.ActiveShardRounds, activeSum)
	}
	if c := st.GrantWidthUS.N(); c != activeSum {
		t.Fatalf("GrantWidthUS has %d samples, want one per active shard-round (%d)", c, activeSum)
	}
	if c := st.MinedGainUS.N(); c != activeSum {
		t.Fatalf("MinedGainUS has %d samples, want one per active shard-round (%d)", c, activeSum)
	}
}

// emptyBatchDriver authorizes every wait instantly but hands back an
// empty, non-nil work slice each time. Under the ClockDriver contract
// len(work) == 0 means the wait completed, so both wait loops must treat
// it exactly like nil. A loop that tests work != nil instead would call
// WaitUntil forever; the call budget turns that hang into a failure.
type emptyBatchDriver struct {
	t     *testing.T
	calls int
}

func (d *emptyBatchDriver) Begin(Time) {}

func (d *emptyBatchDriver) WaitUntil(at Time) (Time, []func()) {
	d.calls++
	if d.calls > 100_000 {
		d.t.Fatal("driver spun: empty work batches did not terminate the wait loop")
	}
	return at, []func(){}
}

func TestShardGroupEmptyWorkBatchTerminatesWait(t *testing.T) {
	d := &emptyBatchDriver{t: t}
	g := NewShardGroup(2, 1)
	g.SetLookahead(0, 1, 25*Microsecond)
	g.SetLookahead(1, 0, 25*Microsecond)
	g.SetClockDriver(d)

	fired := false
	g.Engine(0).At(60*Microsecond, func() { fired = true })
	g.Run(200 * Microsecond)
	if !fired {
		t.Fatal("event did not fire under the empty-batch driver")
	}
	if d.calls == 0 {
		t.Fatal("driver was never consulted")
	}
}

func TestEngineEmptyWorkBatchTerminatesWait(t *testing.T) {
	d := &emptyBatchDriver{t: t}
	e := NewEngine(1)
	e.SetClockDriver(d)
	fired := 0
	e.At(10*Microsecond, func() { fired++ })
	e.At(30*Microsecond, func() { fired++ })
	e.RunUntil(100 * Microsecond)
	if fired != 2 {
		t.Fatalf("fired %d events under the empty-batch driver, want 2", fired)
	}
}

// RealTimeClock.WaitUntil must never surface an empty pending batch as an
// early return: the contract reserves len(work) == 0 for "wait completed".
func TestRealTimeClockEmptyPendingIsNotWork(t *testing.T) {
	fw := newFakeWall()
	c := fw.clock()
	c.Begin(0)
	c.pending = []func(){} // empty but non-nil, as a take/append race could leave it
	adv, work := c.WaitUntil(50 * Microsecond)
	if len(work) != 0 {
		t.Fatalf("empty pending batch surfaced as %d-closure work", len(work))
	}
	if adv != 50*Microsecond {
		t.Fatalf("adv = %v, want the requested instant", adv)
	}
	if c.Injected() != 0 {
		t.Fatalf("empty batch counted as %d injected closures", c.Injected())
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

// BenchmarkShardRound measures one sync round — flush, grant computation
// (the mining fixpoint when on), telemetry, each shard's run to its grant
// and the clock commit — on all-to-all groups of 2, 4 and 8 shards, each
// with one 20 µs ticker, so the round machinery dominates the handlers.
func BenchmarkShardRound(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		for _, mode := range []struct {
			name string
			mine bool
		}{{"mined", true}, {"static", false}} {
			b.Run(fmt.Sprintf("shards=%d/%s", n, mode.name), func(b *testing.B) {
				g := NewShardGroup(n, 1)
				g.SetMining(mode.mine)
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
					g.RunFor(50 * Microsecond) // one static round per iteration
				}
				rounds, _ := g.Stats()
				b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
			})
		}
	}
}
