package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// A single-shard group must replay a bare engine run byte-for-byte:
// same seed, same event order, same clocks.
func TestShardGroupSingleShardMatchesEngine(t *testing.T) {
	run := func(eng *Engine, runTo func(Time)) []string {
		var log []string
		rng := NewRNG(7)
		var tick func()
		tick = func() {
			log = append(log, fmt.Sprintf("%d", eng.Now()))
			if eng.Now() < 2*Millisecond {
				eng.After(rng.ExpTime(50*Microsecond), tick)
			}
		}
		eng.After(10*Microsecond, tick)
		runTo(3 * Millisecond)
		return log
	}

	ref := NewEngine(42)
	want := run(ref, func(t Time) { ref.RunUntil(t) })

	g := NewShardGroup(1, 42)
	got := run(g.Engine(0), func(t Time) { g.Run(t) })

	if !reflect.DeepEqual(want, got) {
		t.Fatalf("single-shard group diverged from bare engine:\n%v\n%v", want, got)
	}
	if g.Now() != 3*Millisecond || g.Engine(0).Now() != 3*Millisecond {
		t.Fatalf("clocks not advanced to horizon: group %v engine %v", g.Now(), g.Engine(0).Now())
	}
}

// Arrival-band ordering on a single engine: at one instant, every
// ordinarily scheduled event fires first — even ones scheduled after the
// arrivals, or during the instant's own processing — then arrivals in
// (conduit, seq) order, regardless of scheduling order.
func TestEngineArrivalBandOrdering(t *testing.T) {
	eng := NewEngine(1)
	T := 100 * Microsecond
	var order []string
	log := func(s string) func() { return func() { order = append(order, s) } }

	eng.AtArrival(T, 7, 1, "", log("c7#1"))
	eng.AtArrival(T, 2, 2, "", log("c2#2"))
	eng.At(T, func() {
		order = append(order, "local1")
		eng.At(T, log("local-nested")) // same-instant, scheduled mid-processing
	})
	eng.AtArrival(T, 2, 1, "", log("c2#1"))
	eng.At(T, log("local2"))

	eng.RunUntil(Millisecond)
	want := []string{"local1", "local2", "local-nested", "c2#1", "c2#2", "c7#1"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("arrival-band order = %v, want %v", order, want)
	}
}

// Arrival events are first-class: cancelable via the returned handle, and
// the key-range panics guard the composite encoding.
func TestEngineArrivalBandHandlesAndPanics(t *testing.T) {
	eng := NewEngine(1)
	fired := false
	ev := eng.AtArrival(50*Microsecond, 1, 1, "x", func() { fired = true })
	if !ev.Pending() || ev.Label() != "x" {
		t.Fatal("arrival event handle not pending or mislabeled")
	}
	if !ev.Cancel() {
		t.Fatal("arrival event did not cancel")
	}
	eng.RunUntil(Millisecond)
	if fired {
		t.Fatal("canceled arrival fired")
	}

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("negative conduit", func() { eng.AtArrival(2*Millisecond, -1, 1, "", func() {}) })
	mustPanic("seq overflow", func() { eng.AtArrival(2*Millisecond, 0, 1<<28, "", func() {}) })
	mustPanic("past arrival", func() { eng.AtArrival(0, 0, 1, "", func() {}) })
}

// Cross-shard tie-breaking: messages due at the same instant execute in
// (time, conduit, seq) order after every ordinary event at that instant —
// conduit id order, not send order, source-shard order, or local-vs-remote
// provenance. The local arrival on conduit 1 beats both remote batches
// even though it is scheduled directly on the destination engine.
func TestShardGroupTieBreakOrdering(t *testing.T) {
	g := NewShardGroup(3, 1)
	g.SetLookahead(1, 0, 50*Microsecond)
	g.SetLookahead(2, 0, 50*Microsecond)

	// Conduit ids are caller-assigned (topologies use join order): shard
	// 2 sends on conduit 2, shard 1 on conduit 3.
	c2 := g.NewConduit(2, 2)
	c1 := g.NewConduit(1, 3)

	var order []string
	T := 100 * Microsecond
	// Shard 1 emits early, shard 2 late; both target the same instant.
	g.Engine(1).At(10*Microsecond, func() {
		c1.Send(0, T, 1, func() { order = append(order, "c3#1") })
		c1.Send(0, T, 2, func() { order = append(order, "c3#2") })
	})
	g.Engine(2).At(40*Microsecond, func() {
		c2.Send(0, T, 1, func() { order = append(order, "c2#1") })
		c2.Send(0, T, 2, func() { order = append(order, "c2#2") })
	})
	// Ordinary events on shard 0 at the same instant fire before every
	// arrival; a local arrival-band event interleaves with the remote
	// ones purely by conduit id.
	g.Engine(0).At(T, func() { order = append(order, "local") })
	g.Engine(0).AtArrival(T, 1, 1, "", func() { order = append(order, "c1#1") })

	g.Run(Millisecond)

	want := []string{"local", "c1#1", "c2#1", "c2#2", "c3#1", "c3#2"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("tie-break order = %v, want %v", order, want)
	}
	if rounds, msgs := g.Stats(); rounds == 0 || msgs != 4 {
		t.Fatalf("stats = %d rounds %d msgs, want >0 rounds and 4 msgs", rounds, msgs)
	}
}

// A message timestamped exactly at the run horizon is delivered in the
// same Run call, with the destination engine advanced to the horizon.
func TestShardGroupDeliversAtHorizon(t *testing.T) {
	g := NewShardGroup(2, 1)
	g.SetLookahead(0, 1, 25*Microsecond)
	c := g.NewConduit(0, 1)

	until := 200 * Microsecond
	fired := false
	g.Engine(0).At(until-25*Microsecond, func() {
		c.Send(1, until, 1, func() {
			if now := g.Engine(1).Now(); now != until {
				t.Errorf("horizon message ran at %v, want %v", now, until)
			}
			fired = true
		})
	})
	g.Run(until)
	if !fired {
		t.Fatal("message at the run horizon was not delivered")
	}
	if g.InFlight() != 0 {
		t.Fatalf("in-flight after run = %d, want 0", g.InFlight())
	}
}

// A message due after the run horizon is injected into its destination
// engine as a pending future event — the same shape an in-flight packet
// has on a single engine — and fires on the next Run.
func TestShardGroupCarriesMessagesAcrossRuns(t *testing.T) {
	g := NewShardGroup(2, 1)
	g.SetLookahead(0, 1, 25*Microsecond)
	c := g.NewConduit(0, 1)

	fired := false
	g.Engine(0).At(90*Microsecond, func() {
		c.Send(1, 150*Microsecond, 1, func() { fired = true })
	})
	g.Run(100 * Microsecond)
	if fired {
		t.Fatal("future message fired early")
	}
	if g.InFlight() != 0 || g.Engine(1).Pending() != 1 {
		t.Fatalf("in-flight = %d, dst pending = %d; want 0 and 1 (injected future event)",
			g.InFlight(), g.Engine(1).Pending())
	}
	g.Run(200 * Microsecond)
	if !fired {
		t.Fatal("carried message never fired")
	}
}

func TestShardGroupLookaheadPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	g := NewShardGroup(2, 1)
	mustPanic("zero lookahead", func() { g.SetLookahead(0, 1, 0) })
	mustPanic("self lookahead", func() { g.SetLookahead(1, 1, Microsecond) })
	mustPanic("negative conduit id", func() { g.NewConduit(0, -1) })

	c := g.NewConduit(0, 1)
	mustPanic("send without lookahead", func() { c.Send(1, Millisecond, 1, func() {}) })
	g.SetLookahead(0, 1, 30*Microsecond)
	mustPanic("send inside lookahead", func() { c.Send(1, 10*Microsecond, 1, func() {}) })
}

// ringLog runs the reference workload used by the equivalence tests: K
// logical nodes, each ticking at its own prime-ish period; every tick
// logs locally and hands a message to the next node D(i) later, which
// logs on arrival. send abstracts the hand-off so the same closure runs
// through one engine's arrival band (Engine.AtArrival) or across shards
// (Conduit.Send) — with the same (conduit, seq) keys, which is exactly
// how topologies wire it.
func ringLog(engines []*Engine, until Time,
	send func(src, dst int, at Time, seq uint64, fn func())) [][]string {
	const K = 4
	periods := []Time{7013, 11003, 13007, 17011} // ns, co-prime-ish
	delay := func(i int) Time { return 40*Microsecond + Time(i)*7 }

	logs := make([][]string, K)
	seqs := make([]uint64, K)
	node := func(i int) *Engine { return engines[i%len(engines)] }
	for i := 0; i < K; i++ {
		i := i
		var tick func()
		tick = func() {
			now := node(i).Now()
			logs[i] = append(logs[i], fmt.Sprintf("tick@%d", now))
			dst := (i + 1) % K
			at := now + delay(i)
			if at <= until {
				seqs[i]++
				send(i, dst, at, seqs[i], func() {
					logs[dst] = append(logs[dst], fmt.Sprintf("msg@%d from %d", at, i))
				})
			}
			if next := now + periods[i]; next <= until {
				node(i).At(next, tick)
			}
		}
		node(i).At(periods[i], tick)
	}
	return logs
}

// The sharded run must produce exactly the per-node event history of the
// same workload on one engine, in one Run or many.
func TestShardGroupMatchesSingleEngineReference(t *testing.T) {
	const until = 2 * Millisecond

	// Reference: all four nodes on one engine; the hand-off is an
	// arrival-band event keyed by the sender's conduit id (= src+1).
	ref := NewEngine(9)
	wantLogs := ringLog([]*Engine{ref, ref, ref, ref}, until,
		func(src, dst int, at Time, seq uint64, fn func()) {
			ref.AtArrival(at, int32(src)+1, seq, "", fn)
		})
	ref.RunUntil(until)

	shardedLogs := func(split []Time) [][]string {
		g := NewShardGroup(4, 9)
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
		for _, h := range split {
			g.Run(h)
		}
		if rounds, _ := g.Stats(); rounds == 0 {
			t.Fatal("sharded run executed no rounds")
		}
		return logs
	}

	cases := []struct {
		name  string
		split []Time
	}{
		{"one run", []Time{until}},
		{"resumed", []Time{until / 3, until}},
	}
	for _, tc := range cases {
		got := shardedLogs(tc.split)
		if !reflect.DeepEqual(wantLogs, got) {
			t.Fatalf("%s: sharded logs diverge from single-engine reference", tc.name)
		}
	}
}

// Rounds run on the goroutine that calls Run, whatever the deprecated
// Workers field says: no handler ever sees a goroutine beyond those alive
// before Run began. Fewer is fine: a previous test's runner goroutine may
// still be exiting when base is sampled.
func TestShardGroupRunsInline(t *testing.T) {
	const until = 2 * Millisecond
	g := NewShardGroup(4, 9)
	g.Workers = 8
	cons := make([]*Conduit, 4)
	for s := 0; s < 4; s++ {
		g.SetLookahead(s, (s+1)%4, 40*Microsecond)
		cons[s] = g.NewConduit(s, int32(s)+1)
	}
	var base, handlers, seen int
	check := func() {
		handlers++
		if n := runtime.NumGoroutine(); n > base && seen == 0 {
			seen = n
		}
	}
	engines := []*Engine{g.Engine(0), g.Engine(1), g.Engine(2), g.Engine(3)}
	ringLog(engines, until, func(src, dst int, at Time, seq uint64, fn func()) {
		check()
		cons[src].Send(dst, at, seq, func() { check(); fn() })
	})
	base = runtime.NumGoroutine()
	g.Run(until)
	if seen != 0 {
		t.Fatalf("a handler saw %d goroutines, %d were alive before Run", seen, base)
	}
	if rounds, msgs := g.Stats(); handlers == 0 || rounds == 0 || msgs == 0 {
		t.Fatalf("ran %d handlers in %d rounds with %d messages; want all non-zero", handlers, rounds, msgs)
	}
}
