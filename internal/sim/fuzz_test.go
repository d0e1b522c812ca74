// Native fuzz target for the engine's event queue: the input bytes decode
// into a stream of queue operations — schedule (including same-instant),
// arrival-band schedule, cancel, moves, stale-handle probes,
// steps, bounded runs — replayed on an engine and mirrored into the
// linear-scan reference in refqueue_test.go. Every fire must be the least
// live event in the reference, and every op's result, the clock, the
// pending count, MaxPending and Fired must agree with it. `make fuzz-smoke`
// runs this target beyond the checked-in corpus; plain `go test` replays
// the corpus as regressions.
package sim_test

import (
	"testing"

	"softtimers/internal/sim"
)

// replayQueueOps decodes data as a queue-op stream and applies it to a
// fresh engine and the reference, failing t at the first disagreement.
func replayQueueOps(t *testing.T, data []byte) {
	eng := sim.NewEngine(1)
	var ref refQueue
	check := func() {
		if eng.Pending() != ref.live || eng.Now() != ref.now {
			t.Fatalf("engine has %d pending at %v, reference %d live at %v",
				eng.Pending(), eng.Now(), ref.live, ref.now)
		}
	}
	var handles []sim.Event
	var arrival []bool // per handle: scheduled in the arrival band
	var arrSeq uint64  // arrival seq counter: (conduit, seq) never repeats
	i := 0
	next := func() byte {
		if i < len(data) {
			v := data[i]
			i++
			return v
		}
		return 0
	}
	pick := func() int { // operand -> handle index; -1 when none exist
		if len(handles) == 0 {
			return -1
		}
		return int(next()) % len(handles)
	}
	onFire := func(id int) func() {
		return func() {
			if err := ref.fire(id, eng.Now()); err != nil {
				t.Fatal(err)
			}
		}
	}
	sched := func(d sim.Time) {
		id := len(handles)
		handles = append(handles, eng.After(d, onFire(id)))
		arrival = append(arrival, false)
		ref.schedule(id, ref.now+d)
	}
	// move moves a live ordinary event the way callers do: cancel it and
	// schedule its replacement at at. A dead handle is left alone.
	move := func(idx int, at sim.Time) {
		if !ref.pending(idx) {
			return
		}
		if !handles[idx].Cancel() || !ref.cancel(idx) {
			t.Fatalf("Cancel of live handle %d failed", idx)
		}
		id := len(handles)
		handles = append(handles, eng.At(at, onFire(id)))
		arrival = append(arrival, false)
		ref.schedule(id, at)
	}
	for i < len(data) {
		switch op := next(); op % 9 {
		case 0: // schedule near (delay 0 hits same-instant FIFO)
			sched(sim.Time(next()) * 7)
		case 1: // schedule far: three operand bytes scaled up to ~69 s out,
			// so far-future leaders sit deep in the heap
			d := sim.Time(next())<<16 | sim.Time(next())<<8 | sim.Time(next())
			sched(d * 4099)
		case 2: // cancel (live or stale — the result must match the reference)
			if idx := pick(); idx >= 0 {
				if got, want := handles[idx].Cancel(), ref.cancel(idx); got != want {
					t.Fatalf("Cancel of handle %d returned %v, reference %v", idx, got, want)
				}
			}
		case 3: // move to now+delay; two operand bytes so moves go both
			// earlier and later than the event's peers
			if idx := pick(); idx >= 0 {
				d := sim.Time(next())<<8 | sim.Time(next())
				if arrival[idx] {
					break // arrivals keep their caller-owned keys
				}
				move(idx, ref.now+d*1021)
			}
		case 4: // probe: Pending must match the reference
			if idx := pick(); idx >= 0 {
				if got, want := handles[idx].Pending(), ref.pending(idx); got != want {
					t.Fatalf("handle %d Pending() = %v, reference %v", idx, got, want)
				}
			}
		case 5:
			live := ref.live
			if got := eng.Step(); got != (live > 0) {
				t.Fatalf("Step returned %v with %d live in the reference", got, live)
			}
		case 6:
			d := sim.Time(next()) * 31
			target := ref.now + d
			eng.RunFor(d)
			if err := ref.runUntil(target); err != nil {
				t.Fatal(err)
			}
		case 7: // move to the current instant: fresh seq, behind its peers
			if idx := pick(); idx >= 0 && !arrival[idx] {
				move(idx, ref.now)
			}
		case 8: // arrival at a pending handle's instant (else now), so it
			// lands among ordinary events; the conduit is the operand
			at := ref.now
			if idx := pick(); idx >= 0 && ref.pending(idx) {
				at = ref.slots[idx].at
			}
			conduit := int32(next() % 4)
			arrSeq++
			id := len(handles)
			handles = append(handles, eng.AtArrival(at, conduit, arrSeq, "", onFire(id)))
			arrival = append(arrival, true)
			ref.arrival(id, at, conduit, arrSeq)
		}
		check()
	}
	eng.Run()
	if err := ref.finish(eng); err != nil {
		t.Fatal(err)
	}
}

func FuzzEventQueueOps(f *testing.F) {
	// Schedule-heavy stream with cancels and a drain.
	f.Add([]byte{0, 10, 0, 0, 0, 20, 2, 0, 6, 50, 0, 3, 5, 200})
	// Same-instant pile-up, then moves across it.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 7, 0, 3, 1, 0, 0, 7, 2, 5, 5, 5})
	// Move churn against steps and bounded runs.
	f.Add([]byte{0, 30, 0, 60, 3, 0, 0, 10, 6, 2, 3, 1, 0, 90, 5, 6, 255, 4, 0, 4, 1})
	// Stale probes: fire everything, then cancel/move the corpses.
	f.Add([]byte{0, 5, 0, 9, 6, 255, 2, 0, 2, 1, 3, 0, 0, 40, 7, 1, 4, 0})
	// Far schedules, then moves dragging them back near now.
	f.Add([]byte{1, 0, 4, 0, 1, 200, 0, 0, 0, 12, 3, 0, 0, 3, 6, 255, 6, 255, 3, 1, 0, 2, 5, 5})
	// A batch at 7 ns whose leader-table entry is evicted by 672 ns (the
	// same table slot) and retaken by a second leader at 7 ns; the first
	// leader then pops, and its promoted follower must not take the entry,
	// or the next push at 7 ns queues behind it, ahead of the second leader.
	f.Add([]byte{0, 1, 0, 1, 0, 96, 0, 1, 5, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return // bound per-input work; coverage saturates far below this
		}
		replayQueueOps(t, data)
	})
}
