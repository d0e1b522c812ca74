// Native fuzz target for the event-queue backends: the input bytes decode
// into a stream of queue operations — schedule (including same-instant),
// arrival-band schedule, cancel, in-place reschedule, stale-handle probes,
// steps, bounded runs — and the same stream replays on every backend. The
// heap's observation log (every fire with its id and instant, every op's
// result, the final clock and counters) is the reference; any divergence
// on the wheel, hierarchical, or FFS backend fails. `make fuzz-smoke` runs
// this target beyond the checked-in corpus; plain `go test` replays the
// corpus as regressions.
package sim_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"softtimers/internal/sim"
)

// replayQueueOps decodes data as a queue-op stream, applies it to a fresh
// engine on the given backend, and returns the full observation log.
func replayQueueOps(data []byte, kind sim.QueueKind) []byte {
	eng := sim.NewEngineWithQueue(1, kind)
	var log []byte
	u64 := func(v uint64) { log = binary.AppendUvarint(log, v) }
	rec := func(tag byte, vs ...uint64) {
		log = append(log, tag)
		for _, v := range vs {
			u64(v)
		}
	}
	b := func(ok bool) uint64 {
		if ok {
			return 1
		}
		return 0
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
	sched := func(d sim.Time) {
		id := len(handles)
		handles = append(handles, eng.After(d, func() {
			rec('F', uint64(id), uint64(eng.Now()))
		}))
		arrival = append(arrival, false)
		rec('s', uint64(id), uint64(eng.Now()+d))
	}
	for i < len(data) {
		switch op := next(); op % 9 {
		case 0: // schedule near (delay 0 hits same-instant FIFO)
			sched(sim.Time(next()) * 7)
		case 1: // schedule far: three operand bytes scaled past the FFS
			// window and, at the top of the range, past the hierarchical
			// levels — the overflow lists and bucket wrap are in play
			d := sim.Time(next())<<16 | sim.Time(next())<<8 | sim.Time(next())
			sched(d * 4099)
		case 2: // cancel (live or stale — both results are part of the log)
			if idx := pick(); idx >= 0 {
				rec('c', uint64(idx), b(handles[idx].Cancel()))
			}
		case 3: // in-place reschedule to now+delay; two operand bytes so
			// reschedules cross window boundaries in both directions
			if idx := pick(); idx >= 0 {
				d := sim.Time(next())<<8 | sim.Time(next())
				if arrival[idx] {
					break // arrivals refuse reschedule
				}
				ok := handles[idx].Reschedule(eng.Now() + d*1021)
				rec('r', uint64(idx), b(ok), uint64(handles[idx].At()))
			}
		case 4: // probe: Pending and a stale Cancel/Reschedule must agree
			if idx := pick(); idx >= 0 {
				ev := handles[idx]
				rec('p', uint64(idx), b(ev.Pending()))
			}
		case 5:
			rec('S', b(eng.Step()), uint64(eng.Now()))
		case 6:
			eng.RunFor(sim.Time(next()) * 31)
			rec('T', uint64(eng.Now()), uint64(eng.Pending()))
		case 7: // same-instant reschedule: fresh seq, keeps time
			if idx := pick(); idx >= 0 && !arrival[idx] {
				ok := handles[idx].Reschedule(eng.Now())
				rec('z', uint64(idx), b(ok))
			}
		case 8: // arrival at a pending handle's instant (else now), so it
			// lands among ordinary events; the conduit is the operand
			at := eng.Now()
			if idx := pick(); idx >= 0 && handles[idx].Pending() {
				at = handles[idx].At()
			}
			conduit := int32(next() % 4)
			arrSeq++
			id := len(handles)
			handles = append(handles, eng.AtArrival(at, conduit, arrSeq, "", func() {
				rec('F', uint64(id), uint64(eng.Now()))
			}))
			arrival = append(arrival, true)
			rec('a', uint64(id), uint64(at))
		}
	}
	eng.Run()
	rec('E', uint64(eng.Now()), uint64(eng.Pending()), uint64(eng.MaxPending()), eng.Fired)
	return log
}

func FuzzEventQueueOps(f *testing.F) {
	// Schedule-heavy stream with cancels and a drain.
	f.Add([]byte{0, 10, 0, 0, 0, 20, 2, 0, 6, 50, 0, 3, 5, 200})
	// Same-instant pile-up, then in-place reschedules across it.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 7, 0, 3, 1, 0, 0, 7, 2, 5, 5, 5})
	// Reschedule churn against steps and bounded runs.
	f.Add([]byte{0, 30, 0, 60, 3, 0, 0, 10, 6, 2, 3, 1, 0, 90, 5, 6, 255, 4, 0, 4, 1})
	// Stale probes: fire everything, then cancel/reschedule the corpses.
	f.Add([]byte{0, 5, 0, 9, 6, 255, 2, 0, 2, 1, 3, 0, 0, 40, 7, 1, 4, 0})
	// Far schedules past the FFS window and the hierarchical levels, then
	// reschedules dragging them back inside the near window.
	f.Add([]byte{1, 0, 4, 0, 1, 200, 0, 0, 0, 12, 3, 0, 0, 3, 6, 255, 6, 255, 3, 1, 0, 2, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return // bound per-input work; coverage saturates far below this
		}
		ref := replayQueueOps(data, sim.QueueHeap)
		for _, kind := range sim.QueueKinds()[1:] {
			if got := replayQueueOps(data, kind); !bytes.Equal(got, ref) {
				t.Fatalf("[%s] observation log diverged from heap\n got %d bytes: %q\nwant %d bytes: %q",
					kind, len(got), got, len(ref), ref)
			}
		}
	})
}
