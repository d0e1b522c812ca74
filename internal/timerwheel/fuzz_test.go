// Native fuzz target for the timing wheels: the input bytes decode into a
// stream of timer operations — Schedule near, far (past the hierarchical
// levels) and already past, ScheduleFree, Cancel, Reschedule, Rearm, and
// Advance over short spans, full rotations and huge jumps — and every timer
// carries an action its handler performs when it fires: schedule a child
// (handled, then rescheduled in place, or pooled) or re-arm itself. The same
// stream replays on the hashed wheel at 16 and 256 slots, on the
// hierarchical wheel and on refQueue; the observation logs (per-Advance fire
// counts and fired timers, the due check before each Advance, Earliest
// after it, Len after every op, each op's result) must match the
// reference's. `make fuzz-smoke` runs this target beyond the checked-in
// corpus; plain `go test` replays the corpus as regressions.
package timerwheel

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
)

// fuzzQueue is the surface the op stream drives, over a wheel or refQueue.
type fuzzQueue interface {
	schedule(deadline Tick, fn Handler) fuzzTimer
	scheduleFree(deadline Tick, fn Handler)
	due(now Tick) bool
	advance(now Tick) int
	earliest() Tick
	len() int
	consistent() bool // internal invariants hold
}

type fuzzTimer interface {
	cancel() bool
	reschedule(deadline Tick) bool
	rearm(deadline Tick) bool // false, and no effect, while pending
}

type wheelFuzz struct{ q Queue }

func (w wheelFuzz) schedule(d Tick, fn Handler) fuzzTimer { return wheelTimer{w.q.Schedule(d, fn)} }
func (w wheelFuzz) scheduleFree(d Tick, fn Handler)       { w.q.ScheduleFree(d, fn) }
func (w wheelFuzz) advance(now Tick) int                  { return w.q.Advance(now) }
func (w wheelFuzz) earliest() Tick                        { return w.q.Earliest() }
func (w wheelFuzz) len() int                              { return w.q.Len() }
func (w wheelFuzz) consistent() bool                      { return occupancyExact(w.q) }

// due is the check a trigger state makes: Wheel.Due on the hashed wheel
// (which may rescan a stale bound), Earliest on the hierarchical one.
func (w wheelFuzz) due(now Tick) bool {
	if hw, ok := w.q.(*Wheel); ok {
		return hw.Due(now)
	}
	return w.q.Earliest() <= now
}

type wheelTimer struct{ t *Timer }

func (t wheelTimer) cancel() bool           { return t.t.Cancel() }
func (t wheelTimer) reschedule(d Tick) bool { return t.t.Reschedule(d) }
func (t wheelTimer) rearm(d Tick) bool {
	if t.t.Pending() {
		return false
	}
	t.t.Rearm(d, nil)
	return true
}

type refFuzz struct{ r *refQueue }

func (r refFuzz) schedule(d Tick, fn Handler) fuzzTimer {
	return refFuzzTimer{r.r, r.r.schedule(d, fn)}
}
func (r refFuzz) scheduleFree(d Tick, fn Handler) { r.r.schedule(d, fn) }
func (r refFuzz) due(now Tick) bool               { return r.r.earliest() <= now }
func (r refFuzz) advance(now Tick) int            { return r.r.advance(now) }
func (r refFuzz) earliest() Tick                  { return r.r.earliest() }
func (r refFuzz) len() int                        { return r.r.len() }
func (r refFuzz) consistent() bool                { return true }

type refFuzzTimer struct {
	r *refQueue
	t *refTimer
}

func (t refFuzzTimer) cancel() bool           { return t.r.cancel(t.t) }
func (t refFuzzTimer) reschedule(d Tick) bool { return t.r.reschedule(t.t, d) }
func (t refFuzzTimer) rearm(d Tick) bool {
	if t.t.live() {
		return false
	}
	t.r.rearm(t.t, d)
	return true
}

// occupancyExact reports whether q's occupancy bitmap has exactly the bits
// of its non-empty slots set.
func occupancyExact(q Queue) bool {
	switch q := q.(type) {
	case *Wheel:
		for i := range len(q.occ) * 64 {
			occupied := i < len(q.slots) && q.slots[i].head != nil
			if occupied != (q.occ[i>>6]&(1<<(i&63)) != 0) {
				return false
			}
		}
	case *Hierarchical:
		for l := range q.levels {
			for i := range q.levels[l] {
				if (q.levels[l][i].head != nil) != (q.occ[l]&(1<<i) != 0) {
					return false
				}
			}
		}
	}
	return true
}

// replayWheelOps decodes data as a timer-op stream, applies it to q, and
// returns the observation log. Handlers touch only their own timer and the
// children they create, so the log cannot depend on the (unspecified)
// order in which one Advance fires its due timers; what handlers do is
// logged per Advance as a sorted list.
func replayWheelOps(data []byte, q fuzzQueue) []byte {
	var log []byte
	rec := func(tag byte, vs ...uint64) {
		log = append(log, tag)
		for _, v := range vs {
			log = binary.AppendUvarint(log, v)
		}
	}
	b := func(ok bool) uint64 {
		if ok {
			return 1
		}
		return 0
	}
	i := 0
	next := func() byte {
		if i < len(data) {
			v := data[i]
			i++
			return v
		}
		return 0
	}
	var (
		now     Tick
		seen    []uint64 // what the Advance in progress did, sorted at its end
		handles []fuzzTimer
	)
	// note records a handler's doing as label<<2|kind: kind 0 fired, 1 a
	// child rescheduled in place, 2 a self re-arm; 3 marks a refused one.
	note := func(label uint64, kind uint64, ok bool) {
		if !ok {
			kind = 3
		}
		seen = append(seen, label<<2|kind)
	}
	// handler returns the callback for the timer labeled label. action
	// picks what it does on firing: 0 nothing; 1 schedule a handled child
	// and reschedule it in place; 2 schedule a pooled child; 3 re-arm
	// itself (a handled timer through its handle, a pooled one with a
	// fresh ScheduleFree), at most three times. The operand in action>>2
	// is the delay, so 0 makes a child that is due at once and must wait
	// for the next Advance.
	var handler func(label uint64, action byte, self *fuzzTimer) Handler
	handler = func(label uint64, action byte, self *fuzzTimer) Handler {
		fires := uint64(0)
		var fn Handler
		fn = func(at Tick) {
			note(label, 0, true)
			fires++
			child := 1<<56 | label<<8 | fires
			d := Tick(action >> 2)
			switch action % 4 {
			case 1:
				c := q.schedule(at+d, handler(child, 0, nil))
				note(child, 1, c.reschedule(at+d/2))
			case 2:
				q.scheduleFree(at+d, handler(child, 0, nil))
			case 3:
				if fires > 3 {
					break
				}
				if self != nil {
					note(label, 2, (*self).rearm(at+d))
				} else {
					q.scheduleFree(at+d, fn)
				}
			}
		}
		return fn
	}
	schedule := func(d Tick) {
		label := uint64(len(handles))
		self := new(fuzzTimer)
		*self = q.schedule(d, handler(label, next(), self))
		handles = append(handles, *self)
	}
	pick := func() fuzzTimer {
		if len(handles) == 0 {
			return nil
		}
		return handles[int(next())%len(handles)]
	}
	advance := func(to Tick) {
		now = to
		rec('d', b(q.due(now)))
		seen = seen[:0]
		n := q.advance(now)
		slices.Sort(seen)
		rec('A', uint64(n), uint64(len(seen)))
		for _, v := range seen {
			rec('f', v)
		}
		rec('e', q.earliest())
	}
	for i < len(data) {
		switch op := next(); op % 8 {
		case 0: // near
			schedule(now + Tick(next()))
		case 1: // far: up to ~50M ticks, past the hierarchical top level
			d := Tick(next())<<16 | Tick(next())<<8 | Tick(next())
			schedule(now + 3*d)
		case 2: // already past (or due now)
			schedule(now - min(now, Tick(next())))
		case 3: // pooled: nothing can cancel it
			label := 1<<40 | uint64(i)
			d := Tick(next())<<8 | Tick(next())
			q.scheduleFree(now+d, handler(label, next(), nil))
		case 4:
			if t := pick(); t != nil {
				rec('c', b(t.cancel()))
			}
		case 5: // in place, forward or into the past
			if t := pick(); t != nil {
				hi, lo := next(), next()
				d := now + (Tick(hi)<<8|Tick(lo))*7
				if hi >= 128 {
					d = now - min(now, Tick(lo))
				}
				rec('r', b(t.reschedule(d)))
			}
		case 6:
			if t := pick(); t != nil {
				rec('R', b(t.rearm(now+3*Tick(next()))))
			}
		case 7: // short spans, then whole rotations, then a huge jump
			switch s := next(); {
			case s < 192:
				advance(now + Tick(s))
			case s < 255:
				advance(now + Tick(s-191)*1021)
			default:
				advance(now + 1<<24)
			}
		}
		rec('L', uint64(q.len()), b(q.consistent()))
	}
	// Drain: self re-arms stop after three, children do nothing.
	for k := 0; k < 8 && q.len() > 0; k++ {
		advance(now + 1<<26)
	}
	rec('E', uint64(q.len()))
	return log
}

func FuzzWheelOps(f *testing.F) {
	// Schedules with every handler action, cancels and a drain.
	f.Add([]byte{0, 10, 0, 5, 0, 1, 0, 20, 2, 0, 50, 3, 4, 0, 7, 60, 0, 7, 200})
	// Reschedule and rearm churn across short advances.
	f.Add([]byte{0, 30, 0, 0, 60, 3, 5, 0, 0, 10, 7, 40, 6, 0, 9, 7, 50, 6, 0, 9, 5, 1, 128, 5, 7, 3})
	// Far timers past the hierarchical levels, then rotations and a jump.
	f.Add([]byte{1, 0, 4, 0, 1, 1, 200, 0, 0, 2, 7, 250, 7, 254, 5, 0, 0, 3, 7, 255, 7, 255})
	// Past deadlines and in-handler children that are due at once.
	f.Add([]byte{7, 100, 2, 50, 1, 2, 0, 2, 3, 0, 2, 0, 5, 7, 0, 7, 1, 7, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return // bound per-input work; coverage saturates far below this
		}
		ref := replayWheelOps(data, refFuzz{&refQueue{}})
		for _, c := range []struct {
			name string
			q    Queue
		}{
			{"hashed/16", New(16)},
			{"hashed/256", New(256)},
			{"hierarchical", NewHierarchical()},
		} {
			if got := replayWheelOps(data, wheelFuzz{c.q}); !bytes.Equal(got, ref) {
				t.Fatalf("[%s] observation log diverged from refQueue\n got %d bytes: %q\nwant %d bytes: %q",
					c.name, len(got), got, len(ref), ref)
			}
		}
	})
}
