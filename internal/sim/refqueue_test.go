package sim_test

import (
	"fmt"

	"softtimers/internal/sim"
)

// refQueue is the engine queue's ordering contract written the simplest
// way it can be: a fixed array of slots, one per event id, each with an
// in-use flag, scanned end to end for the least key on every fire — the
// fixed-array-and-scan soft-timer baseline. It keys every live event as the
// engine does, by instant and then seq: it mirrors the engine's FIFO
// counter with one draw per schedule, and an arrival carries its
// caller-owned 1<<63 | conduit<<28 | seq key. It also follows the clock by
// the run loop's edge rules, so each fire, each Cancel result, the clock
// and MaxPending can all be checked against it.
type refQueue struct {
	slots   []refSlot // indexed by event id
	seq     uint64    // the engine's FIFO counter, mirrored
	now     sim.Time
	live    int
	maxLive int
	fired   int
}

type refSlot struct {
	at    sim.Time
	key   uint64
	inuse bool
}

func (r *refQueue) add(id int, at sim.Time, key uint64) {
	for len(r.slots) <= id {
		r.slots = append(r.slots, refSlot{})
	}
	r.slots[id] = refSlot{at: at, key: key, inuse: true}
	r.live++
	r.maxLive = max(r.maxLive, r.live)
}

// schedule mirrors At: the event draws the next seq.
func (r *refQueue) schedule(id int, at sim.Time) {
	r.seq++
	r.add(id, at, r.seq)
}

// arrival mirrors AtArrival's band key.
func (r *refQueue) arrival(id int, at sim.Time, conduit int32, seq uint64) {
	r.add(id, at, 1<<63|uint64(conduit)<<28|seq)
}

func (r *refQueue) pending(id int) bool { return id < len(r.slots) && r.slots[id].inuse }

// cancel retires id, reporting whether it was live — what Event.Cancel
// must return.
func (r *refQueue) cancel(id int) bool {
	if !r.pending(id) {
		return false
	}
	r.slots[id].inuse = false
	r.live--
	return true
}

// least returns the live event with the least (at, key), or -1.
func (r *refQueue) least() int {
	best := -1
	for i, s := range r.slots {
		if s.inuse && (best < 0 || s.at < r.slots[best].at ||
			s.at == r.slots[best].at && s.key < r.slots[best].key) {
			best = i
		}
	}
	return best
}

// fire checks that id, firing at now, is the least live event, then
// retires it and moves the clock to its instant.
func (r *refQueue) fire(id int, now sim.Time) error {
	want := r.least()
	switch {
	case want < 0:
		return fmt.Errorf("event %d fired at %v with nothing live", id, now)
	case want != id:
		w := r.slots[want]
		if !r.pending(id) {
			return fmt.Errorf("event %d fired at %v but is not live; the least live event is %d at %v",
				id, now, want, w.at)
		}
		return fmt.Errorf("event %d fired at %v (key %#x) before the least live event %d at %v (key %#x)",
			id, now, r.slots[id].key, want, w.at, w.key)
	case now != r.slots[id].at:
		return fmt.Errorf("event %d fired at %v, scheduled for %v", id, now, r.slots[id].at)
	}
	r.slots[id].inuse = false
	r.live--
	r.fired++
	r.now = now
	return nil
}

// runUntil mirrors the end of RunUntil(t): nothing live is due by t, and
// the clock sits at t unless it was already later.
func (r *refQueue) runUntil(t sim.Time) error {
	if i := r.least(); i >= 0 && r.slots[i].at <= t {
		return fmt.Errorf("event %d due at %v still pending after RunUntil(%v)", i, r.slots[i].at, t)
	}
	r.now = max(r.now, t)
	return nil
}

// finish checks a drained engine's end state against the reference: every
// event fired or was cancelled, and the clock, MaxPending and Fired agree.
func (r *refQueue) finish(eng *sim.Engine) error {
	switch {
	case r.live != 0 || eng.Pending() != 0:
		return fmt.Errorf("after Run: engine has %d pending, reference %d live", eng.Pending(), r.live)
	case eng.Now() != r.now:
		return fmt.Errorf("final clock %v, reference %v", eng.Now(), r.now)
	case eng.MaxPending() != r.maxLive:
		return fmt.Errorf("MaxPending %d, reference peaked at %d live", eng.MaxPending(), r.maxLive)
	case eng.Fired != uint64(r.fired):
		return fmt.Errorf("engine fired %d events, reference %d", eng.Fired, r.fired)
	}
	return nil
}
