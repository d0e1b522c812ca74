// Native fuzz target for the soft-timer facility: the input bytes decode
// into a stream of facility operations — ScheduleSoftEvent and
// ScheduleSoftEventFree with T from near to past one wheel rotation (and
// past the hierarchical wheel's top level), Cancel and Event.Rearm on a
// pending, fired or canceled handle, clock steps (sub-tick, whole wheel
// rotations, jumps past 2^24 ticks), Trigger from a source the stream
// picks, the hardclock included, and EventBefore queries. Every event
// carries an action its handler performs: nothing, schedule a handled or a
// pooled child, re-arm itself, or make a re-entrant Trigger call.
//
// Each input replays on three facilities (hashed 256- and 16-slot wheels
// and the hierarchical wheel), each in lockstep with refFacility, a slice
// of records scanned linearly. After every operation the two must agree on
// the (id, d) pairs each trigger state fired, the cost Trigger returned,
// Stats, Pending, MaxDelayUS, FiresBySource, DelayHist's count and sum, and
// every Cancel, Pending and EventBefore answer. Handlers act only on their
// own event and the children they create, so nothing observed depends on
// the unspecified order in which one trigger state fires its due events.
// `make fuzz-smoke` runs this target beyond the checked-in corpus; plain
// `go test` replays the corpus as regressions.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"softtimers/internal/cpu"
	"softtimers/internal/kernel"
	"softtimers/internal/sim"
)

// fuzzAction decodes an event's action byte: kind is what its handler does
// on firing (0 nothing, 1 a handled child, 2 a pooled child, 3 re-arm
// itself, at most three times, 4 a re-entrant Trigger), and T is the
// latency a child or a re-arm asks for, from due at once to past one
// rotation of the 256-slot wheel.
func fuzzAction(a byte) (kind byte, T uint64) {
	return a % 5, uint64(a/5) * 6
}

// fuzzCost is the CPU time the handler of event id reports.
func fuzzCost(id uint64) sim.Time { return sim.Time(id%7) * 10 }

// fuzzChild is the id of the child an event's fires-th firing creates.
// Collisions would be harmless: fired events are compared as a multiset.
func fuzzChild(id uint64, fires int) uint64 { return 1<<56 | id<<8 | uint64(fires) }

// firing is one handler run as the log records it: the event, its delay d
// beyond T in ticks, and what a re-entrant Trigger from it returned.
type firing struct {
	id, d  uint64
	nested sim.Time
}

func sortFirings(fs []firing) {
	slices.SortFunc(fs, func(a, b firing) int {
		return cmp.Or(cmp.Compare(a.id, b.id), cmp.Compare(a.d, b.d))
	})
}

// refEvent is one record of the reference facility.
type refEvent struct {
	id       uint64
	action   byte
	fires    int
	sched, T uint64
	deadline uint64 // sched + T + 1
	live     bool
	pooled   bool
}

// refFacility is the oracle: every pending event is a record in a slice,
// and a trigger state at tick k fires every record that was live when the
// trigger state began and whose deadline is at most k.
type refFacility struct {
	recs      []*refEvent
	softCall  sim.Time
	checks    int64
	scheduled int64
	fired     int64
	canceled  int64
	maxDelay  int64
	bySource  [kernel.NumSources]int64
	delayN    int64
	delaySum  float64
	firing    bool
	log       []firing // the trigger state in progress
}

func (r *refFacility) schedule(id uint64, action byte, now, T uint64, pooled bool) *refEvent {
	e := &refEvent{id: id, action: action, pooled: pooled}
	r.recs = append(r.recs, e)
	r.arm(e, now, T)
	return e
}

func (r *refFacility) arm(e *refEvent, now, T uint64) {
	r.scheduled++
	e.sched, e.T, e.deadline, e.live = now, T, now+T+1, true
}

func (r *refFacility) cancel(e *refEvent) bool {
	if !e.live {
		return false
	}
	e.live = false
	r.canceled++
	return true
}

func (r *refFacility) rearm(e *refEvent, now, T uint64) {
	if e.live {
		r.canceled++
	}
	r.arm(e, now, T)
}

func (r *refFacility) pending() int {
	n := 0
	for _, e := range r.recs {
		if e.live {
			n++
		}
	}
	return n
}

func (r *refFacility) eventBefore(t sim.Time) bool {
	for _, e := range r.recs {
		if e.live && sim.Time(e.deadline)*sim.Microsecond < t {
			return true
		}
	}
	return false
}

func (r *refFacility) trigger(src kernel.Source, k uint64) sim.Time {
	r.checks++
	if r.firing {
		return 0
	}
	var due []*refEvent
	for _, e := range r.recs {
		if e.live && e.deadline <= k {
			due = append(due, e)
		}
	}
	if len(due) == 0 {
		return 0
	}
	// Off the queue first, all at once: what a handler schedules, even due
	// at once, waits for the next trigger state.
	for _, e := range due {
		e.live = false
	}
	r.firing = true
	var cost sim.Time
	for _, e := range due {
		d := k - e.sched - e.T
		r.fired++
		r.bySource[src]++
		r.delayN++
		r.delaySum += float64(d)
		r.maxDelay = max(r.maxDelay, int64(d))
		e.fires++
		fi := firing{id: e.id, d: d}
		switch kind, T := fuzzAction(e.action); kind {
		case 1, 2:
			r.schedule(fuzzChild(e.id, e.fires), 0, k, T, kind == 2)
		case 3:
			if e.fires <= 3 {
				r.arm(e, k, T)
			}
		case 4:
			fi.nested = r.trigger(kernel.SrcIPOutput, k)
		}
		r.log = append(r.log, fi)
		cost += r.softCall + fuzzCost(e.id)
	}
	r.firing = false
	sortFirings(r.log)
	return cost
}

// fuzzEvent is the facility side of one event: what its handler needs to
// log a firing (sched and T as last scheduled) and to act.
type fuzzEvent struct {
	id       uint64
	action   byte
	fires    int
	sched, T uint64
	ev       *Event // nil for a pooled event
}

// facilityRig drives one facility and its reference in lockstep.
type facilityRig struct {
	t       *testing.T
	name    string
	clock   sim.Time
	f       *Facility
	ref     refFacility
	handles []facilityHandle
	log     []firing // what the facility's trigger state in progress fired
}

// facilityHandle is a handled event on both sides.
type facilityHandle struct {
	fe  *fuzzEvent
	rec *refEvent
}

func (r *facilityRig) tick() uint64 { return uint64(r.clock / sim.Microsecond) }

func (r *facilityRig) handler(fe *fuzzEvent) Handler {
	var h Handler
	h = func(sim.Time) sim.Time {
		tick := r.tick()
		fe.fires++
		fi := firing{id: fe.id, d: tick - fe.sched - fe.T}
		switch kind, T := fuzzAction(fe.action); kind {
		case 1:
			c := &fuzzEvent{id: fuzzChild(fe.id, fe.fires), sched: tick, T: T}
			c.ev = r.f.ScheduleSoftEvent(T, r.handler(c))
		case 2:
			c := &fuzzEvent{id: fuzzChild(fe.id, fe.fires), sched: tick, T: T}
			r.f.ScheduleSoftEventFree(T, r.handler(c))
		case 3:
			if fe.fires > 3 {
				break
			}
			fe.sched, fe.T = tick, T
			if fe.ev != nil {
				fe.ev.Rearm(T)
			} else {
				r.f.ScheduleSoftEventFree(T, h)
			}
		case 4:
			fi.nested = r.f.Trigger(kernel.SrcIPOutput, r.clock)
		}
		r.log = append(r.log, fi)
		return fuzzCost(fe.id)
	}
	return h
}

func (r *facilityRig) fail(op string, format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("[%s] at tick %d, after %s: %s", r.name, r.tick(), op, fmt.Sprintf(format, args...))
}

// compare checks every counter and gauge the facility reports against the
// reference.
func (r *facilityRig) compare(op string) {
	r.t.Helper()
	f, ref := r.f, &r.ref
	st := f.Stats()
	want := Stats{Checks: ref.checks, Scheduled: ref.scheduled, Fired: ref.fired, Canceled: ref.canceled,
		CheckOverhead: sim.Time(ref.checks) * f.k.Profile().SoftCheck}
	if st != want {
		r.fail(op, "Stats = %+v, want %+v", st, want)
	}
	if got, want := f.wheel.Len(), ref.pending(); got != want {
		r.fail(op, "Pending = %d, want %d", got, want)
	}
	if got, want := f.MaxDelayUS(), ref.maxDelay; got != want {
		r.fail(op, "MaxDelayUS = %d, want %d", got, want)
	}
	if f.FiresBySource != ref.bySource {
		r.fail(op, "FiresBySource = %v, want %v", f.FiresBySource, ref.bySource)
	}
	if n, sum := f.DelayHist.N(), f.DelayHist.Sum(); n != ref.delayN || sum != ref.delaySum {
		r.fail(op, "DelayHist count %d sum %v, want %d and %v", n, sum, ref.delayN, ref.delaySum)
	}
}

func (r *facilityRig) schedule(id uint64, action byte, T uint64, pooled bool) {
	now := r.tick()
	fe := &fuzzEvent{id: id, action: action, sched: now, T: T}
	rec := r.ref.schedule(id, action, now, T, pooled)
	if pooled {
		r.f.ScheduleSoftEventFree(T, r.handler(fe))
		return
	}
	fe.ev = r.f.ScheduleSoftEvent(T, r.handler(fe))
	r.handles = append(r.handles, facilityHandle{fe, rec})
}

func (r *facilityRig) trigger(src kernel.Source) {
	r.log = r.log[:0]
	r.ref.log = r.ref.log[:0]
	cost := r.f.Trigger(src, r.clock)
	want := r.ref.trigger(src, r.tick())
	op := "Trigger(" + src.String() + ")"
	sortFirings(r.log)
	if !slices.Equal(r.log, r.ref.log) {
		r.fail(op, "fired %v, want %v", r.log, r.ref.log)
	}
	if cost != want {
		r.fail(op, "cost %v, want %v", cost, want)
	}
}

// replayFacilityOps decodes data as a facility-op stream and applies it to a
// facility built with opts and a hashed wheel of slots slots, and to the
// reference, comparing them after every operation.
func replayFacilityOps(t *testing.T, name string, data []byte, opts Options, slots int) {
	t.Helper()
	r := &facilityRig{t: t, name: name}
	k := kernel.New(sim.NewEngine(7), cpu.PentiumII300(), kernel.Options{})
	opts.TimeSource = func() sim.Time { return r.clock }
	r.f = newFacility(k, opts, slots)
	r.ref.softCall = k.Profile().SoftCall
	i := 0
	next := func() byte {
		if i < len(data) {
			v := data[i]
			i++
			return v
		}
		return 0
	}
	// T for ops that carry one: a byte, and a ninth bit from the op byte,
	// so deadlines reach past one rotation of the 256-slot wheel.
	latency := func(op byte) uint64 { return uint64(next()) | uint64(op>>3&1)<<8 }
	pick := func() *facilityHandle {
		if len(r.handles) == 0 {
			return nil
		}
		return &r.handles[int(next())%len(r.handles)]
	}
	for i < len(data) {
		at := i
		var desc string
		switch op := next(); op % 8 {
		case 0:
			T := latency(op)
			r.schedule(uint64(len(r.handles)), next(), T, false)
			desc = fmt.Sprintf("ScheduleSoftEvent(%d)", T)
		case 1: // past the hierarchical wheel's top level, up to ~50M ticks
			T := 3 * (uint64(next())<<16 | uint64(next())<<8 | uint64(next()))
			r.schedule(uint64(len(r.handles)), next(), T, false)
			desc = fmt.Sprintf("ScheduleSoftEvent(%d)", T)
		case 2:
			T := latency(op)
			r.schedule(1<<40|uint64(at), next(), T, true)
			desc = fmt.Sprintf("ScheduleSoftEventFree(%d)", T)
		case 3:
			if h := pick(); h != nil {
				desc = fmt.Sprintf("Cancel(%d)", h.fe.id)
				if got, want := h.fe.ev.Cancel(), r.ref.cancel(h.rec); got != want {
					r.fail(desc, "Cancel = %v, want %v", got, want)
				}
				if h.fe.ev.t.Pending() {
					r.fail(desc, "canceled event still pending")
				}
			}
		case 4:
			T := latency(op)
			if h := pick(); h != nil {
				desc = fmt.Sprintf("Rearm(%d, %d)", h.fe.id, T)
				if got, want := h.fe.ev.t.Pending(), h.rec.live; got != want {
					r.fail(desc, "Pending before = %v, want %v", got, want)
				}
				h.fe.sched, h.fe.T = r.tick(), T
				h.fe.ev.Rearm(T)
				r.ref.rearm(h.rec, r.tick(), T)
				if !h.fe.ev.t.Pending() {
					r.fail(desc, "re-armed event not pending")
				}
			}
		case 5: // sub-tick steps, whole rotations, and jumps past 2^24 ticks
			switch s := next(); {
			case s < 160:
				r.clock += sim.Time(s) * 250 * sim.Nanosecond
			case s < 255:
				r.clock += sim.Time(s-159) * 16 * sim.Microsecond
			default:
				r.clock += sim.Time(1<<24+uint64(next())) * sim.Microsecond
			}
			desc = fmt.Sprintf("clock step to %v", r.clock)
		case 6:
			src := kernel.Source(int(op>>3) % kernel.NumSources)
			r.trigger(src)
			desc = "Trigger(" + src.String() + ")"
		case 7:
			before := r.clock + sim.Time(next())*4*sim.Microsecond
			desc = fmt.Sprintf("EventBefore(%v)", before)
			if got, want := r.f.EventBefore(before), r.ref.eventBefore(before); got != want {
				r.fail(desc, "EventBefore = %v, want %v", got, want)
			}
		}
		r.compare(fmt.Sprintf("op at byte %d (%s)", at, desc))
	}
	// Drain: hardclock trigger states far apart until nothing is pending
	// (self re-arms stop after three firings, children do nothing).
	for n := 0; n < 8 && r.ref.pending() > 0; n++ {
		r.clock += sim.Time(1<<26) * sim.Microsecond
		r.trigger(kernel.SrcHardClock)
		r.compare("drain")
	}
}

func FuzzFacilityOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return // bound per-input work; coverage saturates far below this
		}
		for _, c := range []struct {
			name  string
			opts  Options
			slots int
		}{
			{"hashed/256", Options{}, WheelSlots},
			{"hashed/16", Options{}, 16},
			{"hierarchical", Options{Hierarchical: true}, WheelSlots},
		} {
			replayFacilityOps(t, c.name, data, c.opts, c.slots)
		}
	})
}
