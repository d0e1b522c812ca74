package core

import (
	"fmt"

	"softtimers/internal/metrics"
	"softtimers/internal/sim"
)

// MultiPacer rate-clocks many connections simultaneously, each at its own
// target rate, from a single soft-timer event stream — the capability the
// paper holds over hardware timers, which cannot time several rates at
// once ("only a single hardware timer device is available in most
// systems... It is impossible, therefore, to use a hardware timer to
// simultaneously clock multiple transmissions at different rates").
//
// One soft-timer event is pending at a time, scheduled for the earliest
// flow deadline. When it fires, every flow whose next transmission is due
// sends exactly one packet — "multiple packets may be transmitted on
// different connections in a single soft timer event (i.e., in the context
// of one trigger state)" — and the event is rescheduled for the new
// earliest deadline. Per-flow catch-up follows the Section 4.1 algorithm:
// a flow that has fallen behind its target schedule becomes eligible at
// its maximal burst rate.
type MultiPacer struct {
	f     *Facility
	flows map[int]*pacedFlow
	ev    *Event
	ids   []int // reused by every firing: the flow ids in service order

	fires int64 // handler invocations, reported as pacer.multi_fires
	sent  int64 // packets transmitted, reported as pacer.multi_sent
}

// pacedFlow is one connection's pacing state.
type pacedFlow struct {
	id         int
	target     sim.Time // 1/target rate
	min        sim.Time // 1/max burst rate
	transmit   func(now sim.Time) (cost sim.Time, more bool)
	trainStart sim.Time
	lastSend   sim.Time
	sent       int64
	next       sim.Time // next eligible transmission time
}

// NewMultiPacer creates an empty multi-connection pacer on f. Like a
// Pacer, it reports on f's kernel under fixed names, so a kernel holds at
// most one.
func NewMultiPacer(f *Facility) *MultiPacer {
	m := &MultiPacer{f: f, flows: make(map[int]*pacedFlow)}
	f.k.Metrics().Register(m)
	return m
}

// Report implements metrics.Reporter: the shared event's firings and the
// packets they transmitted.
func (m *MultiPacer) Report(w metrics.Writer) {
	w.Counter("pacer.multi_fires", m.fires)
	w.Counter("pacer.multi_sent", m.sent)
}

// AddFlow starts pacing a connection at the given target interval (with
// catch-up bursts no tighter than min). transmit sends one packet and
// reports its CPU cost and whether the flow has more to send; when it
// returns false the flow is removed. Adding an existing id panics.
func (m *MultiPacer) AddFlow(id int, target, min sim.Time,
	transmit func(now sim.Time) (sim.Time, bool)) {
	if target <= 0 || min <= 0 {
		panic("core: multipacer intervals must be positive")
	}
	if min > target {
		min = target
	}
	if _, dup := m.flows[id]; dup {
		panic(fmt.Sprintf("core: duplicate paced flow %d", id))
	}
	now := m.f.k.Now()
	fl := &pacedFlow{
		id: id, target: target, min: min, transmit: transmit,
		trainStart: now, lastSend: now,
		next: now + target,
	}
	m.flows[id] = fl
	m.rearm()
}

// earliest returns the soonest per-flow deadline, or false if no flows.
func (m *MultiPacer) earliest() (sim.Time, bool) {
	var min sim.Time = 1<<63 - 1
	found := false
	for _, fl := range m.flows {
		if fl.next < min {
			min = fl.next
			found = true
		}
	}
	return min, found
}

// rearm (re)schedules the single soft event for the earliest deadline,
// keeping exactly one outstanding. The steady-state path moves the
// existing event in place (Event.Rearm: a pending handle migrates wheel
// slots, a just-fired one is revived) instead of cancel+insert with a
// fresh event per deadline change.
func (m *MultiPacer) rearm() {
	deadline, ok := m.earliest()
	if !ok {
		if m.ev != nil {
			m.ev.Cancel()
			m.ev = nil
		}
		return
	}
	now := m.f.k.Now()
	d := deadline - now
	if d < 0 {
		d = 0
	}
	if m.ev != nil {
		m.ev.RearmAfter(d)
		return
	}
	m.ev = m.f.ScheduleAfter(d, m.fire)
}

// fire services every due flow with one packet each, then rearms.
func (m *MultiPacer) fire(now sim.Time) sim.Time {
	m.fires++
	var cost sim.Time
	// Deterministic service order: ascending id (map order is random).
	m.ids = m.ids[:0]
	for id := range m.flows {
		m.ids = append(m.ids, id)
	}
	sortInts(m.ids)
	for _, id := range m.ids {
		fl := m.flows[id]
		if fl.next > now {
			continue
		}
		c, more := fl.transmit(now)
		cost += c
		m.sent++
		fl.sent++
		fl.lastSend = now
		if !more {
			delete(m.flows, id)
			continue
		}
		// Section 4.1 catch-up: behind the target schedule → eligible
		// again at the burst interval; otherwise at the target interval.
		expected := fl.trainStart + sim.Time(fl.sent)*fl.target
		if now > expected {
			fl.next = now + fl.min
		} else {
			fl.next = now + fl.target
		}
	}
	// m.ev just fired but the handle is kept: rearm revives its node in
	// place.
	m.rearm()
	return cost
}

// sortInts is a tiny insertion sort (flow counts are small; avoids pulling
// in sort for the hot path).
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
