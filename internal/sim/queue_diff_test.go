// Differential oracle for the engine's event queue: a seeded operation
// stream (schedule, arrival-band schedule, cancel, moves, stale-handle
// probes, steps, bounded runs) drives the engine and the linear-scan
// reference in refqueue_test.go side by side. Every fire must be the least
// live (time, seq) event in the reference, every Cancel result must match
// it, and the clock, the pending count and MaxPending must agree with it —
// after every step and at the end. The engine property-test invariants
// ride along: stale handles stay inert under Pending/Cancel.
//
// Each seed is its own subtest, so a failure shrinks by replay:
//
//	go test ./internal/sim -run 'TestQueueDifferential/clean/seed=N' -v
//
// The "faultplan" variant draws the stream from a fault plan's split-seed
// RNG, the same generator the fault-injection layer uses. The "grid"
// variant snaps every delay onto a few hundred shared instants 1 µs apart
// and schedules in same-instant bursts, so the heap's instant batches —
// leaders with followers behind them, cancelled, moved and evicted from
// the leader table — are on every step's path.
package sim_test

import (
	"fmt"
	"testing"

	"softtimers/internal/faults"
	"softtimers/internal/sim"
)

// diffModel drives one engine with the operation stream and mirrors every
// operation into the reference.
type diffModel struct {
	t   *testing.T
	eng *sim.Engine
	rng *sim.RNG
	ref refQueue

	live    map[int]sim.Event
	liveIDs []int
	dead    []sim.Event

	nextID int
	moved  int

	grid         bool         // delays snap onto gridInstants shared instants
	peakInstants int          // most distinct pending instants seen (grid only)
	arrivals     map[int]bool // ids scheduled in the arrival band
	arrSeq       uint64       // arrival seq counter: (conduit, seq) never repeats
}

// gridInstants is the grid variant's instant count: several times the
// heap's 64-entry leader table, so table entries are evicted while the
// leaders they named still hold followers.
const gridInstants = 300

func newDiffModel(t *testing.T, eng *sim.Engine, rng *sim.RNG) *diffModel {
	return &diffModel{
		t: t, eng: eng, rng: rng,
		live:     map[int]sim.Event{},
		arrivals: map[int]bool{},
	}
}

// drawDelay picks a scheduling offset: mostly near (with a same-instant
// spike, exercising FIFO ties), sometimes milliseconds out, rarely tens of
// seconds out, so far-future leaders sit deep in the heap while near
// events churn above them. The grid variant instead snaps onto one of
// gridInstants instants 1 µs apart, counted from the current one.
func (m *diffModel) drawDelay() sim.Time {
	if m.grid {
		now := m.eng.Now()
		at := now/sim.Microsecond*sim.Microsecond + sim.Time(m.rng.Intn(gridInstants))*sim.Microsecond
		if at < now {
			at += sim.Microsecond
		}
		return at - now
	}
	switch r := m.rng.Float64(); {
	case r < 0.2:
		return 0
	case r < 0.9:
		return sim.Time(m.rng.Intn(1500))
	case r < 0.98:
		return sim.Time(m.rng.Intn(8_000_000))
	default:
		return sim.Time(m.rng.Intn(40_000_000_000))
	}
}

// schedule queues one ordinary event, or in the grid variant a burst of
// one to four at the same instant.
func (m *diffModel) schedule() {
	d := m.drawDelay()
	n := 1
	if m.grid {
		n += m.rng.Intn(4)
	}
	for ; n > 0; n-- {
		id := m.nextID
		m.add(id, m.eng.AfterLabeled(d, fmt.Sprintf("diff:%d", id), m.onFire(id)))
		m.ref.schedule(id, m.ref.now+d)
	}
}

// scheduleArrival queues an arrival-band event, half the time at the
// instant of a live event so it lands among ordinary events (on the heap,
// beside a batch), with a (conduit, seq) key unique across the run.
func (m *diffModel) scheduleArrival() {
	at := m.eng.Now() + m.drawDelay()
	if len(m.liveIDs) > 0 && m.rng.Bool(0.5) {
		at = m.ref.slots[m.liveIDs[m.rng.Intn(len(m.liveIDs))]].at
	}
	id := m.nextID
	m.arrSeq++
	m.arrivals[id] = true
	conduit := int32(m.rng.Intn(4))
	m.add(id, m.eng.AtArrival(at, conduit, m.arrSeq, fmt.Sprintf("diff:%d", id), m.onFire(id)))
	m.ref.arrival(id, at, conduit, m.arrSeq)
}

func (m *diffModel) add(id int, ev sim.Event) {
	m.nextID++
	m.live[id] = ev
	m.liveIDs = append(m.liveIDs, id)
}

func (m *diffModel) onFire(id int) func() {
	return func() {
		if err := m.ref.fire(id, m.eng.Now()); err != nil {
			m.t.Fatal(err)
		}
		m.retire(id)
		// Handler-driven churn, the kernel/TCP pattern: schedule, cancel,
		// or move other timers from inside a firing handler.
		switch r := m.rng.Float64(); {
		case r < 0.25:
			m.schedule()
		case r < 0.33:
			m.cancelLive()
		case r < 0.45:
			m.moveLive()
		case r < 0.50:
			m.scheduleArrival()
		}
	}
}

func (m *diffModel) retire(id int) {
	m.dead = append(m.dead, m.live[id])
	delete(m.live, id)
	for i, v := range m.liveIDs {
		if v == id {
			m.liveIDs[i] = m.liveIDs[len(m.liveIDs)-1]
			m.liveIDs = m.liveIDs[:len(m.liveIDs)-1]
			break
		}
	}
}

func (m *diffModel) cancelLive() {
	if len(m.liveIDs) == 0 {
		return
	}
	id := m.liveIDs[m.rng.Intn(len(m.liveIDs))]
	if got, want := m.live[id].Cancel(), m.ref.cancel(id); got != want {
		m.t.Fatalf("cancel of event %d returned %v, reference %v", id, got, want)
	}
	m.retire(id)
}

// moveLive moves a random live ordinary event the way callers do: cancel
// it, then schedule its replacement — sometimes at the current instant, so
// moved events constantly contend with fresh same-instant schedules and
// the FIFO rule is exercised. Arrivals keep their caller-owned keys, so
// picking one is a no-op.
func (m *diffModel) moveLive() {
	if len(m.liveIDs) == 0 {
		return
	}
	id := m.liveIDs[m.rng.Intn(len(m.liveIDs))]
	if m.arrivals[id] {
		return
	}
	if !m.live[id].Cancel() || !m.ref.cancel(id) {
		m.t.Fatalf("cancel of live event %d failed", id)
	}
	m.retire(id)
	d := m.drawDelay()
	id = m.nextID
	m.add(id, m.eng.AfterLabeled(d, fmt.Sprintf("diff:%d", id), m.onFire(id)))
	m.ref.schedule(id, m.ref.now+d)
	m.moved++
}

// probeDead checks a retired handle for inertness across the handle API,
// even after its slot was recycled.
func (m *diffModel) probeDead() {
	if len(m.dead) == 0 {
		return
	}
	ev := m.dead[m.rng.Intn(len(m.dead))]
	if ev.Pending() {
		m.t.Fatal("retired handle reports Pending")
	}
	if ev.Cancel() {
		m.t.Fatal("retired handle Cancel returned true")
	}
}

func (m *diffModel) check() {
	if m.eng.Pending() != m.ref.live {
		m.t.Fatalf("engine has %d pending, reference has %d live", m.eng.Pending(), m.ref.live)
	}
	if m.eng.Now() != m.ref.now {
		m.t.Fatalf("engine clock %v, reference %v", m.eng.Now(), m.ref.now)
	}
}

// countInstants refreshes peakInstants.
func (m *diffModel) countInstants() {
	inst := map[sim.Time]bool{}
	for id := range m.live {
		inst[m.ref.slots[id].at] = true
	}
	m.peakInstants = max(m.peakInstants, len(inst))
}

func (m *diffModel) run(steps int) {
	for i := 0; i < steps; i++ {
		if m.grid && i%100 == 0 {
			m.countInstants()
		}
		switch r := m.rng.Float64(); {
		case r < 0.27:
			m.schedule()
		case r < 0.30:
			m.scheduleArrival()
		case r < 0.40:
			m.cancelLive()
		case r < 0.55:
			m.moveLive()
		case r < 0.60:
			m.probeDead()
		case r < 0.88:
			live := m.ref.live
			if got := m.eng.Step(); got != (live > 0) {
				m.t.Fatalf("Step returned %v with %d live in the reference", got, live)
			}
		default:
			d := sim.Time(m.rng.Intn(2500))
			t := m.ref.now + d
			m.eng.RunFor(d)
			if err := m.ref.runUntil(t); err != nil {
				m.t.Fatal(err)
			}
		}
		m.check()
	}
	m.eng.Run()
	if err := m.ref.finish(m.eng); err != nil {
		m.t.Fatal(err)
	}
}

// runQueueDiff replays one operation stream against the reference.
func runQueueDiff(t *testing.T, steps int, grid bool, rng *sim.RNG, seed uint64) {
	m := newDiffModel(t, sim.NewEngine(seed), rng)
	m.grid = grid
	m.run(steps)
	if m.ref.fired == 0 || m.moved == 0 {
		t.Fatalf("degenerate run: %d fires, %d moves", m.ref.fired, m.moved)
	}
	if grid && m.peakInstants < 200 {
		t.Fatalf("grid run peaked at %d pending instants, want at least 200", m.peakInstants)
	}
}

// TestQueueDifferential is the reference oracle under both randomness
// sources, a bare RNG and a fault plan's split-seed stream, plus the
// same-instant grid.
func TestQueueDifferential(t *testing.T) {
	const steps, gridSteps = 500, 4000
	hostile := faults.Spec{
		Drop: 0.05, Dup: 0.02, Reorder: 0.03,
		IntrJitterMax: 5 * sim.Microsecond, IntrCoalesce: 0.1,
		WorkJitter: 0.25, Starve: 0.5,
	}
	for seed := uint64(1); seed <= 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("clean/seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runQueueDiff(t, steps, false, sim.NewRNG(seed*0x9e37), seed)
		})
		t.Run(fmt.Sprintf("faultplan/seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runQueueDiff(t, steps, false, faults.New(seed, hostile).Stream("sim.queuediff"), seed)
		})
		t.Run(fmt.Sprintf("grid/seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runQueueDiff(t, gridSteps, true, sim.NewRNG(seed*0x51ed), seed)
		})
	}
}
