// Differential oracle over the pluggable event-queue backends: every
// backend — binary heap (the reference), hashed wheel, hierarchical wheel,
// FFS-bitmap bucket queue — is driven with the same seeded operation
// stream (schedule, arrival-band schedule, cancel, in-place reschedule,
// stale-handle probes, steps, bounded runs) and must produce the exact
// same (time, seq) fire order, the same cancel sequence, and the same
// final clock. Each backend additionally carries the engine property-test
// invariants on its own: exactly-once fire-xor-cancel, monotone fire
// times, stale handles inert under Pending/Cancel/Reschedule.
//
// Each seed is its own subtest, so a failure shrinks by replay:
//
//	go test ./internal/sim -run 'TestQueueDifferential/clean/seed=N' -v
//
// The "faultplan" variant draws the stream from a fault plan's split-seed
// RNG, the same generator the fault-injection layer uses. The "grid"
// variant snaps every delay onto a few hundred shared instants 1 µs apart
// and schedules in same-instant bursts, so the heap's instant batches —
// leaders with followers behind them, cancelled, rescheduled and evicted
// from the leader table — are on every step's path.
package sim_test

import (
	"fmt"
	"testing"

	"softtimers/internal/faults"
	"softtimers/internal/sim"
)

// diffTrace is one backend's observable history: everything that must be
// identical across backends.
type diffTrace struct {
	fired      []fireRec
	canceled   []int
	resched    []int
	end        sim.Time
	maxPending int
}

// diffModel drives one engine with the shared operation stream. Every
// backend gets its own model and its own RNG constructed from the same
// seed, so the streams are identical as long as the engines fire events in
// identical order — any ordering divergence desynchronizes the streams and
// the traces diverge loudly.
type diffModel struct {
	t   *testing.T
	eng *sim.Engine
	rng *sim.RNG

	live    map[int]sim.Event
	liveIDs []int
	dead    []sim.Event
	at      map[int]sim.Time // expected fire instant, updated on reschedule

	trace   diffTrace
	nextID  int
	maxLive int

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
		at:       map[int]sim.Time{},
		arrivals: map[int]bool{},
	}
}

// drawDelay picks a scheduling offset: mostly near (with a same-instant
// spike, exercising FIFO ties), sometimes past the FFS queue's 4 ms
// bucket window, rarely past the hierarchical queue's level span — so the
// overflow lists and their migration back into the windows are on every
// run's path, not just the happy in-window case. The grid variant instead
// snaps onto one of gridInstants instants 1 µs apart, counted from the
// current one.
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
		m.add(id, m.eng.Now()+d, m.eng.AfterLabeled(d, fmt.Sprintf("diff:%d", id), m.onFire(id)))
	}
}

// scheduleArrival queues an arrival-band event, half the time at the
// instant of a live event so it lands among ordinary events (on the heap,
// beside a batch), with a (conduit, seq) key unique across the run.
func (m *diffModel) scheduleArrival() {
	at := m.eng.Now() + m.drawDelay()
	if len(m.liveIDs) > 0 && m.rng.Bool(0.5) {
		at = m.at[m.liveIDs[m.rng.Intn(len(m.liveIDs))]]
	}
	id := m.nextID
	m.arrSeq++
	m.arrivals[id] = true
	m.add(id, at, m.eng.AtArrival(at, int32(m.rng.Intn(4)), m.arrSeq, fmt.Sprintf("diff:%d", id), m.onFire(id)))
}

func (m *diffModel) add(id int, at sim.Time, ev sim.Event) {
	m.nextID++
	m.at[id] = at
	m.live[id] = ev
	m.liveIDs = append(m.liveIDs, id)
	if len(m.live) > m.maxLive {
		m.maxLive = len(m.live)
	}
}

func (m *diffModel) onFire(id int) func() {
	return func() {
		if m.eng.Now() != m.at[id] {
			m.t.Fatalf("[%s] event %d fired at %v, scheduled for %v",
				m.eng.Queue(), id, m.eng.Now(), m.at[id])
		}
		if _, ok := m.live[id]; !ok {
			m.t.Fatalf("[%s] event %d fired but is not live (double fire or fired after cancel)",
				m.eng.Queue(), id)
		}
		m.retire(id)
		m.trace.fired = append(m.trace.fired, fireRec{id: id, at: m.eng.Now()})
		// Handler-driven churn, the kernel/TCP pattern: schedule, cancel,
		// or rearm other timers from inside a firing handler.
		switch r := m.rng.Float64(); {
		case r < 0.25:
			m.schedule()
		case r < 0.33:
			m.cancelLive()
		case r < 0.45:
			m.rescheduleLive()
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
	if !m.live[id].Cancel() {
		m.t.Fatalf("[%s] cancel of live event %d returned false", m.eng.Queue(), id)
	}
	m.trace.canceled = append(m.trace.canceled, id)
	m.retire(id)
}

// rescheduleLive rearms a random live event in place — sometimes to the
// current instant, so rescheduled events constantly contend with fresh
// same-instant schedules and the new-seq FIFO rule is exercised on every
// backend (heap sift vs wheel/bucket migration). Arrivals cannot be
// rescheduled, so picking one is a no-op.
func (m *diffModel) rescheduleLive() {
	if len(m.liveIDs) == 0 {
		return
	}
	id := m.liveIDs[m.rng.Intn(len(m.liveIDs))]
	if m.arrivals[id] {
		return
	}
	ev := m.live[id]
	at := m.eng.Now() + m.drawDelay()
	if !ev.Reschedule(at) {
		m.t.Fatalf("[%s] reschedule of live event %d returned false", m.eng.Queue(), id)
	}
	if !ev.Pending() {
		m.t.Fatalf("[%s] event %d not Pending after reschedule", m.eng.Queue(), id)
	}
	if ev.At() != at {
		m.t.Fatalf("[%s] event %d At() = %v after reschedule to %v", m.eng.Queue(), id, ev.At(), at)
	}
	m.at[id] = at
	m.live[id] = ev // Reschedule updates the handle's cached deadline
	m.trace.resched = append(m.trace.resched, id)
}

// probeDead checks a retired handle for inertness across the whole handle
// API — including Reschedule, which must refuse to revive a dead handle
// on every backend even after its slot was recycled.
func (m *diffModel) probeDead() {
	if len(m.dead) == 0 {
		return
	}
	ev := m.dead[m.rng.Intn(len(m.dead))]
	if ev.Pending() {
		m.t.Fatalf("[%s] retired handle reports Pending", m.eng.Queue())
	}
	if ev.Cancel() {
		m.t.Fatalf("[%s] retired handle Cancel returned true", m.eng.Queue())
	}
	if ev.Reschedule(m.eng.Now() + 50) {
		m.t.Fatalf("[%s] retired handle Reschedule returned true", m.eng.Queue())
	}
}

func (m *diffModel) check() {
	if m.eng.Pending() != len(m.live) {
		m.t.Fatalf("[%s] engine has %d pending, model has %d live",
			m.eng.Queue(), m.eng.Pending(), len(m.live))
	}
}

// countInstants refreshes peakInstants.
func (m *diffModel) countInstants() {
	inst := map[sim.Time]bool{}
	for id := range m.live {
		inst[m.at[id]] = true
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
			m.rescheduleLive()
		case r < 0.60:
			m.probeDead()
		case r < 0.88:
			m.eng.Step()
		default:
			m.eng.RunFor(sim.Time(m.rng.Intn(2500)))
		}
		m.check()
	}
	m.eng.Run()
	m.check()
	if len(m.live) != 0 {
		m.t.Fatalf("[%s] %d events still live after drain", m.eng.Queue(), len(m.live))
	}

	// Per-backend invariants before any cross-backend comparison.
	if got, want := len(m.trace.fired)+len(m.trace.canceled), m.nextID; got != want {
		m.t.Fatalf("[%s] fired %d + canceled %d = %d, scheduled %d",
			m.eng.Queue(), len(m.trace.fired), len(m.trace.canceled), got, want)
	}
	seen := map[int]bool{}
	for _, r := range m.trace.fired {
		if seen[r.id] {
			m.t.Fatalf("[%s] event %d fired twice", m.eng.Queue(), r.id)
		}
		seen[r.id] = true
	}
	for i := 1; i < len(m.trace.fired); i++ {
		if m.trace.fired[i].at < m.trace.fired[i-1].at {
			m.t.Fatalf("[%s] fire %d at %v after fire at %v: time went backwards",
				m.eng.Queue(), m.trace.fired[i].id, m.trace.fired[i].at, m.trace.fired[i-1].at)
		}
	}
	m.trace.end = m.eng.Now()
	m.trace.maxPending = m.eng.MaxPending()
}

// runQueueDiff replays one operation stream on every backend and diffs
// each alternate's trace against the heap's, element by element.
func runQueueDiff(t *testing.T, steps int, grid bool, mkRNG func() *sim.RNG, seed uint64) {
	kinds := sim.QueueKinds()
	if kinds[0] != sim.QueueHeap {
		t.Fatalf("QueueKinds()[0] = %v, heap must be the reference", kinds[0])
	}
	traces := make([]diffTrace, len(kinds))
	for i, kind := range kinds {
		m := newDiffModel(t, sim.NewEngineWithQueue(seed, kind), mkRNG())
		m.grid = grid
		m.run(steps)
		if grid && m.peakInstants < 200 {
			t.Fatalf("[%s] grid run peaked at %d pending instants, want at least 200", kind, m.peakInstants)
		}
		traces[i] = m.trace
	}
	ref := traces[0]
	if len(ref.fired) == 0 || len(ref.resched) == 0 {
		t.Fatalf("degenerate reference run: %d fires, %d reschedules", len(ref.fired), len(ref.resched))
	}
	for i := 1; i < len(kinds); i++ {
		got, kind := traces[i], kinds[i]
		if len(got.fired) != len(ref.fired) {
			t.Fatalf("[%s] fired %d events, heap fired %d", kind, len(got.fired), len(ref.fired))
		}
		for j := range ref.fired {
			if got.fired[j] != ref.fired[j] {
				t.Fatalf("[%s] fire #%d = %+v, heap fired %+v (first divergence)",
					kind, j, got.fired[j], ref.fired[j])
			}
		}
		if len(got.canceled) != len(ref.canceled) {
			t.Fatalf("[%s] canceled %d events, heap canceled %d", kind, len(got.canceled), len(ref.canceled))
		}
		for j := range ref.canceled {
			if got.canceled[j] != ref.canceled[j] {
				t.Fatalf("[%s] cancel #%d = event %d, heap canceled %d",
					kind, j, got.canceled[j], ref.canceled[j])
			}
		}
		if len(got.resched) != len(ref.resched) {
			t.Fatalf("[%s] rescheduled %d events, heap rescheduled %d", kind, len(got.resched), len(ref.resched))
		}
		if got.end != ref.end {
			t.Fatalf("[%s] final clock %v, heap ended at %v", kind, got.end, ref.end)
		}
		if got.maxPending != ref.maxPending {
			t.Fatalf("[%s] MaxPending %d, heap saw %d", kind, got.maxPending, ref.maxPending)
		}
	}
}

// TestQueueDifferential is the backend oracle under both randomness
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
			runQueueDiff(t, steps, false, func() *sim.RNG { return sim.NewRNG(seed * 0x9e37) }, seed)
		})
		t.Run(fmt.Sprintf("faultplan/seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runQueueDiff(t, steps, false, func() *sim.RNG {
				return faults.New(seed, hostile).Stream("sim.queuediff")
			}, seed)
		})
		t.Run(fmt.Sprintf("grid/seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runQueueDiff(t, gridSteps, true, func() *sim.RNG { return sim.NewRNG(seed * 0x51ed) }, seed)
		})
	}
}

// TestQueueKindsRoundTrip pins the flag surface the differential smoke and
// stbench -queue rely on: every kind parses back from its name, and the
// reference backend is the zero value.
func TestQueueKindsRoundTrip(t *testing.T) {
	if sim.QueueHeap != 0 {
		t.Fatal("QueueHeap must be the zero QueueKind")
	}
	for _, kind := range sim.QueueKinds() {
		back, err := sim.ParseQueueKind(kind.String())
		if err != nil || back != kind {
			t.Fatalf("ParseQueueKind(%q) = %v, %v", kind.String(), back, err)
		}
	}
	if _, err := sim.ParseQueueKind("splay"); err == nil {
		t.Fatal("ParseQueueKind accepted an unknown backend name")
	}
}
