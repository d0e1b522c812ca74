package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// event is the engine-owned representation of a scheduled callback. Events
// are pooled: when one fires or is canceled it is recycled onto the
// engine's free list, so steady-state scheduling allocates nothing. The
// gen counter makes recycling safe: every public Event handle snapshots
// the generation at scheduling time, and a handle whose generation no
// longer matches is inert.
type event struct {
	at    Time
	seq   uint64 // tie-break key; see At (FIFO band) and AtArrival (arrival band)
	gen   uint64 // bumped on every recycle; stale handles mismatch
	fn    func()
	label string
	index int32 // heap position, followerIdx in a leader's ring, -1 when not queued
	eng   *Engine

	// next/prev thread the event through a heap leader's ring of
	// same-instant followers (see eventQueue); nil once it is dequeued.
	next, prev *event
}

// Event is a handle to a scheduled callback, returned by the scheduling
// methods so callers can cancel it. It is a small value type; the zero
// Event is valid and permanently inert.
//
// Lifecycle semantics (explicit, and relied on throughout the kernel and
// TCP layers):
//
//   - A pending event has Pending() == true; Cancel removes it from the
//     queue and returns true.
//   - Once the event fires or is canceled it becomes inert: Pending
//     reports false, Cancel is a no-op returning false (double-Cancel and
//     Cancel-after-fire are therefore always safe), and the handler
//     closure is released immediately so it cannot pin memory.
//   - The underlying storage is recycled for future events; the
//     generation check guarantees a retained handle can never observe or
//     disturb the event that reused its slot.
type Event struct {
	e   *event
	gen uint64
}

// Pending reports whether the event is still queued.
func (ev Event) Pending() bool {
	return ev.e != nil && ev.e.gen == ev.gen && ev.e.index >= 0
}

// Cancel removes the event from the queue, reporting whether it was still
// pending. Canceling a fired, canceled, or zero Event is a no-op, so
// callers need not track event lifetimes precisely.
func (ev Event) Cancel() bool {
	e := ev.e
	if e == nil || e.gen != ev.gen || e.index < 0 {
		return false
	}
	eng := e.eng
	if n := eng.queue.len(); n > eng.maxPending {
		eng.maxPending = n // depth high-water mark, caught pre-shrink
	}
	eng.queue.remove(e)
	eng.release(e)
	return true
}

// eventQueue is the engine's pending-event store: a 4-ary min-heap of
// instant leaders ordered by (at, seq), in front of which one leader may
// wait in a front slot. It is a concrete implementation — not
// container/heap — so the hot path pays no interface conversions or
// indirect Less/Swap calls, and sift operations move the displaced element
// in a hole rather than swapping pairwise. Four children per node halve
// the levels a deep fleet queue sifts through.
//
// The front slot holds one leader outside the heap that orders strictly
// before every heap entry, so a handler that schedules its successor as
// the new earliest event — the paper rigs' continuations, with a few
// periodic events further out — pays no sift to push it or to pop it. A
// push that orders before the front, or before the heap root when the
// front is empty, takes the front; an occupied front it displaces goes
// into the heap. Popping or removing the front leaves it empty (the heap
// root stays where it is) or hands it to the front's first follower.
//
// Events that share an instant do not each pay a sift. An ordinary event
// pushed at an instant whose newest ordinary leader is still queued joins
// that leader's FIFO ring of followers instead of the heap, and when a
// leader leaves with followers behind it, the first follower takes over
// its slot — heap position or front — in place. Fire order is still
// exactly (at, seq): seq is monotone, so a
// ring in push order is in seq order, and a promoted follower orders after
// its old leader and before every newer leader at that instant — which is
// what lets it sit in the leader's slot with no sift. Arrival-band events
// are never batched: each is its own leader, after every ordinary event at
// its instant.
//
// The newest ordinary leader at an instant is found through leaders, a
// small table indexed by a hash of the instant. An entry holds the instant
// inline, so a push at an instant nobody else uses touches no other event.
// An entry only ever names the newest ordinary leader at its instant: it is
// set when a push misses and handed to a promoted follower only if it
// named the leader being removed. It is validated lazily on a hit — the
// named event may since have fired, moved or been recycled — so removals
// otherwise leave the table alone.
type eventQueue struct {
	front   *event // orders before every heap entry; nil when empty
	heap    leaderHeap
	n       int // queued events: the front, the heap and every ring
	leaders [leaderSlots]leaderEntry
}

// leaderHeap is the 4-ary min-heap of the instant leaders and arrival-band
// events not in the front slot: the children of i are 4i+1..4i+4.
type leaderHeap []*event

// leaderEntry names the newest ordinary leader queued at instant at.
type leaderEntry struct {
	at Time
	ev *event
}

// leaderSlots sizes the leader table; leaderSlot hashes an instant into it
// (Fibonacci hashing, so instants on a 1 µs or 1 ms grid spread evenly).
const leaderSlots = 64

func leaderSlot(t Time) uint { return uint(uint64(t) * 0x9e3779b97f4a7c15 >> 58) }

// Index stamps of queued events that hold no heap position: non-negative,
// so Event.Pending reads them as queued. followerIdx marks a member of a
// leader's ring, frontIdx the leader in the front slot.
const (
	followerIdx = math.MaxInt32
	frontIdx    = math.MaxInt32 - 1
)

// leader returns the event the entry names if it is still queued as an
// ordinary-band leader at instant t, and nil otherwise.
func (s *leaderEntry) leader(t Time) *event {
	if s.at != t || s.ev == nil {
		return nil
	}
	l := s.ev
	if l.index < 0 || l.index == followerIdx || l.at != t || l.seq&arrivalBand != 0 {
		return nil
	}
	return l
}

// before reports whether a orders strictly before b.
func before(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// earlier is before without a branch: 1 when a orders strictly before b,
// else 0 — the borrow out of the 128-bit subtraction (a.at, a.seq) −
// (b.at, b.seq). Queued instants are never negative, so they compare as
// unsigned words.
func earlier(a, b *event) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return borrow
}

// head returns the earliest queued event, or nil when the queue is empty.
func (q *eventQueue) head() *event {
	if q.front != nil {
		return q.front
	}
	if len(q.heap) > 0 {
		return q.heap[0]
	}
	return nil
}

func (q *eventQueue) push(ev *event) {
	q.n++
	if ev.seq&arrivalBand == 0 {
		s := &q.leaders[leaderSlot(ev.at)]
		if l := s.leader(ev.at); l != nil {
			follow(l, ev)
			return
		}
		s.at, s.ev = ev.at, ev
	}
	if f := q.front; f == nil {
		if len(q.heap) == 0 || before(ev, q.heap[0]) {
			q.front, ev.index = ev, frontIdx
			return
		}
	} else if before(ev, f) {
		// ev takes the front; the old front goes into the heap, where it
		// still orders before every entry.
		q.front, ev.index = ev, frontIdx
		ev = f
	}
	q.heap = append(q.heap, ev)
	q.heap.siftUp(len(q.heap) - 1)
}

// follow appends f to the tail of leader l's ring. The ring is circular
// through l: l.next is the first follower, l.prev the last.
func follow(l, f *event) {
	tail := l.prev
	if tail == nil {
		tail = l
	}
	tail.next, f.prev = f, tail
	f.next, l.prev = l, f
	f.index = followerIdx
}

// unfollow unlinks follower f from its leader's ring.
func unfollow(f *event) {
	p, n := f.prev, f.next
	if p == n { // f was the only follower; p is its leader
		p.next, p.prev = nil, nil
	} else {
		p.next, n.prev = n, p
	}
	f.next, f.prev = nil, nil
}

// promote hands leader l's slot to its first follower, which keeps the
// rest of the ring and the table entry too if it named l, and returns the
// follower, stamped with l's index. The caller stores it in the slot.
func (q *eventQueue) promote(l *event) *event {
	f := l.next
	if f == l.prev {
		f.next, f.prev = nil, nil
	} else {
		tail := l.prev
		f.prev, tail.next = tail, f
	}
	l.next, l.prev = nil, nil
	f.index = l.index
	if s := &q.leaders[leaderSlot(l.at)]; s.ev == l && s.at == l.at {
		s.ev = f
	}
	return f
}

// popMin removes and returns the earliest event. The caller must know the
// queue is non-empty.
func (q *eventQueue) popMin() *event {
	q.n--
	if f := q.front; f != nil {
		if f.next != nil {
			q.front = q.promote(f)
		} else {
			q.front = nil
		}
		f.index = -1
		return f
	}
	h := q.heap
	root := h[0]
	if root.next != nil {
		h[0] = q.promote(root)
	} else {
		n := len(h) - 1
		last := h[n]
		h[n] = nil
		q.heap = h[:n]
		if n > 0 {
			h[0] = last
			last.index = 0
			q.heap.siftDown(0)
		}
	}
	root.index = -1
	return root
}

// remove deletes a queued event; its position comes from the index stamp.
func (q *eventQueue) remove(ev *event) {
	q.n--
	switch {
	case ev.index == followerIdx:
		unfollow(ev)
	case ev.index == frontIdx:
		q.front = nil
		if ev.next != nil {
			q.front = q.promote(ev)
		}
	case ev.next != nil:
		q.heap[ev.index] = q.promote(ev)
	default:
		q.removeAt(int(ev.index))
	}
	ev.index = -1
}

// removeAt deletes the follower-less leader at heap position i.
func (q *eventQueue) removeAt(i int) {
	h := q.heap
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	q.heap = h[:n]
	if i < n {
		h[i] = last
		last.index = int32(i)
		if !q.heap.siftDown(i) {
			q.heap.siftUp(i)
		}
	}
}

func (q *eventQueue) len() int { return q.n }

func (q leaderHeap) siftUp(i int) {
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / 4
		p := q[parent]
		if !before(ev, p) {
			break
		}
		q[i] = p
		p.index = int32(i)
		i = parent
	}
	q[i] = ev
	ev.index = int32(i)
}

// siftDown restores heap order below i, reporting whether i's element moved.
func (q leaderHeap) siftDown(i int) bool {
	n := len(q)
	ev := q[i]
	i0 := i
	for {
		first := 4*i + 1
		if first >= n || first < 0 { // first < 0 after int overflow
			break
		}
		var m int
		var c *event
		if first+3 < n {
			// A full set of four children. Which one is least is a coin
			// toss a branch predictor loses, so it is computed, not
			// branched on: the lesser of children 0 and 1, the lesser of
			// 2 and 3, then the lesser of those two.
			kids := (*[4]*event)(q[first : first+4])
			x := earlier(kids[1], kids[0])
			y := 2 + earlier(kids[3], kids[2])
			k := x ^ (x^y)&-earlier(kids[y&3], kids[x&3]) // y if kids[y] is earlier, else x
			m, c = first+int(k), kids[k&3]
		} else {
			m, c = first, q[first]
			for j := first + 1; j < n; j++ {
				if before(q[j], c) {
					m, c = j, q[j]
				}
			}
		}
		if !before(c, ev) {
			break
		}
		q[i] = c
		c.index = int32(i)
		i = m
	}
	q[i] = ev
	ev.index = int32(i)
	return i > i0
}

// poolChunk is the allocation granularity of the event pool: events are
// carved out of arrays of this size, so even a cold engine performs one
// allocation per poolChunk events rather than one per event.
const poolChunk = 64

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; the simulated kernel is a uniprocessor, as in the paper's
// testbed, so no locking is needed or wanted. Distinct Engine instances
// share no state, so independent simulations may run on concurrent
// goroutines (the parallel experiment runner relies on this).
type Engine struct {
	now   Time
	queue eventQueue
	seq   uint64
	// maxPending is the heap-depth high-water mark observed at decrease
	// points. The true maximum depth is always attained immediately before
	// some pop/cancel (or is the current depth), so checking only there —
	// plus the live depth in MaxPending — keeps the schedule hot path free
	// of any telemetry cost.
	maxPending int
	rng        *RNG

	// free is the recycled-event list; chunk is the tail of the current
	// allocation block being carved into fresh events.
	free  []*event
	chunk []event

	// Fired counts events executed since construction, for tests and
	// progress reporting.
	Fired uint64
}

// NewEngine returns an engine at time zero whose RNG is seeded with seed.
// The same seed always produces the same run.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: NewRNG(seed)}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *RNG { return e.rng }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.queue.len() }

// EarliestPending returns the time of the earliest queued event, or
// (0, false) when the queue is empty. It reads the queue head, mutating
// nothing — conservative sync's lookahead mining asks every round, on
// every shard, so the probe must stay O(1) and side-effect free.
func (e *Engine) EarliestPending() (Time, bool) {
	if h := e.queue.head(); h != nil {
		return h.at, true
	}
	return 0, false
}

// MaxPending returns the heap-depth high-water mark — the largest number
// of simultaneously queued events the engine has ever held. The standing
// depth counts: maxPending itself is only refreshed when the queue
// shrinks.
func (e *Engine) MaxPending() int {
	if n := e.queue.len(); n > e.maxPending {
		return n
	}
	return e.maxPending
}

// alloc returns a clean event, recycling from the free list when possible.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	if len(e.chunk) == 0 {
		e.chunk = make([]event, poolChunk)
	}
	ev := &e.chunk[0]
	e.chunk = e.chunk[1:]
	ev.eng = e
	ev.index = -1
	return ev
}

// release recycles a fired or canceled event. It clears the handler and
// label so no caller-owned memory is pinned by the pool, and bumps the
// generation so outstanding handles become inert.
func (e *Engine) release(ev *event) {
	ev.fn = nil
	ev.label = ""
	ev.gen++
	e.free = append(e.free, ev)
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a modeling bug, and silently clamping would corrupt
// measured distributions.
func (e *Engine) At(t Time, fn func()) Event {
	return e.AtLabeled(t, "", fn)
}

// AtLabeled is At with a debug label attached to the event.
func (e *Engine) AtLabeled(t Time, label string, fn func()) Event {
	if fn == nil {
		panic("sim: schedule of nil func")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v (label %q)", t, e.now, label))
	}
	e.seq++
	ev := e.alloc()
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	ev.label = label
	e.queue.push(ev)
	return Event{e: ev, gen: ev.gen}
}

// Arrival-band keys. Ordinarily scheduled events draw seq from the
// engine's counter, which starts at zero and can never plausibly reach
// the band bit, so every ordinary event orders before every arrival at
// the same instant; arrivals order among themselves by (conduit, seq).
const (
	arrivalBand         = uint64(1) << 63
	arrivalConduitShift = 28
	arrivalSeqMax       = uint64(1)<<arrivalConduitShift - 1
)

// AtArrival schedules fn in the arrival band: it runs at time t after
// every ordinarily scheduled event at t (including ones scheduled later,
// even during t's own processing), ordered among arrivals by (conduit,
// seq). The key is caller-supplied and engine-independent — that is the
// point: callers that assign conduit ids during deterministic assembly
// and draw seq from a per-conduit send counter get the same same-instant
// arrival order however the simulation is partitioned across engines,
// which is the sharded executor's determinism contract. (conduit, seq)
// pairs must be unique per pending instant; conduit must be non-negative
// and seq at most 2^28-1 (plenty for any run, and checked).
func (e *Engine) AtArrival(t Time, conduit int32, seq uint64, label string, fn func()) Event {
	if fn == nil {
		panic("sim: schedule of nil func")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: arrival at %v before now %v (conduit %d)", t, e.now, conduit))
	}
	if conduit < 0 {
		panic(fmt.Sprintf("sim: negative arrival conduit %d", conduit))
	}
	if seq > arrivalSeqMax {
		panic(fmt.Sprintf("sim: arrival seq %d overflows the conduit band", seq))
	}
	ev := e.alloc()
	ev.at = t
	ev.seq = arrivalBand | uint64(conduit)<<arrivalConduitShift | seq
	ev.fn = fn
	ev.label = label
	e.queue.push(ev)
	return Event{e: ev, gen: ev.gen}
}

// After schedules fn to run d nanoseconds from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) Event {
	return e.AtLabeled(e.now+d, "", fn)
}

// AfterLabeled is After with a debug label.
func (e *Engine) AfterLabeled(d Time, label string, fn func()) Event {
	return e.AtLabeled(e.now+d, label, fn)
}

// fire pops the earliest event, advances the clock, recycles the event's
// storage, and runs its handler. The caller must know the queue is
// non-empty.
func (e *Engine) fire() {
	if n := e.queue.len(); n > e.maxPending {
		e.maxPending = n // depth high-water mark, caught pre-shrink
	}
	ev := e.queue.popMin()
	if ev.at < e.now {
		panic("sim: time went backwards") // unreachable; guards heap bugs
	}
	e.now = ev.at
	fn := ev.fn
	e.release(ev) // before fn: handlers often schedule, reusing this slot
	e.Fired++
	fn()
}

// Step fires the earliest pending event, advancing the clock to its time.
// It returns false if the queue is empty.
func (e *Engine) Step() bool {
	if e.queue.len() == 0 {
		return false
	}
	e.fire()
	return true
}

// RunUntil fires events in order until the next event would be after t (or
// the queue drains), then advances the clock to exactly t. This is the main
// driver for fixed-duration experiments. The loop is the simulator's
// hottest path: it re-checks only what a handler can change (the queue
// head) and pays no per-event function-call indirection beyond the
// handler itself.
//
// Edge semantics, pinned by runedge_test.go:
//
//   - RunUntil(e.Now()) — equivalently RunFor(0) — fires every event due
//     exactly now, including events a firing handler schedules at the
//     current instant, and leaves the clock unchanged.
//   - RunUntil(t) with t < e.Now() fires nothing and never moves the
//     clock backwards: the call is a no-op. (Pending events are always at
//     or after now, so the head check fails and the final clamp is
//     guarded by t > now.)
func (e *Engine) RunUntil(t Time) {
	for {
		if h := e.queue.head(); h == nil || h.at > t {
			break
		}
		e.fire()
	}
	if t > e.now {
		e.now = t
	}
}

// RunFor runs the simulation for d nanoseconds of simulated time.
// RunFor(0) is RunUntil(now): it drains everything due at the current
// instant and leaves the clock in place (see RunUntil's edge semantics).
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }

// Run fires events until the queue is empty, leaving the clock at the last
// fired event (never beyond it).
func (e *Engine) Run() {
	for e.queue.len() > 0 {
		e.fire()
	}
}
