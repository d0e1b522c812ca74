// Package timerwheel implements timing-wheel data structures for maintaining
// scheduled timer events (Varghese & Lauck, SOSP 1987). The paper's soft
// timer facility keeps its pending events in "a modified form of timing
// wheels" (footnote 2): insertion and cancellation are O(1), and the check
// performed at every trigger state — "is the earliest event due?" — is a
// single comparison against a cached earliest deadline.
//
// Two variants are provided: Wheel, a hashed wheel where each slot holds an
// unsorted list of events hashed by deadline, and Hierarchical, a multi-level
// wheel that avoids long-timeout slot crowding. Both satisfy Queue.
//
// Each wheel keeps an occupancy bitmap beside its slots: bit i is set iff
// slot i holds at least one timer, in every state between operations. Every
// sweep — recomputing the earliest deadline, firing what is due, walking the
// ticks an Advance passes over — finds the next occupied slot with
// bits.TrailingZeros64 (the find-first-set idiom of Eiffel bucket queues)
// instead of visiting empty ones, so its cost follows the occupied slots
// plus one bitmap word per 64 slots, not the span advanced. Sweeps visit
// slots in ascending index order, exactly the order a linear walk over the
// slots would take.
//
// The hashed Wheel also keeps its commonest state, exactly one pending
// timer, out of the slots: a timer scheduled into an empty wheel is held in
// the wheel struct itself and is linked into its slot only when a second
// timer arrives, so an idle host's re-arm, due check and firing touch no
// slot and no bitmap word. A wheel allocates its slots and bitmap at that
// first link, so one that never holds two timers at once has none.
//
// The wheels allocate no timers: the caller owns each Timer node, typically
// as a field of its own per-event record, and the wheels only link it
// while it is pending. Scheduling a fired or canceled node links it again,
// so one node serves an event for its whole life.
package timerwheel

import "math/bits"

// Tick is an absolute deadline in ticks of the caller's measurement clock.
type Tick = uint64

// NoDeadline is returned by Earliest when the queue is empty.
const NoDeadline Tick = ^Tick(0)

// Handler is a timer callback. It receives the tick at which the wheel was
// advanced (i.e. "now"), which may be later than the timer's deadline.
type Handler func(now Tick)

// Queue is the interface shared by the wheel variants.
type Queue interface {
	// Schedule links t, a node the caller owns, to run fn once Advance
	// reaches deadline. t must not be pending: a new, fired or canceled
	// node. fn == nil keeps the handler t last ran with. Deadlines at or
	// before the current tick fire on the next Advance.
	Schedule(t *Timer, deadline Tick, fn Handler)
	// Advance moves the current tick to now and fires, in an unspecified
	// order among themselves, all timers with deadline <= now. It returns
	// the number fired. now must not decrease across calls.
	Advance(now Tick) int
	// Earliest returns the smallest pending deadline, or NoDeadline.
	Earliest() Tick
	// Len returns the number of pending timers.
	Len() int
}

// owner is the queue a timer was last scheduled in, which unlinks it on
// cancellation (maintaining its count, occupancy bitmap and
// earliest-deadline cache) and relocates it on an in-place reschedule.
type owner interface {
	cancel(*Timer)
	replace(t *Timer, deadline Tick)
}

// Timer is a timer node, owned by the caller and linked by the queue it is
// scheduled in while it is pending. The zero value is a new node.
type Timer struct {
	deadline   Tick
	fn         Handler
	next, prev *Timer
	slot       *slot  // its slot while pending (held if the wheel's lone timer); nil otherwise
	own        owner  // queue the timer was last scheduled in
	gen        uint64 // Advance generation this timer was scheduled in, if any
}

// Pending reports whether the timer is still scheduled.
func (t *Timer) Pending() bool { return t != nil && t.slot != nil }

// Cancel removes the timer; canceling a fired/canceled/nil timer is a no-op.
// It reports whether the timer was pending.
func (t *Timer) Cancel() bool {
	if t == nil || t.slot == nil {
		return false
	}
	t.own.cancel(t)
	return true
}

// Reschedule moves a still-pending timer to a new deadline in place: the
// node migrates between slot lists with no cancel and no fresh insert. It
// reports whether the timer was pending; rescheduling a fired, canceled, or
// nil timer is an inert no-op (Schedule links such a node again).
//
// The timer is restamped with the wheel's current Advance generation,
// exactly as a cancel + Schedule pair would be, so an in-Advance
// reschedule to an already-due deadline still waits for the next Advance.
func (t *Timer) Reschedule(deadline Tick) bool {
	if t == nil || t.slot == nil {
		return false
	}
	t.own.replace(t, deadline)
	return true
}

// arm readies t, which must not be pending, for scheduling in q at
// deadline: Queue.Schedule's contract, shared by both wheels.
func (t *Timer) arm(q owner, deadline Tick, fn Handler, gen uint64) {
	if t.slot != nil {
		panic("timerwheel: schedule of a pending timer (use Reschedule)")
	}
	if fn != nil {
		t.fn = fn
	} else if t.fn == nil {
		panic("timerwheel: schedule of nil handler")
	}
	t.deadline, t.own, t.gen = deadline, q, gen
}

// slot is an intrusive doubly-linked list of timers hashing to one position.
type slot struct {
	head *Timer
}

// held is the slot every hashed wheel's lone timer points at. It belongs to
// no wheel and is never written: pointing at it marks the timer pending
// before its wheel need have any slots, and no firing walks it.
var held slot

// push links t at the head of s. occupied is s's occupancy bit: a push into
// an empty slot only stores to it, so linking a held lone timer into its
// cold slot when a second timer arrives costs no load miss.
func (s *slot) push(t *Timer, occupied bool) {
	t.prev, t.next = nil, nil
	if occupied {
		t.next = s.head
		s.head.prev = t
	}
	s.head = t
	t.slot = s
}

func (s *slot) remove(t *Timer) {
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		s.head = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	}
	t.next, t.prev = nil, nil
}

// Wheel is a hashed timing wheel: slot index = deadline mod nslots, each slot
// an unsorted list carrying full deadlines. The occupancy bitmap occ has bit
// i set iff slots[i] is non-empty, so Advance visits only the occupied slots
// among those the clock passes over (all of them after a full rotation),
// in ascending slot order, and the lazy earliest-deadline rescan visits only
// occupied slots. An Advance costs O(nslots/64) bitmap words plus the
// occupied slots' timers and the fired handlers, however sparse the wheel.
//
// A timer scheduled into an empty wheel is held in lone instead of being
// linked: its slot and bitmap word stay empty, earliest is its exact
// deadline, and an Advance that finds it due fires it straight from the
// field. The next timer scheduled links the lone timer into its slot first
// and then itself, the two pushes an always-linked wheel would have made,
// so every slot list, and with it the fire order, is unchanged. A timer
// left alone after others leave stays linked. The slots and bitmap are
// allocated by the first link, so a wheel that only ever holds a lone
// timer costs its struct alone.
type Wheel struct {
	slots    []slot   // nil until the first link
	occ      []uint64 // bit i set iff slots[i] is non-empty; nil with slots
	mask     Tick
	cur      Tick // last tick passed to Advance
	n        int
	earliest Tick   // lower bound on the earliest pending deadline
	dirty    bool   // earliest needs recomputation
	advGen   uint64 // generation counter, incremented at each Advance
	lone     *Timer // the only pending timer, held unlinked; nil otherwise
}

// New returns a hashed wheel with nslots slots (rounded up to a power of
// two, minimum 2) starting at tick 0. It allocates the slots only when a
// timer is first linked into one.
func New(nslots int) *Wheel {
	if nslots < 2 {
		nslots = 2
	}
	if nslots&(nslots-1) != 0 {
		nslots = 1 << bits.Len(uint(nslots))
	}
	return &Wheel{mask: Tick(nslots - 1), earliest: NoDeadline}
}

// Schedule implements Queue. t is counted and linked at its deadline. Into
// an empty wheel t becomes the lone timer, left unlinked, with t.slot at
// held marking it pending, and its deadline is the exact earliest, whatever
// stale bound a previous firing left, so a re-armed lone timer never costs
// a rescan.
func (w *Wheel) Schedule(t *Timer, deadline Tick, fn Handler) {
	t.arm(w, deadline, fn, w.advGen)
	if w.n == 0 {
		w.lone = t
		t.slot = &held
		w.earliest = t.deadline
		w.dirty = false
		w.n = 1
		return
	}
	if l := w.lone; l != nil {
		w.lone = nil
		w.link(l) // linked before t, as if it had been all along
	}
	w.link(t)
	if t.deadline < w.earliest {
		w.earliest = t.deadline
		w.dirty = false
	}
	w.n++
}

// link pushes t into the slot its deadline hashes to and marks it occupied.
// The first link allocates the slots and the bitmap.
func (w *Wheel) link(t *Timer) {
	if w.slots == nil {
		w.slots = make([]slot, w.mask+1)
		w.occ = make([]uint64, (w.mask+64)/64)
	}
	i := t.deadline & w.mask
	word, bit := &w.occ[i>>6], uint64(1)<<(i&63)
	w.slots[i].push(t, *word&bit != 0)
	*word |= bit
}

// unlink removes linked t from its slot, clearing the slot's bit if it
// empties.
func (w *Wheel) unlink(t *Timer) {
	i := t.deadline & w.mask
	s := &w.slots[i]
	s.remove(t)
	t.slot = nil
	if s.head == nil {
		w.occ[i>>6] &^= 1 << (i & 63)
	}
}

// replace migrates a pending node to a new deadline (Timer.Reschedule). The
// lone timer stays lone, and its new deadline is the exact earliest.
func (w *Wheel) replace(t *Timer, deadline Tick) {
	if t == w.lone {
		t.deadline = deadline
		t.gen = w.advGen
		w.earliest = deadline
		w.dirty = false
		return
	}
	w.unlink(t)
	old := t.deadline
	t.deadline = deadline
	t.gen = w.advGen
	w.link(t)
	if old <= w.earliest {
		w.dirty = true // the earliest bound may have left with old
	}
	if deadline < w.earliest {
		w.earliest = deadline // strictly under the bound: exact again
		w.dirty = false
	}
}

// Len implements Queue.
func (w *Wheel) Len() int { return w.n }

// Earliest implements Queue. Cost is O(1) except after the previous earliest
// event fired or was canceled while others stayed pending, when the
// occupied slots are rescanned lazily.
func (w *Wheel) Earliest() Tick {
	if w.n == 0 {
		return NoDeadline
	}
	if w.dirty {
		w.recomputeEarliest()
	}
	return w.earliest
}

// recomputeEarliest rescans the occupied slots for the earliest deadline.
// It stays out of line so that Due and Earliest, the checks every trigger
// state makes, stay small enough to inline into their callers.
//
//go:noinline
func (w *Wheel) recomputeEarliest() {
	e := NoDeadline
	if w.lone != nil {
		e = w.lone.deadline
	}
	for k, word := range w.occ {
		for ; word != 0; word &= word - 1 {
			for t := w.slots[k<<6|bits.TrailingZeros64(word)].head; t != nil; t = t.next {
				e = min(e, t.deadline)
			}
		}
	}
	w.earliest = e
	w.dirty = false
}

// Due reports in O(1) whether any pending timer's deadline is <= now, using
// the cached earliest bound. This is exactly the per-trigger-state check the
// paper describes: read the clock, compare against the earliest event. A
// stale (dirty) bound is still a valid lower bound, so Due may rescan at
// most once after the earliest timer leaves the wheel.
func (w *Wheel) Due(now Tick) bool {
	if w.n == 0 || w.earliest > now {
		return false // even a stale bound is a lower bound: no rescan
	}
	if w.dirty {
		w.recomputeEarliest()
	}
	return w.earliest <= now
}

// Advance implements Queue. Handlers may schedule new timers; timers
// scheduled during Advance with deadline <= now fire on the *next* Advance
// (matching the facility's semantics: a handler runs at the following
// trigger state, never recursively).
func (w *Wheel) Advance(now Tick) int {
	if now < w.cur {
		panic("timerwheel: Advance moved backwards")
	}
	if w.n == 0 || w.Earliest() > now {
		// Nothing can be due: jump the clock without touching slots.
		// This is the common case at trigger states, so it must be O(1).
		w.cur = now
		return 0
	}
	// Mark this pass so timers a handler schedules during it — even ones
	// already due — wait for the next Advance. Handlers run at trigger
	// states; an immediately-due reschedule must not loop within one
	// state. Schedule stamps each timer with the current generation;
	// only timers stamped in *this* pass are held back.
	w.advGen++
	if t := w.lone; t != nil {
		// The only pending timer, and due: fire it without reading a slot
		// or a bitmap word. Whatever its handler schedules carries this
		// pass's generation, so nothing else can fire in this pass.
		w.lone, t.slot = nil, nil
		w.n = 0
		t.fn(now)
		w.cur = now
		return 1
	}
	fired := 0
	prev := w.cur
	span := now - prev
	if span > w.mask {
		// Full rotation (or more): every slot may hold due timers.
		fired = w.fireAllDue(now)
	} else {
		// The slots of ticks prev+1 .. now in tick order, wrapping past
		// the last slot at most once.
		if span > 0 {
			lo, hi := (prev+1)&w.mask, now&w.mask
			if lo > hi {
				fired += w.fireRange(lo, w.mask, now)
				lo = 0
			}
			fired += w.fireRange(lo, hi, now)
		}
		// Deadlines in (prev, now] always hash to a slot walked above,
		// so the only due timers possibly missed are ones scheduled at
		// or before prev. The cached earliest (even when dirty it is a
		// valid lower bound) tells us whether any can exist.
		if w.n > 0 && w.earliest <= prev {
			if w.dirty {
				w.recomputeEarliest()
			}
			if w.earliest <= prev {
				fired += w.fireAllDue(now)
			}
		}
	}
	w.cur = now
	return fired
}

// fireRange fires the due timers of the occupied slots lo..hi in ascending
// slot order. The bitmap is re-read after each slot: handlers may fill or
// empty slots ahead of the sweep, and the timers they add carry this pass's
// generation, so visiting their slots or not fires the same timers.
func (w *Wheel) fireRange(lo, hi, now Tick) int {
	fired := 0
	for i := lo; i <= hi; i++ {
		word := w.occ[i>>6] >> (i & 63)
		if word == 0 {
			i |= 63 // rest of this word is empty; resume at the next
			continue
		}
		i += Tick(bits.TrailingZeros64(word))
		if i > hi {
			break
		}
		fired += w.fireSlot(&w.slots[i], now)
	}
	return fired
}

// fireSlot fires the due timers of s that this pass did not schedule. A
// handler may cancel or move any timer, the one linked after its own
// included, so the walk goes on from that saved node only while it is
// still in s, and from s's head otherwise. Restarting is safe: a node
// already visited either fired and left s, or is skipped again as not due
// or as scheduled in this pass. A slot no handler disturbs fires in list
// order. (A saved node that left s and came back as the lone timer points
// at held, not s, so the walk restarts from s's head, which is empty:
// nothing else is pending.)
func (w *Wheel) fireSlot(s *slot, now Tick) int {
	fired := 0
	t := s.head
	for t != nil {
		next := t.next
		if t.deadline <= now && t.gen != w.advGen {
			w.unlink(t)
			w.n--
			if t.deadline <= w.earliest {
				w.dirty = true
			}
			fired++
			t.fn(now)
			if next != nil && next.slot != s {
				next = s.head
			}
		}
		t = next
	}
	return fired
}

func (w *Wheel) fireAllDue(now Tick) int { return w.fireRange(0, w.mask, now) }

func (w *Wheel) cancel(t *Timer) {
	if t == w.lone {
		w.lone, t.slot = nil, nil
	} else {
		w.unlink(t)
	}
	w.n--
	if t.deadline <= w.earliest {
		w.dirty = true
	}
}
