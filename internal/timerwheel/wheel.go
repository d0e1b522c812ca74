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
package timerwheel

import "math/bits"

// Tick is an absolute deadline in ticks of the caller's measurement clock.
type Tick = uint64

// NoDeadline is returned by Earliest when the queue is empty.
const NoDeadline Tick = ^Tick(0)

// Handler is a timer callback. It receives the tick at which the wheel was
// advanced (i.e. "now"), which may be later than the timer's deadline.
type Handler func(now Tick)

// Queue is the interface shared by the wheel variants (and by the reference
// heap used in tests).
type Queue interface {
	// Schedule registers fn to fire once Advance reaches deadline.
	// Deadlines at or before the current tick fire on the next Advance.
	Schedule(deadline Tick, fn Handler) *Timer
	// ScheduleFree is Schedule for callers that keep no handle: the timer
	// node comes from a per-queue pool and recycles the moment it fires,
	// so steady-state rearm loops schedule without allocating. There is
	// nothing to cancel — the node may already belong to a later timer.
	ScheduleFree(deadline Tick, fn Handler)
	// Advance moves the current tick to now and fires, in an unspecified
	// order among themselves, all timers with deadline <= now. It returns
	// the number fired. now must not decrease across calls.
	Advance(now Tick) int
	// Earliest returns the smallest pending deadline, or NoDeadline.
	Earliest() Tick
	// Len returns the number of pending timers.
	Len() int
}

// owner is the queue a timer belongs to, which unlinks it on cancellation
// (maintaining its count, occupancy bitmap and earliest-deadline cache),
// relocates it on an in-place reschedule, and links it on a rearm.
type owner interface {
	cancel(*Timer)
	replace(t *Timer, deadline Tick)
	insert(t *Timer, deadline Tick, fn Handler)
}

// Timer is a handle to a scheduled event, usable to cancel it.
type Timer struct {
	deadline   Tick
	fn         Handler
	next, prev *Timer
	slot       *slot  // nil when fired, canceled, or never scheduled
	own        owner  // queue the timer is scheduled in
	gen        uint64 // Advance generation this timer was scheduled in, if any
	pooled     bool   // ScheduleFree node: recycles into the queue pool on fire
}

// Deadline returns the tick the timer was scheduled for.
func (t *Timer) Deadline() Tick { return t.deadline }

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
// node migrates between slot lists with no cancel, no fresh insert, and no
// allocation. It reports whether the timer was pending; rescheduling a
// fired, canceled, or nil timer is an inert no-op (use Rearm to revive a
// fired handle's node).
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

// Rearm re-inserts a fired or canceled timer node at a new deadline,
// reusing its allocation and handler: the wheel equivalent of the rearm
// half of a periodic timer, without a fresh Timer node per period. The
// node must have come from Schedule on this queue (pooled ScheduleFree
// nodes have no owner and may already belong to a later timer) and must
// not be pending — a pending timer Reschedules instead. fn == nil keeps
// the handler the node already carries (it is cleared on fire, not on
// cancel, so revived canceled timers keep theirs).
func (t *Timer) Rearm(deadline Tick, fn Handler) {
	if t == nil || t.own == nil || t.pooled {
		panic("timerwheel: rearm of a pooled or never-scheduled timer")
	}
	if t.slot != nil {
		panic("timerwheel: rearm of a pending timer (use Reschedule)")
	}
	if fn == nil {
		fn = t.fn
		if fn == nil {
			panic("timerwheel: rearm with no handler")
		}
	}
	t.own.insert(t, deadline, fn)
}

// slot is an intrusive doubly-linked list of timers hashing to one position.
type slot struct {
	head *Timer
}

// push links t at the head of s. occupied is s's occupancy bit: a push into
// an empty slot only stores to it, so linking a lone timer into a cold slot
// costs no load miss.
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
type Wheel struct {
	slots    []slot
	occ      []uint64 // bit i set iff slots[i] is non-empty
	mask     Tick
	cur      Tick // last tick passed to Advance
	n        int
	earliest Tick   // lower bound on the earliest pending deadline
	dirty    bool   // earliest needs recomputation
	advGen   uint64 // generation counter, incremented at each Advance
	free     *Timer // pooled-node free list (ScheduleFree), linked via next
}

// New returns a hashed wheel with nslots slots (rounded up to a power of
// two, minimum 2) starting at tick 0.
func New(nslots int) *Wheel {
	if nslots < 2 {
		nslots = 2
	}
	if nslots&(nslots-1) != 0 {
		nslots = 1 << bits.Len(uint(nslots))
	}
	return &Wheel{
		slots:    make([]slot, nslots),
		occ:      make([]uint64, (nslots+63)/64),
		mask:     Tick(nslots - 1),
		earliest: NoDeadline,
	}
}

// Schedule implements Queue.
func (w *Wheel) Schedule(deadline Tick, fn Handler) *Timer {
	if fn == nil {
		panic("timerwheel: schedule of nil handler")
	}
	t := &Timer{own: w}
	w.insert(t, deadline, fn)
	return t
}

// insert links a non-pending node into its slot (Schedule and Timer.Rearm).
func (w *Wheel) insert(t *Timer, deadline Tick, fn Handler) {
	t.deadline, t.fn, t.gen = deadline, fn, w.advGen
	w.add(t)
}

// add links t at its deadline and counts it. Into an empty wheel the new
// deadline is the exact earliest, whatever stale bound a previous firing
// left, so a re-armed lone timer never costs a rescan.
func (w *Wheel) add(t *Timer) {
	w.link(t)
	if w.n == 0 || t.deadline < w.earliest {
		w.earliest = t.deadline
		w.dirty = false
	}
	w.n++
}

// link pushes t into the slot its deadline hashes to and marks it occupied.
func (w *Wheel) link(t *Timer) {
	i := t.deadline & w.mask
	word, bit := &w.occ[i>>6], uint64(1)<<(i&63)
	w.slots[i].push(t, *word&bit != 0)
	*word |= bit
}

// unlink removes t from its slot, clearing the slot's bit if it empties.
func (w *Wheel) unlink(t *Timer) {
	i := t.deadline & w.mask
	s := &w.slots[i]
	s.remove(t)
	t.slot = nil
	if s.head == nil {
		w.occ[i>>6] &^= 1 << (i & 63)
	}
}

// replace migrates a pending node to a new deadline (Timer.Reschedule).
func (w *Wheel) replace(t *Timer, deadline Tick) {
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

// ScheduleFree implements Queue.
func (w *Wheel) ScheduleFree(deadline Tick, fn Handler) {
	if fn == nil {
		panic("timerwheel: schedule of nil handler")
	}
	t := w.free
	if t == nil {
		t = &Timer{}
	} else {
		w.free = t.next
		t.next = nil
	}
	t.deadline, t.fn, t.own, t.gen, t.pooled = deadline, fn, w, w.advGen, true
	w.add(t)
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
			// Recycle pooled nodes before running the handler, so a
			// handler that immediately reschedules reuses this node.
			fn := t.fn
			if t.pooled {
				t.fn, t.own = nil, nil
				t.next = w.free
				w.free = t
			}
			fn(now)
		}
		t = next
	}
	return fired
}

func (w *Wheel) fireAllDue(now Tick) int { return w.fireRange(0, w.mask, now) }

func (w *Wheel) cancel(t *Timer) {
	w.unlink(t)
	w.n--
	if t.deadline <= w.earliest {
		w.dirty = true
	}
}

// Now returns the wheel's current tick (the argument of the last Advance).
func (w *Wheel) Now() Tick { return w.cur }
