package timerwheel

import "math/bits"

// Hierarchical is a multi-level timing wheel (the "hierarchical" scheme of
// Varghese & Lauck). Level 0 has one-tick resolution; each higher level is
// coarser by a factor of the slot count. Timers too far out for level 0 park
// in a higher level and cascade down as the clock approaches them, so a mix
// of microsecond soft-timer events and millisecond protocol timeouts never
// crowds one slot list. Deadlines beyond the top level go to an overflow
// list and re-enter the wheel as it advances.
//
// Each level has 64 slots, so its occupancy bitmap is one word: bit i of
// occ[l] is set iff levels[l][i] is non-empty. Advance's tick walk jumps to
// the next occupied level-0 slot or level boundary, and the due-sweep and
// the earliest rescan visit only occupied slots, level by level in
// ascending slot order.
//
// Hierarchical implements Queue, and the soft-timer facility can use either
// variant; the hashed Wheel is the default (as in the paper), this variant
// backs the timer-structure ablation benchmark.
type Hierarchical struct {
	levels   [hLevels][hSlots]slot
	occ      [hLevels]uint64 // bit i of occ[l] set iff levels[l][i] is non-empty
	cur      Tick
	n        int
	overflow slot
	earliest Tick
	dirty    bool
	advGen   uint64
}

const (
	hBits   = 6 // 64 slots per level
	hSlots  = 1 << hBits
	hLevels = 4 // covers 64^4 = ~16.7M ticks ≈ 16.7 s at 1 µs resolution
	hSpan   = Tick(1) << (hBits * hLevels)
)

// NewHierarchical returns an empty hierarchical wheel at tick 0.
func NewHierarchical() *Hierarchical {
	return &Hierarchical{earliest: NoDeadline}
}

// levelFor returns which level a deadline delta (deadline - cur) belongs to,
// or -1 for the overflow list.
func levelFor(delta Tick) int {
	for l := 0; l < hLevels; l++ {
		if delta < Tick(1)<<(hBits*(l+1)) {
			return l
		}
	}
	return -1
}

func (h *Hierarchical) place(t *Timer) {
	var delta Tick
	if t.deadline > h.cur {
		delta = t.deadline - h.cur
	}
	l := levelFor(delta)
	if l < 0 {
		h.overflow.push(t, h.overflow.head != nil)
		return
	}
	idx := (t.deadline >> (hBits * l)) & (hSlots - 1)
	h.levels[l][idx].push(t, h.occ[l]&(1<<idx) != 0)
	h.occ[l] |= 1 << idx
}

// unlink removes t from its slot, clearing the slot's bit if it empties.
// A timer in level l sits at the index its deadline gives at that level,
// so the emptied slot is found by comparing at most hLevels addresses.
func (h *Hierarchical) unlink(t *Timer) {
	s := t.slot
	s.remove(t)
	t.slot = nil
	if s.head != nil {
		return
	}
	for l := range h.levels {
		if idx := (t.deadline >> (hBits * l)) & (hSlots - 1); s == &h.levels[l][idx] {
			h.occ[l] &^= 1 << idx
			return
		}
	}
}

// Schedule implements Queue. t is placed at its deadline and counted; into
// an empty wheel the new deadline is the exact earliest (see
// Wheel.Schedule).
func (h *Hierarchical) Schedule(t *Timer, deadline Tick, fn Handler) {
	t.arm(h, deadline, fn, h.advGen)
	h.place(t)
	if h.n == 0 || t.deadline < h.earliest {
		h.earliest = t.deadline
		h.dirty = false
	}
	h.n++
}

// replace migrates a pending node to a new deadline (Timer.Reschedule).
func (h *Hierarchical) replace(t *Timer, deadline Tick) {
	h.unlink(t)
	old := t.deadline
	t.deadline = deadline
	t.gen = h.advGen
	h.place(t)
	if old <= h.earliest {
		h.dirty = true // the earliest bound may have left with old
	}
	if deadline < h.earliest {
		h.earliest = deadline // strictly under the bound: exact again
		h.dirty = false
	}
}

// Len implements Queue.
func (h *Hierarchical) Len() int { return h.n }

// Earliest implements Queue.
func (h *Hierarchical) Earliest() Tick {
	if h.n == 0 {
		return NoDeadline
	}
	if h.dirty {
		h.recomputeEarliest()
	}
	return h.earliest
}

func (h *Hierarchical) recomputeEarliest() {
	e := NoDeadline
	scan := func(s *slot) {
		for t := s.head; t != nil; t = t.next {
			e = min(e, t.deadline)
		}
	}
	for l, word := range h.occ {
		for ; word != 0; word &= word - 1 {
			scan(&h.levels[l][bits.TrailingZeros64(word)])
		}
	}
	scan(&h.overflow)
	h.earliest = e
	h.dirty = false
}

// Advance implements Queue. Level-0 slots in the crossed range fire; when a
// level boundary is crossed, the corresponding higher-level slot cascades
// down (its timers are re-placed relative to the new time).
func (h *Hierarchical) Advance(now Tick) int {
	if now < h.cur {
		panic("timerwheel: Advance moved backwards")
	}
	if h.n == 0 || h.Earliest() > now {
		// Nothing can be due; jump the clock. Slot placement is indexed
		// by deadline prefix (not by insertion-relative offsets), and a
		// timer whose cascade boundary the jump skipped is caught by the
		// due-sweep below on a later Advance, so this is safe.
		h.cur = now
		return 0
	}
	h.advGen++
	fired := 0
	if now-h.cur >= hSlots*4 {
		// Large jump: a tick-by-tick walk would dominate, so sweep all
		// slots for due timers instead. Non-due timers stay where they
		// are; the due-sweep on later advances keeps them correct.
		fired += h.fireEverythingDue(now)
		h.cur = now
		return fired
	}
	for h.cur < now {
		h.cur++
		if i := h.cur & (hSlots - 1); i != 0 {
			// No level boundary before level 0 wraps, so the next tick
			// with work is the next occupied level-0 slot. Handlers see
			// h.cur at the tick they fire on, as in a tick-by-tick walk.
			word := h.occ[0] >> i
			if word == 0 {
				h.cur = min(now, h.cur|(hSlots-1))
				continue
			}
			if h.cur += Tick(bits.TrailingZeros64(word)); h.cur > now {
				h.cur = now
				break
			}
		} else {
			// Cascade any higher-level slot whose boundary we just crossed.
			for l := 1; l < hLevels; l++ {
				shift := uint(hBits * l)
				if h.cur&((Tick(1)<<shift)-1) != 0 {
					break // higher levels only cross when lower ones wrap
				}
				idx := (h.cur >> shift) & (hSlots - 1)
				h.cascade(&h.levels[l][idx])
			}
			if h.cur&(hSpan-1) == 0 {
				h.cascade(&h.overflow)
			}
		}
		// Fire the level-0 slot for this tick.
		fired += h.fireSlot(&h.levels[0][h.cur&(hSlots-1)], now)
	}
	// Past-scheduled timers (deadline <= the pre-advance time) may sit in
	// slots the walk above didn't visit; sweep if the bound says so.
	if h.n > 0 && h.earliest <= now {
		if h.dirty {
			h.recomputeEarliest()
		}
		if h.earliest <= now {
			fired += h.fireEverythingDue(now)
		}
	}
	return fired
}

// cascade re-places every timer in s relative to the current time, firing
// none (firing happens only from level 0 or the due-sweep).
func (h *Hierarchical) cascade(s *slot) {
	t := s.head
	for t != nil {
		next := t.next
		h.unlink(t)
		h.place(t)
		t = next
	}
}

// fireSlot fires the due timers of s that this pass did not schedule,
// going on after each handler from the saved next node only while it is
// still in s (see Wheel.fireSlot).
func (h *Hierarchical) fireSlot(s *slot, now Tick) int {
	fired := 0
	t := s.head
	for t != nil {
		next := t.next
		if t.deadline <= now && t.gen != h.advGen {
			h.unlink(t)
			h.n--
			if t.deadline <= h.earliest {
				h.dirty = true
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

// fireEverythingDue fires the due timers of every occupied slot, level by
// level in ascending slot order, then the overflow list. As in
// Wheel.fireRange, each level's bitmap is re-read after every slot.
func (h *Hierarchical) fireEverythingDue(now Tick) int {
	fired := 0
	for l := range h.levels {
		for i := 0; i < hSlots; i++ {
			word := h.occ[l] >> i
			if word == 0 {
				break
			}
			i += bits.TrailingZeros64(word)
			fired += h.fireSlot(&h.levels[l][i], now)
		}
	}
	fired += h.fireSlot(&h.overflow, now)
	return fired
}

func (h *Hierarchical) cancel(t *Timer) {
	h.unlink(t)
	h.n--
	if t.deadline <= h.earliest {
		h.dirty = true
	}
}
