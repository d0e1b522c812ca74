package sim

import "fmt"

// The engine's pending-event store is pluggable. The binary heap in
// engine.go is the default and is *not* driven through this interface —
// the hot path calls its concrete methods directly, so the common case
// pays no interface dispatch — but every backend, heap included,
// implements the same contract:
//
//   - push enqueues an event keyed (at, seq). Keys are unique: the engine
//     never enqueues two events with equal at and seq.
//   - popMin dequeues and returns the strictly smallest (at, seq) event.
//     The caller guarantees the queue is non-empty. FIFO among
//     same-instant events falls out of the seq tie-break.
//   - remove dequeues an event that is known to be queued (cancellation).
//   - update moves a queued event to a new (at, seq) key in place — the
//     dynamic "reschedule" operation rate-based pacing leans on. On the
//     heap it is a single sift (decrease/increase-key); on the bucket
//     backends it is an unlink plus a re-placement. It must be equivalent
//     to remove+push with the new key.
//   - peek returns the event popMin would return, or nil when empty, and
//     must not mutate observable state (internal caches may refresh).
//   - len returns the number of queued events.
//
// Every backend marks queued events with ev.index >= 0 (the value is
// backend-private: a heap position, the heap's followerIdx sentinel for an
// event queued behind an instant leader, or a bucket number) and resets
// ev.index to -1 when the event leaves the queue; Event.Pending relies on
// that contract uniformly.
type EventQueue interface {
	push(ev *event)
	popMin() *event
	remove(ev *event)
	update(ev *event, at Time, seq uint64)
	peek() *event
	len() int
}

// The heap honors the same contract even though the engine never calls it
// through the interface.
var _ EventQueue = (*eventQueue)(nil)
var _ EventQueue = (*wheelQueue)(nil)
var _ EventQueue = (*hierQueue)(nil)
var _ EventQueue = (*ffsQueue)(nil)

// QueueKind selects the engine's event-queue backend.
type QueueKind uint8

const (
	// QueueHeap is the default: the concrete binary min-heap of instant
	// leaders, 0 allocs and no interface dispatch on the hot path. A push
	// into an instant that already has a queued leader, and a pop that
	// hands the slot to that leader's next follower, are O(1); other
	// operations are O(log leaders).
	QueueHeap QueueKind = iota
	// QueueWheel is a hashed timing wheel over ~1 µs buckets (Varghese &
	// Lauck scheme 6, as the facility's wheel): O(1) push/remove/update,
	// but an exact-order popMin must rescan for the minimum after every
	// pop, so it pays O(slots + n) per fire.
	QueueWheel
	// QueueHier is a four-level hierarchical wheel (scheme 7): O(1)
	// push/remove/update with far-deadline events parked on coarser
	// levels, and the same exact-order popMin rescan cost.
	QueueHier
	// QueueFFS is an Eiffel-style FFS-bitmap bucket queue: a find-first-
	// set over a two-level bitmap locates the earliest non-empty ~1 µs
	// bucket in O(1), so push/remove/update/popMin are all O(1) plus a
	// short same-bucket scan.
	QueueFFS
)

// queueKindNames orders the stable names; index = QueueKind.
var queueKindNames = [...]string{"heap", "wheel", "hier", "ffs"}

// String returns the stable lowercase name ("heap", "wheel", "hier",
// "ffs") used by stbench -queue and the ablation tables.
func (k QueueKind) String() string {
	if int(k) < len(queueKindNames) {
		return queueKindNames[k]
	}
	return fmt.Sprintf("QueueKind(%d)", uint8(k))
}

// ParseQueueKind maps a stable name back to its QueueKind.
func ParseQueueKind(s string) (QueueKind, error) {
	for i, n := range queueKindNames {
		if s == n {
			return QueueKind(i), nil
		}
	}
	return 0, fmt.Errorf("sim: unknown queue kind %q (want heap, wheel, hier or ffs)", s)
}

// QueueKinds returns every backend in presentation order, heap first —
// the sweep order of the differential tests and the ablation-queue table.
func QueueKinds() []QueueKind {
	return []QueueKind{QueueHeap, QueueWheel, QueueHier, QueueFFS}
}

// newQueueBackend builds the alternative backend for kind, or nil for the
// default heap (which lives inline in the Engine).
func newQueueBackend(kind QueueKind) EventQueue {
	switch kind {
	case QueueHeap:
		return nil
	case QueueWheel:
		return newWheelQueue()
	case QueueHier:
		return newHierQueue()
	case QueueFFS:
		return newFFSQueue()
	}
	panic(fmt.Sprintf("sim: unknown queue kind %d", kind))
}

// evList is the intrusive doubly-linked list threading events through the
// bucket backends via the next/prev fields events already carry. Links
// are cleared on unlink, so a recycled event never aliases a list.
type evList struct{ head *event }

func (l *evList) pushFront(ev *event) {
	ev.prev = nil
	ev.next = l.head
	if l.head != nil {
		l.head.prev = ev
	}
	l.head = ev
}

func (l *evList) unlink(ev *event) {
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		l.head = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	}
	ev.next, ev.prev = nil, nil
}

// minOf scans the list for its smallest (at, seq) entry, folding into a
// running minimum (cur may be nil).
func (l *evList) minOf(cur *event) *event {
	for t := l.head; t != nil; t = t.next {
		if cur == nil || before(t, cur) {
			cur = t
		}
	}
	return cur
}
