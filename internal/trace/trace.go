// Package trace provides a lightweight execution tracer for the simulated
// kernel: a bounded ring buffer of typed events (scheduling, interrupts,
// trigger states, soft-timer activity) that can be exported as a Chrome
// trace or asserted on in tests. Tracing is opt-in and costs nothing when
// disabled.
package trace

import (
	"fmt"

	"softtimers/internal/sim"
)

// Kind classifies trace events.
type Kind int

const (
	// Sched marks a context switch to a process.
	Sched Kind = iota
	// Intr marks a hardware interrupt delivery.
	Intr
	// SoftIRQ marks a software interrupt execution.
	SoftIRQ
	// TriggerState marks a trigger-state visit.
	TriggerState
	// SoftFire marks a soft-timer event firing.
	SoftFire
	// IdleEnter and IdleExit bracket idle periods.
	IdleEnter
	IdleExit
	// Custom is available to applications.
	Custom
)

var kindNames = [...]string{
	"sched", "intr", "softirq", "trigger", "softfire", "idle+", "idle-", "custom",
}

// String names the kind. Application-defined kinds (Custom+n) render as
// "custom+n"; negative kinds — which no API produces — as "kind(-n)".
func (k Kind) String() string {
	if k < 0 {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	if int(k) >= len(kindNames) {
		return fmt.Sprintf("custom+%d", int(k)-int(Custom))
	}
	return kindNames[k]
}

// Event is one trace record.
type Event struct {
	At    sim.Time
	Kind  Kind
	Label string
	Arg   int64
}

// String renders the event on one line.
func (e Event) String() string {
	return fmt.Sprintf("%12s  %-8s %s (%d)", e.At, e.Kind, e.Label, e.Arg)
}

// Buffer is a fixed-capacity ring of events. The zero value is unusable;
// use New. Buffer is not safe for concurrent use (the simulation is
// single-threaded).
type Buffer struct {
	events  []Event
	next    int
	wrapped bool
	dropped int64
	enabled bool
}

// New returns an enabled buffer retaining the last cap events.
func New(capacity int) *Buffer {
	if capacity <= 0 {
		panic("trace: capacity must be positive")
	}
	return &Buffer{events: make([]Event, capacity), enabled: true}
}

// Enable toggles recording; Add is a no-op while disabled.
func (b *Buffer) Enable(on bool) { b.enabled = on }

// Add records an event, evicting the oldest if full.
func (b *Buffer) Add(at sim.Time, kind Kind, label string, arg int64) {
	if !b.enabled {
		return
	}
	if b.wrapped {
		b.dropped++
	}
	b.events[b.next] = Event{At: at, Kind: kind, Label: label, Arg: arg}
	b.next++
	if b.next == len(b.events) {
		b.next = 0
		b.wrapped = true
	}
}

// Len returns the number of retained events.
func (b *Buffer) Len() int {
	if b.wrapped {
		return len(b.events)
	}
	return b.next
}

// Dropped returns how many events were evicted.
func (b *Buffer) Dropped() int64 { return b.dropped }

// Events returns the retained events oldest-first.
func (b *Buffer) Events() []Event {
	out := make([]Event, 0, b.Len())
	if b.wrapped {
		out = append(out, b.events[b.next:]...)
	}
	out = append(out, b.events[:b.next]...)
	return out
}
