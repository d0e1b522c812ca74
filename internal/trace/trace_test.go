package trace

import (
	"strings"
	"testing"

	"softtimers/internal/sim"
)

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero capacity")
		}
	}()
	New(0)
}

func TestAddAndEvents(t *testing.T) {
	b := New(8)
	for i := 0; i < 5; i++ {
		b.Add(sim.Time(i)*sim.Microsecond, Sched, "p", int64(i))
	}
	if b.Len() != 5 || b.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d", b.Len(), b.Dropped())
	}
	evs := b.Events()
	for i, e := range evs {
		if e.Arg != int64(i) {
			t.Fatalf("order wrong: %v", evs)
		}
	}
}

func TestRingEviction(t *testing.T) {
	b := New(4)
	for i := 0; i < 10; i++ {
		b.Add(sim.Time(i), Intr, "x", int64(i))
	}
	if b.Len() != 4 {
		t.Fatalf("len = %d, want 4", b.Len())
	}
	if b.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", b.Dropped())
	}
	evs := b.Events()
	if evs[0].Arg != 6 || evs[3].Arg != 9 {
		t.Fatalf("retained wrong window: %v", evs)
	}
}

func TestDisableStopsRecording(t *testing.T) {
	b := New(4)
	b.Add(1, Sched, "a", 0)
	b.Enable(false)
	if b.enabled {
		t.Fatal("enabled after disable")
	}
	b.Add(2, Sched, "b", 0)
	if b.Len() != 1 {
		t.Fatalf("len = %d after disabled Add", b.Len())
	}
}

func TestKindString(t *testing.T) {
	if Sched.String() != "sched" || TriggerState.String() != "trigger" {
		t.Fatal("kind names wrong")
	}
	if got := (Custom + 2).String(); got != "custom+2" {
		t.Fatalf("application kind = %q, want custom+2", got)
	}
	if got := Kind(99).String(); got != "custom+92" {
		t.Fatalf("Kind(99) = %q, want custom+92", got)
	}
	if got := Kind(-3).String(); got != "kind(-3)" {
		t.Fatalf("negative kind = %q", got)
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	kinds := []Kind{Sched, Intr, SoftIRQ, TriggerState, SoftFire,
		IdleEnter, IdleExit, Custom, Custom + 1, Custom + 17}
	for _, k := range kinds {
		got, ok := parseKind(k.String())
		if !ok || got != k {
			t.Errorf("parseKind(%q) = %v, %v; want %v, true", k.String(), got, ok, k)
		}
	}
	if _, ok := parseKind("no-such-kind"); ok {
		t.Error("parseKind accepted garbage")
	}
	if _, ok := parseKind("custom+0"); ok {
		t.Error(`parseKind accepted "custom+0" (Custom itself renders as "custom")`)
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: 12500, Kind: Intr, Label: "disk", Arg: 7}
	s := e.String()
	if !strings.Contains(s, "intr") || !strings.Contains(s, "disk") || !strings.Contains(s, "(7)") {
		t.Fatalf("event string: %q", s)
	}
}
