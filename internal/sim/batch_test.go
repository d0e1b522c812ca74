package sim

import (
	"reflect"
	"testing"
)

// A handler at instant t schedules an arrival at t, then an ordinary event
// at t. The arrival reuses the storage of the event that just fired — the
// leader the heap's leader table still names for t — so a batch check that
// ignored the band would queue the ordinary event behind the arrival. The
// ordinary event must fire first.
func TestArrivalOnRecycledLeaderKeepsBandOrder(t *testing.T) {
	e := NewEngine(1)
	T := 10 * Microsecond
	var order []string
	var first Event
	first = e.At(T, func() {
		arr := e.AtArrival(T, 0, 1, "", func() { order = append(order, "arrival") })
		if arr.e != first.e {
			t.Fatal("arrival did not reuse the fired event's storage")
		}
		e.At(T, func() { order = append(order, "ordinary") })
	})
	e.Run()
	if want := []string{"ordinary", "arrival"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("fire order %v, want %v", order, want)
	}
}

// Followers queued behind an instant leader count everywhere a queued
// event does, and cancelling or moving the leader keeps (at, seq) order.
func TestInstantBatchCountsAndOrder(t *testing.T) {
	e := NewEngine(1)
	T := 10 * Microsecond
	var order []int
	evs := make([]Event, 5)
	for i := range evs {
		evs[i] = e.At(T, func() { order = append(order, i) })
	}
	leaders := len(e.queue.heap)
	if e.queue.front != nil {
		leaders++
	}
	if e.Pending() != 5 || e.MaxPending() != 5 || leaders != 1 {
		t.Fatalf("Pending %d, MaxPending %d, %d leaders (heap and front); want 5, 5 and one",
			e.Pending(), e.MaxPending(), leaders)
	}
	for i, ev := range evs {
		if !ev.Pending() {
			t.Fatalf("event %d not Pending", i)
		}
	}
	evs[0].Cancel() // leader leaves: event 1 takes its slot
	evs[2].Cancel() // a follower leaves
	evs[1].Cancel() // the new leader moves behind 3 and 4
	evs[1] = e.At(T, func() { order = append(order, 1) })
	if e.Pending() != 3 || evs[0].Pending() || evs[2].Pending() {
		t.Fatalf("Pending %d after two cancels, want 3", e.Pending())
	}
	e.Run()
	if want := []int{3, 4, 1}; !reflect.DeepEqual(order, want) {
		t.Fatalf("fire order %v, want %v", order, want)
	}
	if e.MaxPending() != 5 || e.Pending() != 0 {
		t.Fatalf("MaxPending %d, Pending %d after drain; want 5 and 0", e.MaxPending(), e.Pending())
	}
}
