package metrics

import "testing"

// prefixed snapshots r on its own, with every name under prefix.
func prefixed(r *Registry, prefix string) *Snapshot {
	s := NewSnapshot()
	r.SnapshotInto(s, prefix, "")
	return s
}

// The collision rule across separately prefixed snapshots, pinned:
// SnapshotInto panics on a name already in the snapshot it writes
// (TestSnapshotIntoCollisionsPanic), but two hosts snapshotted into
// snapshots of their own, whose (prefix, name) pairs collapse to the same
// full name, combine under the ordinary Merge rules — counters sum, gauges
// max, histograms add bucket-wise — and a cross-kind collision leaves both
// instruments alive under one name (the snapshot maps are per-kind).
func TestPrefixedNameCollisionsMergeByRule(t *testing.T) {
	// Host "a" exports counter "b.x"; host "a.b" exports counter "x".
	// Under the topology's "host.<name>." scheme both become
	// "host.a.b.x".
	ra := registryOf(func(w Writer) { w.Counter("b.x", 3) })
	rb := registryOf(func(w Writer) { w.Counter("x", 4) })

	merged := prefixed(ra, "host.a.")
	merged.Merge(prefixed(rb, "host.a.b."))
	if len(merged.Counters) != 1 {
		t.Fatalf("expected the colliding names to collapse to one counter, got %v", merged.Counters)
	}
	if got := merged.Counters["host.a.b.x"]; got != 7 {
		t.Fatalf("collided counters must sum: got %d, want 7", got)
	}

	// Gauges under the same collision take the pointwise max of value and
	// high-water mark.
	ga := registryOf(func(w Writer) { w.GaugeMax("b.q", 2, 10) })
	gb := registryOf(func(w Writer) { w.Gauge("q", 5) }) // value 5, max 5
	gm := prefixed(ga, "host.a.")
	gm.Merge(prefixed(gb, "host.a.b."))
	g := gm.Gauges["host.a.b.q"]
	if g.Value != 5 || g.Max != 10 {
		t.Fatalf("collided gauges must max pointwise: got %+v", g)
	}

	// Histograms add bucket-wise when widths agree...
	ha := registryOf(func(w Writer) { w.Histogram("b.h", histOf(1, 8, 0.5)) })
	hb := registryOf(func(w Writer) { w.Histogram("h", histOf(1, 8, 0.5)) })
	hm := prefixed(ha, "host.a.")
	hm.Merge(prefixed(hb, "host.a.b."))
	if got := hm.Histograms["host.a.b.h"].Count; got != 2 {
		t.Fatalf("collided histograms must add: count %d, want 2", got)
	}
	// ...and panic on width mismatch rather than silently mixing scales.
	wa := registryOf(func(w Writer) { w.Histogram("b.h", histOf(1, 8, 0.5)) })
	wb := registryOf(func(w Writer) { w.Histogram("h", histOf(2, 8, 0.5)) })
	func() {
		defer func() {
			if recover() == nil {
				t.Error("width-mismatched collision did not panic")
			}
		}()
		wm := prefixed(wa, "host.a.")
		wm.Merge(prefixed(wb, "host.a.b."))
	}()
}

// A name colliding across instrument kinds in two merged snapshots is not
// an error: the per-kind maps keep both.
func TestPrefixedCrossKindCollisionKeepsBoth(t *testing.T) {
	ra := registryOf(func(w Writer) { w.Counter("b.v", 1) })
	rb := registryOf(func(w Writer) { w.Gauge("v", 9) })
	m := prefixed(ra, "host.a.")
	m.Merge(prefixed(rb, "host.a.b."))
	if m.Counters["host.a.b.v"] != 1 {
		t.Fatal("counter lost in cross-kind collision")
	}
	if m.Gauges["host.a.b.v"].Value != 9 {
		t.Fatal("gauge lost in cross-kind collision")
	}
}
