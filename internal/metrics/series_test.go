package metrics

import (
	"bytes"
	"testing"
)

// driveSeries samples ss at ticks 1..n of the given interval, as the
// topology's self-rescheduling sampler event would.
func driveSeries(ss *SeriesSet, intervalNS int64, n int) {
	for i := 1; i <= n; i++ {
		ss.Sample(int64(i) * intervalNS)
	}
}

// Ring-halving keeps at most capacity points, always on the stride grid:
// timestamps stay exactly stride*interval apart, and the stride doubles
// each time the buffer fills.
func TestSeriesDecimationGrid(t *testing.T) {
	const interval, capacity = 10, 4
	ss := NewSeriesSet(interval, capacity)
	tick := 0
	ss.Add("ticks", MergeSum, func() float64 { return float64(tick) })
	for i := 1; i <= 64; i++ {
		tick = i
		ss.Sample(int64(i) * interval)
	}
	s := ss.Snapshot()
	if len(s.TimesNS) > capacity {
		t.Fatalf("%d points exceed capacity %d", len(s.TimesNS), capacity)
	}
	// 64 ticks through a 4-point ring: each fill halves to 2 points and
	// doubles the stride, so tick 32's fill leaves stride 16 holding ticks
	// {0, 16, 32, 48} — and every retained point sits on that grid.
	if s.Stride != 16 {
		t.Fatalf("stride %d, want 16", s.Stride)
	}
	for i, ts := range s.TimesNS {
		want := int64(interval) + int64(i)*s.Stride*interval
		if ts != want {
			t.Fatalf("timestamp %d is %d, want %d (stride %d)", i, ts, want, s.Stride)
		}
	}
	// Columns sample at the retained tick, not at decimation time: the
	// "ticks" value must equal each timestamp's tick index.
	for i, v := range s.Series["ticks"].Vals {
		if want := float64(s.TimesNS[i] / interval); v != want {
			t.Fatalf("value %d is %v, want %v", i, v, want)
		}
	}
}

func TestSeriesCapacityNeverExceeded(t *testing.T) {
	for _, n := range []int{1, 2, 5, 31, 32, 33, 1000} {
		ss := NewSeriesSet(7, 8)
		ss.Add("c", MergeSum, func() float64 { return 1 })
		driveSeries(ss, 7, n)
		if got := len(ss.Snapshot().TimesNS); got > 8 {
			t.Fatalf("after %d ticks: %d points exceed capacity 8", n, got)
		}
	}
}

func TestSeriesPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("zero interval", func() { NewSeriesSet(0, 4) })
	expectPanic("odd capacity", func() { NewSeriesSet(10, 3) })
	expectPanic("capacity below 2", func() { NewSeriesSet(10, 0) })
	expectPanic("nil sample", func() { NewSeriesSet(10, 4).Add("x", MergeSum, nil) })
	expectPanic("unknown merge", func() { NewSeriesSet(10, 4).Add("x", "avg", func() float64 { return 0 }) })
	expectPanic("duplicate column", func() {
		ss := NewSeriesSet(10, 4)
		ss.Add("x", MergeSum, func() float64 { return 0 })
		ss.Add("x", MergeSum, func() float64 { return 0 })
	})
}

// Snapshot must deep-copy: further sampling must not leak into an
// already-taken snapshot.
func TestSeriesSnapshotIsolation(t *testing.T) {
	ss := NewSeriesSet(10, 8)
	v := 0.0
	ss.Add("x", MergeSum, func() float64 { return v })
	v = 1
	ss.Sample(10)
	snap := ss.Snapshot()
	v = 2
	ss.Sample(20)
	if len(snap.TimesNS) != 1 || snap.Series["x"].Vals[0] != 1 {
		t.Fatalf("snapshot mutated by later sampling: %+v", snap)
	}
}

func TestSeriesMergeKinds(t *testing.T) {
	build := func(vals map[string][2]float64) *SeriesSnapshot {
		ss := NewSeriesSet(10, 4)
		tick := 0
		for name, v := range vals {
			name, v := name, v
			switch name {
			case "total":
				ss.Add(name, MergeSum, func() float64 { return v[tick] })
			case "worst":
				ss.Add(name, MergeMax, func() float64 { return v[tick] })
			case "slack":
				ss.Add(name, MergeMin, func() float64 { return v[tick] })
			}
		}
		tick = 0
		ss.Sample(10)
		tick = 1
		ss.Sample(20)
		return ss.Snapshot()
	}
	a := build(map[string][2]float64{"total": {1, 2}, "worst": {5, 1}, "slack": {3, 3}})
	b := build(map[string][2]float64{"total": {10, 20}, "worst": {2, 9}, "slack": {4, 1}})
	a.Merge(b)
	if got := a.Series["total"].Vals; got[0] != 11 || got[1] != 22 {
		t.Fatalf("sum merge %v", got)
	}
	if got := a.Series["worst"].Vals; got[0] != 5 || got[1] != 9 {
		t.Fatalf("max merge %v", got)
	}
	if got := a.Series["slack"].Vals; got[0] != 3 || got[1] != 1 {
		t.Fatalf("min merge %v", got)
	}
}

// An empty receiver adopts the other snapshot wholesale — and by copy, so
// the adopted state does not alias the source.
func TestSeriesMergeEmptyAdopts(t *testing.T) {
	ss := NewSeriesSet(10, 4)
	ss.Add("x", MergeSum, func() float64 { return 1 })
	ss.Sample(10)
	src := ss.Snapshot()
	var dst SeriesSnapshot
	dst.Merge(src)
	if dst.IntervalNS != 10 || len(dst.TimesNS) != 1 || dst.Series["x"].Vals[0] != 1 {
		t.Fatalf("adoption mangled: %+v", dst)
	}
	src.TimesNS[0] = 999
	src.Series["x"].Vals[0] = 999
	if dst.TimesNS[0] == 999 || dst.Series["x"].Vals[0] == 999 {
		t.Fatal("adopted snapshot aliases its source")
	}
}

// A receiver with a cadence configured but no points yet (a set that
// never sampled, or a hand-built accumulator) is not a blank slate: it
// must reject a mismatched-interval source exactly like the non-empty
// path, not silently adopt the foreign IntervalNS/Capacity. Regression:
// the empty-receiver branch used to overwrite both.
func TestSeriesMergeEmptyKeepsConfiguredCadence(t *testing.T) {
	mk := func(interval int64) *SeriesSnapshot {
		ss := NewSeriesSet(interval, 4)
		ss.Add("x", MergeSum, func() float64 { return 1 })
		ss.Sample(interval)
		return ss.Snapshot()
	}

	// Same interval: adoption proceeds, and the receiver's configured
	// capacity survives.
	dst := &SeriesSnapshot{IntervalNS: 10, Capacity: 8}
	dst.Merge(mk(10))
	if dst.IntervalNS != 10 || dst.Capacity != 8 || len(dst.TimesNS) != 1 {
		t.Fatalf("same-interval adoption mangled config: %+v", dst)
	}

	// Mismatched interval: panic, like the non-empty path.
	defer func() {
		if recover() == nil {
			t.Fatal("empty receiver with IntervalNS=10 adopted an IntervalNS=20 snapshot without panicking")
		}
	}()
	bad := &SeriesSnapshot{IntervalNS: 10}
	bad.Merge(mk(20))
}

// Merging snapshots whose strides diverged (one ring decimated more than
// the other) decimates the finer one onto the coarser grid first.
func TestSeriesMergeAcrossStrides(t *testing.T) {
	coarse := NewSeriesSet(10, 4)
	coarse.Add("x", MergeSum, func() float64 { return 1 })
	fine := NewSeriesSet(10, 16)
	fine.Add("x", MergeSum, func() float64 { return 2 })
	driveSeries(coarse, 10, 16) // stride 8 by now
	driveSeries(fine, 10, 16)   // still stride 1 or 2
	a, b := coarse.Snapshot(), fine.Snapshot()
	if a.Stride == b.Stride {
		t.Fatalf("test needs diverged strides, both %d", a.Stride)
	}
	a.Merge(b)
	for i, ts := range a.TimesNS {
		want := int64(10) + int64(i)*a.Stride*10
		if ts != want {
			t.Fatalf("merged timestamp %d is %d, want %d", i, ts, want)
		}
	}
	for _, v := range a.Series["x"].Vals {
		if v != 3 {
			t.Fatalf("merged column value %v, want 3", v)
		}
	}

	// And the mirror: merging the coarse one INTO the fine one decimates
	// the receiver.
	a2, b2 := coarse.Snapshot(), fine.Snapshot()
	b2.Merge(a2)
	if b2.Stride != a2.Stride || len(b2.TimesNS) != len(a2.TimesNS) {
		t.Fatalf("receiver not decimated: stride %d vs %d", b2.Stride, a2.Stride)
	}
}

func TestSeriesMergePanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	snap := func(interval int64, merge string, firstTick int64) *SeriesSnapshot {
		ss := NewSeriesSet(interval, 4)
		ss.Add("x", merge, func() float64 { return 1 })
		ss.Sample(firstTick * interval)
		return ss.Snapshot()
	}
	expectPanic("interval mismatch", func() { snap(10, MergeSum, 1).Merge(snap(20, MergeSum, 1)) })
	expectPanic("merge-kind mismatch", func() { snap(10, MergeSum, 1).Merge(snap(10, MergeMax, 1)) })
	expectPanic("misaligned timestamps", func() { snap(10, MergeSum, 1).Merge(snap(10, MergeSum, 2)) })
}

// Equal sets must serialize to equal bytes — the property the shard-
// determinism smoke diffs rely on.
func TestSeriesJSONByteStable(t *testing.T) {
	mk := func() *bytes.Buffer {
		ss := NewSeriesSet(10, 4)
		ss.Add("b", MergeSum, func() float64 { return 1 })
		ss.Add("a", MergeMax, func() float64 { return 2 })
		driveSeries(ss, 10, 9)
		var buf bytes.Buffer
		if err := ss.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	if !bytes.Equal(mk().Bytes(), mk().Bytes()) {
		t.Fatal("equal series sets serialized to different bytes")
	}
}
