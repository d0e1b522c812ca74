package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"softtimers/internal/stats"
)

func TestCounterGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x")
	b := r.Counter("x")
	if a != b {
		t.Fatal("same name must return the same counter")
	}
	a.Inc()
	b.Add(2)
	if got := r.Counter("x").Value(); got != 3 {
		t.Fatalf("shared counter = %d, want 3", got)
	}
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.SetMax(2)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || g.Max() != 0 || h.Underlying() != nil {
		t.Fatal("nil instruments must read zero")
	}
}

func TestKindCollisionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge over a counter name must panic")
		}
	}()
	r := NewRegistry()
	r.Counter("dup")
	r.Gauge("dup")
}

func TestGaugeHighWaterMark(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth")
	g.Set(5)
	g.Set(2)
	if g.Value() != 2 || g.Max() != 5 {
		t.Fatalf("value/max = %d/%d, want 2/5", g.Value(), g.Max())
	}
	g.SetMax(9)
	if g.Value() != 2 || g.Max() != 9 {
		t.Fatalf("after SetMax: value/max = %d/%d, want 2/9", g.Value(), g.Max())
	}
}

// TestHistogramBucketBoundaries pins the bucket-edge behaviour the
// snapshot schema relies on: a value exactly on a boundary lands in the
// upper bucket, negatives clamp to bucket 0, and the first out-of-range
// value overflows.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", 10, 3) // buckets [0,10) [10,20) [20,30), overflow >= 30
	for _, v := range []float64{-5, 0, 9.999, 10, 19.999, 20, 29.999, 30, 1e9} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["h"]
	want := []BucketCount{{0, 3}, {1, 2}, {2, 2}}
	if s.Overflow != 2 {
		t.Fatalf("overflow = %d, want 2", s.Overflow)
	}
	if s.Count != 9 {
		t.Fatalf("count = %d, want 9", s.Count)
	}
	if got := s.Buckets.NonEmpty(); !reflect.DeepEqual(got, want) {
		t.Fatalf("buckets = %v, want %v", got, want)
	}
	// Sum is exact, not bucket-quantized (includes the clamped negative).
	if s.Sum != -5+0+9.999+10+19.999+20+29.999+30+1e9 {
		t.Fatalf("sum = %v", s.Sum)
	}
}

func TestFuncInstruments(t *testing.T) {
	r := NewRegistry()
	v := int64(0)
	r.CounterFunc("lazy.counter", func() int64 { return v })
	r.GaugeFunc("lazy.gauge", func() int64 { return v * 2 })
	v = 7
	s := r.Snapshot()
	if s.Counters["lazy.counter"] != 7 {
		t.Fatalf("func counter = %d, want 7 (must evaluate at snapshot time)", s.Counters["lazy.counter"])
	}
	if s.Gauges["lazy.gauge"].Value != 14 || s.Gauges["lazy.gauge"].Max != 14 {
		t.Fatalf("func gauge = %+v, want 14/14", s.Gauges["lazy.gauge"])
	}
}

func TestAdoptHistogram(t *testing.T) {
	r := NewRegistry()
	legacy := stats.NewHistogram(1, 100)
	r.Adopt("legacy.hist", legacy)
	legacy.Add(3)
	legacy.Add(3.5)
	s := r.Snapshot().Histograms["legacy.hist"]
	if got := s.Buckets.NonEmpty(); s.Count != 2 || len(got) != 1 || got[0] != (BucketCount{3, 2}) {
		t.Fatalf("adopted histogram snapshot = %+v, buckets %v", s, got)
	}
}

// TestSnapshotSettlesPendingBuckets snapshots histograms whose in-range
// increments are all still parked in stats.Histogram's pending buffer, one
// registered and one adopted: the snapshot must report the buckets an eager
// histogram holds.
func TestSnapshotSettlesPendingBuckets(t *testing.T) {
	r := NewRegistry()
	direct := r.Histogram("direct", 1, 10)
	adopted := stats.NewHistogram(1, 10)
	r.Adopt("adopted", adopted)
	sum := 0.0
	for _, v := range []float64{-1, 1.5, 3, 3.2, 7, 12, 9.99} {
		direct.Observe(v)
		adopted.Add(v)
		sum += v
	}
	want := HistogramSnapshot{Width: 1, Count: 7, Sum: sum, Overflow: 1}
	wantBuckets := []BucketCount{{0, 1}, {1, 1}, {3, 2}, {7, 1}, {9, 1}}
	s := r.Snapshot()
	for _, name := range []string{"direct", "adopted"} {
		got := s.Histograms[name]
		if buckets := got.Buckets.NonEmpty(); !reflect.DeepEqual(buckets, wantBuckets) {
			t.Errorf("%s: buckets = %v, want %v", name, buckets, wantBuckets)
		}
		got.Buckets = Buckets{}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: snapshot = %+v, want %+v", name, got, want)
		}
	}
}

// TestSnapshotIsACopy checks that a snapshot keeps the state it was taken
// in while the registry runs on. A snapshot shares its histograms' bucket
// arrays, so its buckets are compared after each way the histogram writes
// next: more adds to a shared bucket, an add past the grown end, and
// widening to 64-bit counts.
func TestSnapshotIsACopy(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h", 1, 2000)
	c.Inc()
	h.Observe(1)
	var snaps []*Snapshot
	var wants [][]BucketCount
	take := func(want ...BucketCount) {
		snaps, wants = append(snaps, r.Snapshot()), append(wants, want)
	}
	take(BucketCount{1, 1})
	c.Inc()
	h.Observe(1)
	take(BucketCount{1, 2})
	h.Observe(1500) // past the 64 buckets grown so far
	take(BucketCount{1, 2}, BucketCount{1500, 1})
	h.Underlying().SetBucketForTest(1, math.MaxUint32)
	take(BucketCount{1, math.MaxUint32}, BucketCount{1500, 1})
	h.Observe(1) // wraps 32 bits: the counts widen
	take(BucketCount{1, 1 << 32}, BucketCount{1500, 1})
	h.Observe(1)
	h.Observe(1500)
	if got := h.Underlying().Bucket(1); got != 1<<32+1 {
		t.Fatalf("live bucket 1 = %d, want %d", got, int64(1<<32+1))
	}
	if snaps[0].Counters["c"] != 1 || snaps[0].Histograms["h"].Count != 1 {
		t.Fatal("snapshot must not alias live registry state")
	}
	for i, s := range snaps {
		if got := s.Histograms["h"].Buckets.NonEmpty(); !reflect.DeepEqual(got, wants[i]) {
			t.Errorf("snapshot %d: buckets = %v, want %v", i, got, wants[i])
		}
	}
}

// TestHistogramCountPastUint32 sets a bucket to the largest 32-bit count
// and adds one value: the count must read 2^32 through Bucket, the
// snapshot and its JSON, and two such snapshots must merge exactly.
func TestHistogramCountPastUint32(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", 1, 10)
	h.Underlying().SetBucketForTest(3, math.MaxUint32)
	h.Observe(3.5)
	if got := h.Underlying().Bucket(3); got != 1<<32 {
		t.Fatalf("Bucket(3) = %d, want %d", got, int64(1<<32))
	}
	s := r.Snapshot()
	if got := s.Histograms["h"].Buckets.NonEmpty(); len(got) != 1 || got[0] != (BucketCount{3, 1 << 32}) {
		t.Fatalf("snapshot buckets = %v, want [{3 %d}]", got, int64(1<<32))
	}
	buf, err := json.Marshal(s.Histograms["h"].Buckets)
	if err != nil {
		t.Fatal(err)
	}
	if want := `[[3,4294967296]]`; string(buf) != want {
		t.Fatalf("buckets encode as %s, want %s", buf, want)
	}
	merged := NewSnapshot()
	merged.Merge(s)
	merged.Merge(r.Snapshot())
	if got := merged.Histograms["h"].Buckets.NonEmpty(); len(got) != 1 || got[0] != (BucketCount{3, 1 << 33}) {
		t.Fatalf("merged buckets = %v, want [{3 %d}]", got, int64(1<<33))
	}
}

func TestMerge(t *testing.T) {
	mk := func(n int64) *Snapshot {
		r := NewRegistry()
		r.Counter("c").Add(n)
		r.Gauge("g").Set(n)
		h := r.Histogram("h", 1, 10)
		for i := int64(0); i < n; i++ {
			h.Observe(float64(i))
		}
		return r.Snapshot()
	}
	total := NewSnapshot()
	total.Merge(mk(2))
	total.Merge(mk(5))
	if total.Counters["c"] != 7 {
		t.Fatalf("merged counter = %d, want 7", total.Counters["c"])
	}
	if total.Gauges["g"].Max != 5 {
		t.Fatalf("merged gauge max = %d, want 5", total.Gauges["g"].Max)
	}
	hs := total.Histograms["h"]
	if hs.Count != 7 || hs.Sum != 0+1+0+1+2+3+4 {
		t.Fatalf("merged histogram = %+v", hs)
	}
	// Bucket 0 saw one observation from each input, bucket 4 only one.
	if got := hs.Buckets.NonEmpty(); got[0] != (BucketCount{0, 2}) || got[len(got)-1] != (BucketCount{4, 1}) {
		t.Fatalf("merged buckets = %v", got)
	}
}

func TestMergeWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging histograms of different widths must panic")
		}
	}()
	a, b := NewSnapshot(), NewSnapshot()
	a.Histograms["h"] = HistogramSnapshot{Width: 1}
	b.Histograms["h"] = HistogramSnapshot{Width: 2}
	a.Merge(b)
}

// TestJSONDeterminism checks that two registries populated in different
// orders serialize identically, and that the JSON round-trips.
func TestJSONDeterminism(t *testing.T) {
	build := func(reverse bool) *Snapshot {
		r := NewRegistry()
		names := []string{"alpha", "beta", "gamma"}
		if reverse {
			names = []string{"gamma", "beta", "alpha"}
		}
		for _, n := range names {
			r.Counter("c." + n).Add(int64(len(n)))
			r.Gauge("g." + n).Set(3)
			r.Histogram("h."+n, 2, 8).Observe(5)
		}
		return r.Snapshot()
	}
	var a, b bytes.Buffer
	if err := build(false).WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build(true).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("registration order changed JSON:\n%s\nvs\n%s", a.String(), b.String())
	}
	var back Snapshot
	if err := json.Unmarshal(a.Bytes(), &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if back.Counters["c.alpha"] != 5 {
		t.Fatalf("round-tripped counter = %d, want 5", back.Counters["c.alpha"])
	}
	if got := back.Histograms["h.beta"].Buckets.NonEmpty(); len(got) != 1 || got[0] != (BucketCount{2, 1}) {
		t.Fatalf("round-tripped buckets = %v", got)
	}
}

// TestSnapshotJSONRoundTripsWidenedAndShared encodes a snapshot holding a
// widened histogram and one that shares its live histogram's array,
// decodes it as metricscheck reads a dump, and re-encodes it: the bytes
// must match, and adds to the live histograms after the snapshot must not
// change them.
func TestSnapshotJSONRoundTripsWidenedAndShared(t *testing.T) {
	r := NewRegistry()
	wide := r.Histogram("h.wide", 1, 100)
	wide.Underlying().SetBucketForTest(7, math.MaxUint32)
	wide.Observe(7)
	wide.Observe(70)
	shared := r.Histogram("h.shared", 0.5, 2000)
	for _, v := range []float64{0, 3, 3.2, 900, 5000} {
		shared.Observe(v)
	}
	r.Counter("c").Inc()
	encode := func(dump map[string]*Snapshot) []byte {
		buf, err := json.MarshalIndent(dump, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	snap := r.Snapshot()
	first := encode(map[string]*Snapshot{"exp": snap})
	wide.Observe(7)
	shared.Observe(3)
	shared.Observe(1999)
	r.Snapshot() // settles the adds into the live histograms
	if again := encode(map[string]*Snapshot{"exp": snap}); !bytes.Equal(again, first) {
		t.Fatalf("adds after the snapshot changed its JSON:\n%s\nvs\n%s", again, first)
	}
	var back map[string]*Snapshot
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatal(err)
	}
	if got := encode(back); !bytes.Equal(got, first) {
		t.Fatalf("decoded dump re-encodes differently:\n%s\nvs\n%s", got, first)
	}
	if !strings.Contains(string(first), "4294967296") {
		t.Fatalf("widened count missing from\n%s", first)
	}
}

// TestBucketsRejectMalformedJSON checks that decoding refuses bucket lists
// a snapshot never encodes.
func TestBucketsRejectMalformedJSON(t *testing.T) {
	for _, in := range []string{`[[2,1],[2,1]]`, `[[3,1],[1,1]]`, `[[-1,1]]`, `[[0,0]]`, `[[0,-4]]`, `[[16777216,1]]`, `[1,2]`} {
		var b Buckets
		if err := json.Unmarshal([]byte(in), &b); err == nil {
			t.Errorf("%s decoded to %v, want an error", in, b.NonEmpty())
		}
	}
	var b Buckets
	if err := json.Unmarshal([]byte(`null`), &b); err != nil || b.Len() != 0 {
		t.Errorf("null decoded to %d buckets, err %v; want none", b.Len(), err)
	}
}

// Regression: a gauge absent from the receiver used to merge against the
// zero-value GaugeSnapshot, so negative values (drift, headroom) silently
// became 0. First sighting must adopt the gauge verbatim.
func TestMergeNegativeGaugeFirstSighting(t *testing.T) {
	a := NewSnapshot()
	b := NewSnapshot()
	b.Gauges["clock.drift_ns"] = GaugeSnapshot{Value: -750, Max: -50}
	a.Merge(b)
	if g := a.Gauges["clock.drift_ns"]; g.Value != -750 || g.Max != -50 {
		t.Fatalf("first-sighting merge = %+v, want {Value:-750 Max:-50}", g)
	}
	// Merging again still takes the pairwise max.
	c := NewSnapshot()
	c.Gauges["clock.drift_ns"] = GaugeSnapshot{Value: -900, Max: -10}
	a.Merge(c)
	if g := a.Gauges["clock.drift_ns"]; g.Value != -750 || g.Max != -10 {
		t.Fatalf("second merge = %+v, want {Value:-750 Max:-10}", g)
	}
}

// DropPrefix strips exactly the named namespace from every instrument map.
func TestSnapshotDropPrefix(t *testing.T) {
	s := NewSnapshot()
	s.Counters["sim.events_fired"] = 10
	s.Counters["kernel.syscalls"] = 3
	s.Gauges["sim.events_pending"] = GaugeSnapshot{Value: 1, Max: 2}
	s.Gauges["link.q"] = GaugeSnapshot{Value: 4, Max: 4}
	s.Histograms["sim.h"] = HistogramSnapshot{Width: 1}
	s.DropPrefix("sim.")
	if len(s.Counters) != 1 || s.Counters["kernel.syscalls"] != 3 {
		t.Fatalf("counters after drop: %v", s.Counters)
	}
	if len(s.Gauges) != 1 || s.Gauges["link.q"].Max != 4 {
		t.Fatalf("gauges after drop: %v", s.Gauges)
	}
	if len(s.Histograms) != 0 {
		t.Fatalf("histograms after drop: %v", s.Histograms)
	}
}
