package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
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
	b.v += 2
	if got := r.Counter("x").v; got != 3 {
		t.Fatalf("shared counter = %d, want 3", got)
	}
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	g.Set(1)
	g.SetMax(2)
	h.Observe(1) // none of these may panic
}

// TestKindCollisionPanics: a name may hold one instrument. Direct
// instruments of two kinds under one name panic when the second
// registers; a name two reporters write, or a reporter and a direct
// instrument, panics at Snapshot and names the duplicate.
func TestKindCollisionPanics(t *testing.T) {
	mustPanic := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			r := recover()
			if r == nil {
				t.Errorf("%s: no panic", name)
			} else if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
				t.Errorf("%s: panic %q does not name %q", name, msg, want)
			}
		}()
		f()
	}
	mustPanic("gauge over counter", `"dup"`, func() {
		r := NewRegistry()
		r.Counter("dup")
		r.Gauge("dup")
	})
	mustPanic("two reporters", `"host.a.dup"`, func() {
		r := NewRegistry()
		r.Register(reporterFunc(func(w Writer) { w.In("host.").In("a.").Counter("dup", 2) }))
		r.Register(reporterFunc(func(w Writer) { w.In("host.a.").Counter("dup", 3) }))
		r.Snapshot()
	})
	mustPanic("reporter over direct gauge", `"dup"`, func() {
		r := NewRegistry()
		r.Gauge("dup").Set(1)
		r.Register(reporterFunc(func(w Writer) { w.Counter("dup", 1) }))
		r.Snapshot()
	})
	mustPanic("one reporter, two kinds", `"dup"`, func() {
		r := NewRegistry()
		r.Register(reporterFunc(func(w Writer) {
			w.Counter("dup", 1)
			w.Gauge("dup", 1)
		}))
		r.Snapshot()
	})
}

// reporterFunc adapts a function to the Reporter interface.
type reporterFunc func(w Writer)

func (f reporterFunc) Report(w Writer) { f(w) }

func TestGaugeHighWaterMark(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth")
	g.Set(5)
	g.Set(2)
	if g.v != 2 || g.max != 5 {
		t.Fatalf("value/max = %d/%d, want 2/5", g.v, g.max)
	}
	g.SetMax(9)
	if g.v != 2 || g.max != 9 {
		t.Fatalf("after SetMax: value/max = %d/%d, want 2/9", g.v, g.max)
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

// TestReporterValuesAtSnapshot: a reporter's values are read when the
// snapshot is taken, scoped names join their scope, and a reported
// gauge's high-water mark is its value.
func TestReporterValuesAtSnapshot(t *testing.T) {
	r := NewRegistry()
	v := int64(0)
	r.Register(reporterFunc(func(w Writer) {
		w.Counter("lazy.counter", v)
		w.In("lazy.").In("inst.").Gauge("gauge", v*2)
	}))
	v = 7
	s := r.Snapshot()
	if s.Counters["lazy.counter"] != 7 {
		t.Fatalf("reported counter = %d, want 7 (must be read at snapshot time)", s.Counters["lazy.counter"])
	}
	if g := s.Gauges["lazy.inst.gauge"]; g.Value != 14 || g.Max != 14 {
		t.Fatalf("reported gauge = %+v, want 14/14", g)
	}
	if n := len(s.Counters) + len(s.Gauges) + len(s.Histograms); n != 2 {
		t.Fatalf("snapshot holds %d names, want 2", n)
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
	h.h.SetBucketForTest(1, math.MaxUint32)
	take(BucketCount{1, math.MaxUint32}, BucketCount{1500, 1})
	h.Observe(1) // wraps 32 bits: the counts widen
	take(BucketCount{1, 1 << 32}, BucketCount{1500, 1})
	h.Observe(1)
	h.Observe(1500)
	if got := h.h.Bucket(1); got != 1<<32+1 {
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
	h.h.SetBucketForTest(3, math.MaxUint32)
	h.Observe(3.5)
	if got := h.h.Bucket(3); got != 1<<32 {
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
		r.Counter("c").v += n
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
			r.Counter("c." + n).v += int64(len(n))
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
	wide.h.SetBucketForTest(7, math.MaxUint32)
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

// TestSnapshotIntoPrefixesAndSkips writes two registries into one
// snapshot: every name goes under its registry's prefix, and names that
// start with skip are left out, whether a direct instrument, a reporter or
// a scoped reporter wrote them.
func TestSnapshotIntoPrefixesAndSkips(t *testing.T) {
	build := func(n int64) *Registry {
		r := NewRegistry()
		r.Counter("sim.direct").v += n
		r.Gauge("link.q").Set(4 * n)
		r.Histogram("sim.h", 1, 8).Observe(1)
		r.Register(reporterFunc(func(w Writer) {
			w.Counter("sim.events_fired", 10*n)
			w.Counter("kernel.syscalls", 3*n)
			w.In("sim.").Counter("scoped", n)
			w.In("si").Counter("m.split", n)
			w.In("si").Counter("mple", n)
		}))
		return r
	}
	s := NewSnapshot()
	build(1).SnapshotInto(s, "host.a.", "sim.")
	build(2).SnapshotInto(s, "host.b.", "sim.")
	wantCounters := map[string]int64{
		"host.a.kernel.syscalls": 3, "host.a.simple": 1,
		"host.b.kernel.syscalls": 6, "host.b.simple": 2,
	}
	if !reflect.DeepEqual(s.Counters, wantCounters) {
		t.Fatalf("counters = %v, want %v", s.Counters, wantCounters)
	}
	if len(s.Gauges) != 2 || s.Gauges["host.a.link.q"].Max != 4 || s.Gauges["host.b.link.q"].Max != 8 {
		t.Fatalf("gauges = %v", s.Gauges)
	}
	if len(s.Histograms) != 0 {
		t.Fatalf("histograms = %v, want none", s.Histograms)
	}
}

// TestSnapshotIntoCollisionsPanic: two registries whose (prefix, name)
// pairs give one key — host "a" with "b.x" and host "a.b" with "x" both
// make host.a.b.x — panic when the second writes it, whatever the two
// instruments' kinds, instead of summing or keeping both.
func TestSnapshotIntoCollisionsPanic(t *testing.T) {
	for _, kinds := range [][2]string{{"counter", "counter"}, {"gauge", "gauge"}, {"histogram", "histogram"}, {"counter", "gauge"}} {
		mk := func(kind, name string) *Registry {
			r := NewRegistry()
			switch kind {
			case "counter":
				r.Counter(name).Inc()
			case "gauge":
				r.Gauge(name).Set(1)
			case "histogram":
				r.Histogram(name, 1, 8).Observe(0.5)
			}
			return r
		}
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, `"host.a.b.x"`) {
					t.Errorf("%v collision: panic %q, want one naming host.a.b.x", kinds, msg)
				}
			}()
			s := NewSnapshot()
			mk(kinds[0], "b.x").SnapshotInto(s, "host.a.", "")
			mk(kinds[1], "x").SnapshotInto(s, "host.a.b.", "")
		}()
	}
}
