package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestHistogramConstructorPanics(t *testing.T) {
	for _, c := range []struct {
		w float64
		n int
	}{{0, 10}, {-1, 10}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v,%d) did not panic", c.w, c.n)
				}
			}()
			NewHistogram(c.w, c.n)
		}()
	}
}

func TestHistogramMeanExact(t *testing.T) {
	h := NewHistogram(1, 100)
	for _, v := range []float64{1.25, 2.5, 3.75} {
		h.Add(v)
	}
	if !approx(h.Mean(), 2.5, 1e-12) {
		t.Fatalf("Mean = %v, want 2.5 (mean must not be quantized)", h.Mean())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(1, 1000)
	for i := 0; i < 1000; i++ {
		h.Add(float64(i) + 0.5)
	}
	med := h.Quantile(0.5)
	if math.Abs(med-500) > 2 {
		t.Fatalf("median = %v, want ~500", med)
	}
	if q := h.Quantile(0); q > 1 {
		t.Errorf("Q(0) = %v, want near 0", q)
	}
	if q := h.Quantile(1); math.Abs(q-1000) > 2 {
		t.Errorf("Q(1) = %v, want ~1000", q)
	}
}

func TestHistogramQuantileClamps(t *testing.T) {
	h := NewHistogram(1, 10)
	h.Add(5)
	if h.Quantile(-0.5) != h.Quantile(0) {
		t.Error("negative q should clamp")
	}
	if h.Quantile(1.5) != h.Quantile(1) {
		t.Error("q>1 should clamp")
	}
}

func TestHistogramOverflowAndNegatives(t *testing.T) {
	h := NewHistogram(10, 10) // covers [0,100)
	h.Add(-5)                 // clamps into first bucket
	h.Add(500)                // overflow
	h.Add(50)
	if h.N() != 3 {
		t.Fatalf("N = %d", h.N())
	}
	if got := h.FracAbove(100); !approx(got, 1.0/3, 1e-12) {
		t.Errorf("FracAbove(100) = %v, want 1/3", got)
	}
	if q := h.Quantile(1); q != 100 {
		t.Errorf("Q(1) with overflow = %v, want upper bound 100", q)
	}
}

func TestHistogramFracAbove(t *testing.T) {
	h := NewHistogram(10, 20)
	for i := 0; i < 100; i++ {
		h.Add(float64(i) * 2) // 0..198
	}
	got := h.FracAbove(100)
	// values 110..198 fall in buckets entirely above 100 => 45 of 100 samples
	if !approx(got, 0.45, 0.06) {
		t.Fatalf("FracAbove(100) = %v, want ~0.45", got)
	}
}

func TestHistogramCDF(t *testing.T) {
	h := NewHistogram(10, 10)
	for _, v := range []float64{5, 15, 25, 35} {
		h.Add(v)
	}
	pts := h.CDF(40)
	if len(pts) != 4 {
		t.Fatalf("got %d points, want 4", len(pts))
	}
	if pts[0].Frac != 0.25 || pts[3].Frac != 1 {
		t.Fatalf("CDF = %v", pts)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Frac < pts[i-1].Frac {
			t.Fatal("histogram CDF not monotone")
		}
	}
}

// Property: the histogram quantile lands within one bucket width of the
// nearest-rank order statistic for in-range data. (Interpolated percentiles
// can legitimately fall between sparse samples, so nearest-rank is the right
// reference here.)
func TestPropertyHistogramQuantileAccuracy(t *testing.T) {
	f := func(raw []uint16, qRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram(10, 200) // covers [0, 2000); uint16 values capped below
		vals := make([]float64, 0, len(raw))
		for _, r := range raw {
			v := float64(r % 1999)
			h.Add(v)
			vals = append(vals, v)
		}
		q := float64(qRaw%101) / 100
		got := h.Quantile(q)
		// Nearest-rank order statistic: smallest value with cumulative
		// count >= q*n (q=0 maps to the minimum).
		rank := int(math.Ceil(q * float64(len(vals))))
		if rank < 1 {
			rank = 1
		}
		sort.Float64s(vals)
		want := vals[rank-1]
		return math.Abs(got-want) <= 10+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWindowedMedians(t *testing.T) {
	w := NewWindowedMedians(10)
	// window [0,10): values 1,3 -> median 2; window [10,20): 5 -> 5;
	// window [20,30) empty; window [30,40): 7,9,11 -> 9.
	w.Add(1, 1)
	w.Add(2, 3)
	w.Add(11, 5)
	w.Add(31, 7)
	w.Add(32, 9)
	w.Add(33, 11)
	w.Flush()
	if len(w.Medians) != 3 {
		t.Fatalf("got %d medians, want 3 (empty windows skipped): %v", len(w.Medians), w.Medians)
	}
	want := []float64{2, 5, 9}
	starts := []float64{0, 10, 30}
	for i := range want {
		if w.Medians[i] != want[i] {
			t.Errorf("median[%d] = %v, want %v", i, w.Medians[i], want[i])
		}
		if w.Starts[i] != starts[i] {
			t.Errorf("start[%d] = %v, want %v", i, w.Starts[i], starts[i])
		}
	}
}

func TestWindowedMediansPanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero window did not panic")
		}
	}()
	NewWindowedMedians(0)
}

func TestWindowedMediansDoubleFlush(t *testing.T) {
	w := NewWindowedMedians(10)
	w.Add(1, 42)
	w.Flush()
	w.Flush() // second flush of empty window must not add a median
	if len(w.Medians) != 1 || w.Medians[0] != 42 {
		t.Fatalf("Medians = %v, want [42]", w.Medians)
	}
}

// Regression: FracAbove on a negative threshold used to index
// h.buckets[int(x/width)+1] with a negative index and panic (x = -5,
// width = 1 gave idx = -4). A negative threshold is below everything the
// histogram can hold, so the answer is exactly 1.
func TestHistogramFracAboveNegative(t *testing.T) {
	h := NewHistogram(1, 8)
	h.Add(0.5)
	h.Add(3)
	h.Add(100) // overflow bucket
	if got := h.FracAbove(-5); got != 1 {
		t.Fatalf("FracAbove(-5) = %v, want 1", got)
	}
	if got := h.FracAbove(-0.25); got != 1 {
		t.Fatalf("FracAbove(-0.25) = %v, want 1", got)
	}
	// Sanity: non-negative thresholds unchanged by the clamp.
	if got := h.FracAbove(0); got != 2.0/3 {
		t.Fatalf("FracAbove(0) = %v, want 2/3", got)
	}
}

// Regression: a long idle gap (or a first observation at large t) used to
// advance the window start one window per iteration — O(gap/window). The
// arithmetic jump must give the same medians and window starts, fast.
func TestWindowedMediansLongGapJumpsArithmetically(t *testing.T) {
	w := NewWindowedMedians(1)
	w.Add(0.5, 2)
	// Pre-fix this looped ~1e15 times; post-fix it is O(1). The deadline
	// on `go test` makes a regression fail by timeout.
	const far = 1e15
	w.Add(far+0.25, 7)
	w.Flush()
	if len(w.Medians) != 2 {
		t.Fatalf("got %d medians, want 2: %v", len(w.Medians), w.Medians)
	}
	if w.Medians[0] != 2 || w.Starts[0] != 0 {
		t.Fatalf("first window = (%v @ %v), want (2 @ 0)", w.Medians[0], w.Starts[0])
	}
	if w.Medians[1] != 7 || w.Starts[1] != far {
		t.Fatalf("gap window = (%v @ %v), want (7 @ %v)", w.Medians[1], w.Starts[1], float64(far))
	}
	// The jump must land on the window containing t, never past it.
	w.Add(far+0.5, 9)
	w.Flush()
	if len(w.Medians) != 3 || w.Medians[2] != 9 {
		t.Fatalf("post-jump window broken: medians %v starts %v", w.Medians, w.Starts)
	}
}
