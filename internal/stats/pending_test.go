package stats

import (
	"fmt"
	"math/rand"
	"testing"
)

// eagerHist returns a histogram that applies every bucket increment as it
// is added: the reference the deferred increments must be invisible
// against.
func eagerHist(width float64, nbuckets int, vs ...float64) *Histogram {
	h := NewHistogram(width, nbuckets)
	for _, v := range vs {
		h.eagerAdd(v)
	}
	return h
}

func (h *Histogram) eagerAdd(v float64) {
	h.Add(v)
	h.settle()
}

// histReads renders every bucket-reading query of h, each as one string.
var histReads = []struct {
	name string
	read func(h *Histogram) string
}{
	{"Bucket", func(h *Histogram) string {
		var out []int64
		for i := 0; i < h.NumBuckets(); i++ {
			out = append(out, h.Bucket(i))
		}
		return fmt.Sprint(out)
	}},
	{"Quantile", func(h *Histogram) string {
		return fmt.Sprint(h.Quantile(0), h.Quantile(0.25), h.Quantile(0.5), h.Quantile(0.99), h.Quantile(1))
	}},
	{"FracAbove", func(h *Histogram) string {
		return fmt.Sprint(h.FracAbove(-1), h.FracAbove(0), h.FracAbove(3.5), h.FracAbove(40))
	}},
	{"CDF", func(h *Histogram) string { return fmt.Sprint(h.CDF(1e9)) }},
	{"ASCII", func(h *Histogram) string { return h.ASCII(0) }},
	{"totals", func(h *Histogram) string {
		return fmt.Sprint(h.N(), h.Sum(), h.Mean(), h.Overflow())
	}},
}

// TestHistogramPendingReadsSettle adds fewer values than the pending buffer
// holds, so no increment has reached the buckets, and checks that each
// reader, as the first read of a fresh histogram, answers as the eager
// reference does.
func TestHistogramPendingReadsSettle(t *testing.T) {
	vs := []float64{0.5, 3, 3, 3.9, 7, -2, 44, 12.5, 19.99}
	if len(vs) >= histPending {
		t.Fatalf("%d values fill the %d-entry buffer", len(vs), histPending)
	}
	want := eagerHist(2, 20, vs...)
	for _, r := range histReads {
		t.Run(r.name, func(t *testing.T) {
			h := NewHistogram(2, 20)
			for _, v := range vs {
				h.Add(v)
			}
			if h.npend != len(vs)-1 { // 44 overflows and is counted at once
				t.Fatalf("%d increments pending, want %d", h.npend, len(vs)-1)
			}
			if got, w := r.read(h), r.read(want); got != w {
				t.Fatalf("%s with pending increments:\n got %s\nwant %s", r.name, got, w)
			}
		})
	}
}

// TestHistogramPendingDifferential interleaves adds (in range, negative and
// overflowing) with every reader, seeded, against the eager reference, so
// reads land at every fill level of the buffer, including full and just
// settled.
func TestHistogramPendingDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	h, ref := NewHistogram(1, 64), NewHistogram(1, 64)
	for step := 0; step < 20000; step++ {
		if rng.Intn(8) != 0 {
			v := rng.Float64()*90 - 10 // [-10, 80): a sixth negative, a fifth overflowing
			h.Add(v)
			ref.eagerAdd(v)
			continue
		}
		r := histReads[rng.Intn(len(histReads))]
		if got, want := r.read(h), r.read(ref); got != want {
			t.Fatalf("step %d, %s:\n got %s\nwant %s", step, r.name, got, want)
		}
	}
}
