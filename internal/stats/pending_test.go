package stats

import (
	"fmt"
	"math/rand"
	"testing"
)

// histReads renders every bucket-reading query of h, each as one string.
var histReads = []struct {
	name string
	read func(h histReader) string
}{
	{"Bucket", func(h histReader) string {
		// Every bucket is read; only the non-empty ones are rendered, so a
		// 4,096-bucket read stays cheap.
		var out [][2]int64
		for i := 0; i < h.NumBuckets(); i++ {
			if c := h.Bucket(i); c != 0 {
				out = append(out, [2]int64{int64(i), c})
			}
		}
		return fmt.Sprint(h.NumBuckets(), out)
	}},
	{"Quantile", func(h histReader) string {
		return fmt.Sprint(h.Quantile(0), h.Quantile(0.25), h.Quantile(0.5), h.Quantile(0.99), h.Quantile(1))
	}},
	{"FracAbove", func(h histReader) string {
		return fmt.Sprint(h.FracAbove(-1), h.FracAbove(0), h.FracAbove(3.5), h.FracAbove(40))
	}},
	{"CDF", func(h histReader) string { return fmt.Sprint(h.CDF(1e9)) }},
	{"totals", func(h histReader) string {
		return fmt.Sprint(h.N(), h.Sum(), h.Mean(), h.Overflow())
	}},
}

// TestHistogramPendingReadsSettle adds fewer values than the pending buffer
// holds, so no increment has reached the buckets, and checks that each
// reader, as the first read of a fresh histogram, answers as the flat
// reference does.
func TestHistogramPendingReadsSettle(t *testing.T) {
	vs := []float64{0.5, 3, 3, 3.9, 7, -2, 44, 12.5, 19.99}
	if len(vs) >= histPending {
		t.Fatalf("%d values fill the %d-entry buffer", len(vs), histPending)
	}
	want := newFlatHist(2, 20)
	for _, v := range vs {
		want.Add(v)
	}
	for _, r := range histReads {
		t.Run(r.name, func(t *testing.T) {
			h := NewHistogram(2, 20)
			for _, v := range vs {
				h.Add(v)
			}
			if int(h.npend) != len(vs) { // 44, which overflows, is parked too
				t.Fatalf("%d values pending, want %d", h.npend, len(vs))
			}
			if got, w := r.read(h), r.read(want); got != w {
				t.Fatalf("%s with pending increments:\n got %s\nwant %s", r.name, got, w)
			}
		})
	}
}

// TestHistogramPendingDifferential interleaves adds (in range, negative and
// overflowing) with every reader, seeded, against the flat reference, so
// reads land at every fill level of the buffer, including full and just
// settled. The stream is long enough for bucket 0, where the negative adds
// clamp, to carry early and for every bucket to pass 255 later, so reads
// meet the carry list as it grows and the 32-bit counts it widens to.
func TestHistogramPendingDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	h, ref := NewHistogram(1, 64), newFlatHist(1, 64)
	maxCarried := 0
	for step := 0; step < 40000; step++ {
		if rng.Intn(8) != 0 {
			v := rng.Float64()*90 - 10 // [-10, 80): a ninth negative, nearly a fifth overflowing
			h.Add(v)
			ref.Add(v)
			maxCarried = max(maxCarried, h.carries())
			continue
		}
		r := histReads[rng.Intn(len(histReads))]
		if got, want := r.read(h), r.read(ref); got != want {
			t.Fatalf("step %d, %s:\n got %s\nwant %s", step, r.name, got, want)
		}
	}
	if maxCarried < 2 || h.lay() != lay32 {
		t.Fatalf("at most %d carries, layout %d at the end; want a list of several, then 32-bit counts", maxCarried, h.lay())
	}
}
