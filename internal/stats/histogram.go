package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// Histogram is a fixed-width-bucket histogram over [0, Width*NumBuckets()),
// with an overflow bucket. It supports the quantile queries the experiments
// need (median of huge samples, tail fractions) in O(1) memory per bucket,
// which keeps two-million-sample workload measurements cheap.
//
// The bucket count given to NewHistogram fixes the range; memory follows
// what the histogram holds. No bucket is allocated up front: the array
// grows, by powers of two from 64, when an add reaches past its end, and
// every reader treats a bucket past the end as empty. A fleet host's
// 2,000-bucket histograms never see a value past ~1,005 µs, so they stop
// at 1,024 buckets; its NIC's 256-bucket batch sizes stop at 64.
//
// Add parks each value in a small inline buffer, and settle files the
// buffer in one burst when it fills: count, sum, overflow and bucket. A
// fleet host adds one value per simulated millisecond, and between two
// adds the other hosts' work evicts its bucket array; the burst's
// independent increments overlap their cache misses, where eager
// increments would each pay one. Parking the raw value keeps Add to a
// store and a test, so it inlines into its hot callers, and the growth
// path stays in settle. Every read but N (Bucket, Counts, Overflow, Sum,
// Mean, Quantile, FracAbove, CDF, ASCII) first settles the buffer, so a
// read writes: a Histogram is single-goroutine, like the registry that
// adopts it.
type Histogram struct {
	width    float64
	buckets  []int64 // grown on demand; never longer than nb
	overflow int64
	n        int64
	sum      float64
	// npend and nb are int32 to keep the struct at 192 bytes. An object
	// whose size is a multiple of 64 sits in a size class whose objects
	// all start on a 64-byte line, so every field above shares one line
	// with npend; at 200 bytes (208-byte class) they straddle two.
	npend int32
	nb    int32                // configured bucket count: the range
	pend  [histPending]float64 // values added but not yet filed
}

const (
	// histPending is the number of values Add parks before settling.
	histPending = 16
	// histMinGrow is the fewest buckets a grown array holds.
	histMinGrow = 64
)

// NewHistogram creates a histogram with nbuckets buckets of the given width.
// It allocates no buckets until a value lands in one.
func NewHistogram(width float64, nbuckets int) *Histogram {
	if width <= 0 || nbuckets <= 0 || nbuckets > math.MaxInt32 {
		panic("stats: histogram needs positive width and a bucket count in [1, MaxInt32]")
	}
	return &Histogram{width: width, nb: int32(nbuckets)}
}

// Add records an observation. Negative values clamp to the first bucket.
func (h *Histogram) Add(v float64) {
	h.pend[h.npend] = v
	h.npend++
	if h.npend == histPending {
		h.settle()
	}
}

// settle files the parked values in the order they were added, growing the
// bucket array first when one reaches past its end. It must not inline:
// Add inlines only while the call to settle is the one call in its body.
//
//go:noinline
func (h *Histogram) settle() {
	// The running totals stay in locals: through h, each add would wait on
	// the store the one before it made.
	n, sum, overflow := h.n, h.sum, h.overflow
	width, nb := h.width, int(h.nb)
	for _, v := range h.pend[:h.npend] {
		n++
		sum += v
		if v < 0 {
			v = 0
		}
		i := int(v / width)
		if i >= nb {
			overflow++
			continue
		}
		if i >= len(h.buckets) {
			h.grow(i)
		}
		h.buckets[i]++
	}
	h.n, h.sum, h.overflow = n, sum, overflow
	h.npend = 0
}

// grow replaces the bucket array with one that covers index i: the
// smallest power of two above i, at least histMinGrow and at most the
// configured count. The counts held so far carry over.
func (h *Histogram) grow(i int) {
	n := min(max(histMinGrow, 1<<bits.Len(uint(i))), int(h.nb))
	b := make([]int64, n)
	copy(b, h.buckets)
	h.buckets = b
}

// N returns the number of observations, parked ones included.
func (h *Histogram) N() int64 { return h.n + int64(h.npend) }

// Width returns the bucket width.
func (h *Histogram) Width() float64 { return h.width }

// NumBuckets returns the number of regular (non-overflow) buckets.
func (h *Histogram) NumBuckets() int { return int(h.nb) }

// Bucket returns the observation count of bucket i. It panics unless
// 0 <= i < NumBuckets().
func (h *Histogram) Bucket(i int) int64 {
	if i < 0 || i >= int(h.nb) {
		panic(fmt.Sprintf("stats: bucket %d out of range [0, %d)", i, h.nb))
	}
	if h.npend != 0 {
		h.settle()
	}
	return h.at(i)
}

// at returns the count of bucket i, which is empty when i lies past the
// grown array.
func (h *Histogram) at(i int) int64 {
	if i < len(h.buckets) {
		return h.buckets[i]
	}
	return 0
}

// Counts returns the counts of the buckets the histogram has grown so far,
// settling pending adds first: element i is Bucket(i), and every bucket
// past the end is empty. The slice is the histogram's own, valid until the
// next Add; callers must not modify it.
func (h *Histogram) Counts() []int64 {
	h.settle()
	return h.buckets
}

// Overflow returns the count of observations beyond the last bucket.
func (h *Histogram) Overflow() int64 {
	h.settle()
	return h.overflow
}

// Sum returns the exact running sum of all observations.
func (h *Histogram) Sum() float64 {
	h.settle()
	return h.sum
}

// Mean returns the exact running mean (not bucket-quantized).
func (h *Histogram) Mean() float64 {
	h.settle()
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Quantile returns an estimate of the q-th quantile (q in [0,1]) by linear
// interpolation within the containing bucket. Overflowed mass reports the
// histogram's upper bound.
func (h *Histogram) Quantile(q float64) float64 {
	h.settle()
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.n)
	var cum int64
	for i, c := range h.Counts() {
		if float64(cum+c) >= target && c > 0 {
			within := (target - float64(cum)) / float64(c)
			if within < 0 {
				within = 0
			}
			return (float64(i) + within) * h.width
		}
		cum += c
	}
	return h.width * float64(h.nb)
}

// FracAbove returns the fraction of observations in buckets entirely above x
// (bucket-quantized; the bucket containing x counts as below).
func (h *Histogram) FracAbove(x float64) float64 {
	h.settle()
	if h.n == 0 {
		return 0
	}
	idx := int(x/h.width) + 1
	if x < 0 {
		// Negative x truncates toward zero: x = -5, width 1 gives
		// idx = -4 (a panic below), and -0.25 gives idx = 1 (silently
		// skipping bucket 0). Every bucket is entirely above a negative
		// threshold, so start at 0.
		idx = 0
	}
	counts := h.Counts()
	var above int64 = h.overflow
	for i := idx; i < len(counts); i++ {
		above += counts[i]
	}
	return float64(above) / float64(h.n)
}

// CDF evaluates the empirical CDF at each bucket boundary up to max.
func (h *Histogram) CDF(max float64) []CDFPoint {
	h.settle()
	var out []CDFPoint
	var cum int64
	for i := 0; i < int(h.nb); i++ {
		x := float64(i+1) * h.width
		if x > max {
			break
		}
		cum += h.at(i)
		frac := 0.0
		if h.n > 0 {
			frac = float64(cum) / float64(h.n)
		}
		out = append(out, CDFPoint{X: x, Frac: frac})
	}
	return out
}

// ASCII renders a quick bar-chart view for CLI output and debugging.
func (h *Histogram) ASCII(maxBuckets int) string {
	h.settle()
	var b strings.Builder
	var peak int64 = 1
	limit := int(h.nb)
	if maxBuckets > 0 && maxBuckets < limit {
		limit = maxBuckets
	}
	for i := 0; i < limit; i++ {
		if c := h.at(i); c > peak {
			peak = c
		}
	}
	for i := 0; i < limit; i++ {
		c := h.at(i)
		bar := int(float64(c) / float64(peak) * 50)
		fmt.Fprintf(&b, "%8.1f |%s %d\n", float64(i)*h.width, strings.Repeat("#", bar), c)
	}
	if h.overflow > 0 {
		fmt.Fprintf(&b, "overflow: %d\n", h.overflow)
	}
	return b.String()
}

// WindowedMedians computes the median of observations falling in successive
// fixed-length time windows, as in the paper's Figure 5 (trigger-interval
// medians over 1 ms and 10 ms windows). Observations are (time, value) pairs
// which must be fed in nondecreasing time order.
type WindowedMedians struct {
	window  float64
	start   float64
	current []float64
	Medians []float64 // one median per completed window; empty windows skip
	Starts  []float64 // window start times aligned with Medians
}

// NewWindowedMedians creates an accumulator with the given window length.
func NewWindowedMedians(window float64) *WindowedMedians {
	if window <= 0 {
		panic("stats: window must be positive")
	}
	return &WindowedMedians{window: window}
}

// Add records value v observed at time t. Time must not decrease.
func (w *WindowedMedians) Add(t, v float64) {
	if t >= w.start+w.window {
		// Close the open window, then jump straight to the window
		// containing t: the windows skipped over an idle gap are empty by
		// definition (flush skips empty windows), so stepping through them
		// one at a time would cost O(gap/window) for nothing.
		w.flush()
		w.start += w.window * math.Floor((t-w.start)/w.window)
		// Guard float rounding at the jump target's edges.
		for t >= w.start+w.window {
			w.start += w.window
		}
		for t < w.start {
			w.start -= w.window
		}
	}
	w.current = append(w.current, v)
}

// Flush closes the current window. Call once after the final observation.
func (w *WindowedMedians) Flush() { w.flush() }

func (w *WindowedMedians) flush() {
	if len(w.current) == 0 {
		return
	}
	sort.Float64s(w.current)
	n := len(w.current)
	var med float64
	if n%2 == 1 {
		med = w.current[n/2]
	} else {
		med = (w.current[n/2-1] + w.current[n/2]) / 2
	}
	w.Medians = append(w.Medians, med)
	w.Starts = append(w.Starts, w.start)
	w.current = w.current[:0]
}
