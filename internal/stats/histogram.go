package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Histogram is a fixed-width-bucket histogram over [0, Width*buckets),
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
// Counts live in one []uint32, in one of three layouts that widen as the
// histogram fills. A fresh histogram packs two 16-bit counts per word;
// no bucket holds more than the total count n, so while n is at most
// 65,535 no count can wrap. The settle that would take n past 65,535
// moves the counts to one 32-bit word per bucket in a single copy. The
// first add that would wrap a 32-bit count widens the array to 64-bit
// counts, stored as a lo/hi word pair per bucket, so counts stay exact at
// any size; until n passes 2^32-1 no add checks for that wrap. A fleet
// client's histograms hold about 10,000 values each, so their 1,024
// buckets take 2 KB, not 4.
//
// Share hands a snapshot the array itself rather than a copy: the
// histogram marks it shared and copies it before its next write, so the
// view never changes. A run's final snapshot, taken when no write follows,
// therefore costs no bucket memory.
//
// Add parks each value in a small inline buffer, and settle files the
// buffer in one burst when it fills: count, sum, overflow and bucket. A
// fleet host adds one value per simulated millisecond, and between two
// adds the other hosts' work evicts its bucket array; the burst's
// independent increments overlap their cache misses, where eager
// increments would each pay one. Parking the raw value keeps Add to a
// store and a test, so it inlines into its hot callers, and the growth,
// unpacking, widening and copy-on-write paths stay behind settle, the only
// writer of the array. Every read but N (Bucket, Share, Overflow, Sum, Mean, Quantile,
// FracAbove, CDF) first settles the buffer, so a read writes: a
// Histogram is single-goroutine, like the registry that adopts it.
type Histogram struct {
	width    float64
	buckets  []uint32 // grown on demand, in the layout flags names
	overflow int64
	n        int64
	sum      float64
	// npend, flags and nb are narrow to keep the struct at 192 bytes. An
	// object whose size is a multiple of 64 sits in a size class whose
	// objects all start on a 64-byte line, so every field above shares one
	// line with npend; at 200 bytes (208-byte class) they straddle two.
	npend uint16
	flags uint16               // the layout, histShared, histPreset
	nb    int32                // configured bucket count: the range
	pend  [histPending]float64 // values added but not yet filed
}

const (
	// histPending is the number of values Add parks before settling.
	histPending = 16
	// histMinGrow is the fewest buckets a grown array holds.
	histMinGrow = 64
)

// Histogram flags. The low bits hold the bucket array's layout.
const (
	histLayout = 3      // mask of the layout bits
	histShared = 1 << 2 // a view holds buckets: copy it before writing
	histPreset = 1 << 3 // SetBucketForTest ran: a count may exceed n
)

// layout is how a bucket array stores its counts. The zero value is the
// 32-bit layout.
type layout uint8

const (
	lay32 layout = iota // one count per word
	lay16               // two counts per word: bucket i is half i%2 of word i/2
	lay64               // a lo/hi word pair per bucket
)

// maxPacked is the largest total count the 16-bit layout holds: no bucket
// can then hold more.
const maxPacked = math.MaxUint16

// words returns the array length n buckets take.
func (l layout) words(n int) int {
	switch l {
	case lay16:
		return (n + 1) / 2
	case lay64:
		return 2 * n
	}
	return n
}

// set stores count c, which must fit the layout, in bucket i of b.
func (l layout) set(b []uint32, i int, c uint64) {
	switch l {
	case lay16:
		sh := uint(i&1) * 16
		b[i>>1] = b[i>>1]&^(0xffff<<sh) | uint32(c)<<sh
	case lay64:
		b[2*i], b[2*i+1] = uint32(c), uint32(c>>32)
	default:
		b[i] = uint32(c)
	}
}

// NewHistogram creates a histogram with nbuckets buckets of the given width.
// It allocates no buckets until a value lands in one.
func NewHistogram(width float64, nbuckets int) *Histogram {
	if width <= 0 || nbuckets <= 0 || nbuckets > math.MaxInt32 {
		panic("stats: histogram needs positive width and a bucket count in [1, MaxInt32]")
	}
	return &Histogram{width: width, nb: int32(nbuckets), flags: uint16(lay16)}
}

// Add records an observation. Negative values clamp to the first bucket.
func (h *Histogram) Add(v float64) {
	h.pend[h.npend] = v
	h.npend++
	if h.npend == histPending {
		h.settle()
	}
}

// settle files the parked values, summing them in the order they were
// added. Before the first write after Share it copies the array, and
// before n passes maxPacked it unpacks 16-bit counts, in the same single
// copy. Values the array covers are counted in place; the rest are
// counted after the loop by addSlow, which grows the array or widens the
// counts first. It must not inline: Add inlines only while the call to
// settle is the one call in its body.
//
//go:noinline
func (h *Histogram) settle() {
	if h.npend == 0 {
		return
	}
	lay := h.lay()
	if lay == lay16 && h.n+int64(h.npend) > maxPacked {
		lay = lay32
	}
	if h.flags&histShared != 0 || lay != h.lay() {
		h.realloc(h.view().Len(), lay)
	}
	// The running totals stay in locals: through h, each add would wait on
	// the store the one before it made.
	n, sum, overflow := h.n, h.sum, h.overflow
	width, nb := h.width, int(h.nb)
	// No bucket holds more than n observations, so while n fits a count's
	// bits no increment can wrap and the loop need not check: the unpack
	// above keeps 16-bit counts in range. Otherwise a nil b sends every
	// in-range value to addSlow, which checks.
	b := h.buckets
	if lay == lay64 || h.flags&histPreset != 0 || n+int64(h.npend) > math.MaxUint32 {
		b = nil
	}
	packed := lay == lay16
	var slow [histPending]int32
	ns := 0
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
		if packed {
			if j := i >> 1; uint(j) < uint(len(b)) {
				b[j] += 1 << (i & 1 * 16)
				continue
			}
		} else if uint(i) < uint(len(b)) {
			b[i]++
			continue
		}
		slow[ns] = int32(i)
		ns++
	}
	h.n, h.sum, h.overflow = n, sum, overflow
	h.npend = 0
	for _, i := range slow[:ns] {
		h.addSlow(int(i))
	}
}

// addSlow counts one value in bucket i where settle's loop cannot: the
// array must grow first, or a count might wrap, or counts are wide. It
// widens 32-bit counts when one would wrap; settle keeps 16-bit counts
// from wrapping.
func (h *Histogram) addSlow(i int) {
	if i >= h.view().Len() {
		h.grow(i)
	}
	switch h.lay() {
	case lay16:
		h.buckets[i>>1] += 1 << (i & 1 * 16)
		return
	case lay32:
		if c := h.buckets[i]; c != math.MaxUint32 {
			h.buckets[i] = c + 1
			return
		}
		h.realloc(len(h.buckets), lay64)
	}
	if h.buckets[2*i]++; h.buckets[2*i] == 0 {
		h.buckets[2*i+1]++
	}
}

// grow replaces the bucket array with one that covers index i: the
// smallest power of two above i, at least histMinGrow and at most the
// configured count. The counts held so far carry over.
func (h *Histogram) grow(i int) {
	h.realloc(min(max(histMinGrow, 1<<bits.Len(uint(i))), int(h.nb)), h.lay())
}

// realloc replaces the bucket array with a private one of n buckets in
// layout lay, holding the counts held so far. A view the old array backs
// keeps it unchanged.
func (h *Histogram) realloc(n int, lay layout) {
	old := h.view()
	b := make([]uint32, lay.words(n))
	if lay == old.lay {
		copy(b, old.c)
	} else {
		for i := range old.Len() {
			lay.set(b, i, uint64(old.At(i)))
		}
	}
	h.buckets = b
	h.flags = h.flags&^(histLayout|histShared) | uint16(lay)
}

// lay returns the bucket array's layout.
func (h *Histogram) lay() layout { return layout(h.flags & histLayout) }

// view returns the bucket counts as a Counts, without settling. Packed,
// the array's last word may hold one bucket past the configured count,
// which the view leaves out.
func (h *Histogram) view() Counts {
	lay, n := h.lay(), len(h.buckets)
	switch lay {
	case lay16:
		n = min(2*n, int(h.nb))
	case lay64:
		n /= 2
	}
	return Counts{c: h.buckets, n: int32(n), lay: lay}
}

// Counts is a read-only view of histogram bucket counts, as Share returns
// them and as merged snapshots hold them. Bucket i holds At(i); every
// bucket at or past Len() is empty. Nothing writes an array once a Counts
// holds it, so a Counts may be copied and kept freely.
type Counts struct {
	c   []uint32 // the counts, in layout lay
	n   int32    // buckets covered
	lay layout
}

// NewCounts returns a view of its own over the given counts, which must
// not be negative, in the narrowest layout its largest count allows. It
// panics on more than MaxInt32 buckets.
func NewCounts(counts []int64) Counts {
	return packCounts(len(counts), func(i int) uint64 {
		if counts[i] < 0 {
			panic("stats: negative bucket count")
		}
		return uint64(counts[i])
	})
}

// SumCounts returns the bucket-wise sum of a and b. When both cover
// buckets the sum lives in an array of its own, in the narrowest layout
// its largest count allows; when one covers none, the sum is the other.
func SumCounts(a, b Counts) Counts {
	switch {
	case a.Len() == 0:
		return b
	case b.Len() == 0:
		return a
	}
	return packCounts(max(a.Len(), b.Len()), func(i int) uint64 {
		return uint64(a.At(i)) + uint64(b.At(i))
	})
}

// packCounts builds a view over a new array of n buckets holding at(i), in
// the narrowest layout that fits the largest count.
func packCounts(n int, at func(i int) uint64) Counts {
	if n > math.MaxInt32 {
		panic("stats: more than MaxInt32 buckets")
	}
	var top uint64
	for i := range n {
		top = max(top, at(i))
	}
	lay := lay64
	switch {
	case top <= maxPacked:
		lay = lay16
	case top <= math.MaxUint32:
		lay = lay32
	}
	b := make([]uint32, lay.words(n))
	for i := range n {
		lay.set(b, i, at(i))
	}
	return Counts{c: b, n: int32(n), lay: lay}
}

// Len returns the number of buckets the view covers.
func (c Counts) Len() int { return int(c.n) }

// At returns the count of bucket i, which is zero at or past Len().
func (c Counts) At(i int) int64 {
	if i >= int(c.n) {
		return 0
	}
	switch c.lay {
	case lay16:
		return int64(c.c[i>>1] >> (uint(i&1) * 16) & 0xffff)
	case lay64:
		return int64(c.c[2*i]) | int64(c.c[2*i+1])<<32
	}
	return int64(c.c[i])
}

// N returns the number of observations, parked ones included.
func (h *Histogram) N() int64 { return h.n + int64(h.npend) }

// Width returns the bucket width.
func (h *Histogram) Width() float64 { return h.width }

// Bucket returns the observation count of bucket i. It panics unless i is
// a regular (non-overflow) bucket.
func (h *Histogram) Bucket(i int) int64 {
	if i < 0 || i >= int(h.nb) {
		panic(fmt.Sprintf("stats: bucket %d out of range [0, %d)", i, h.nb))
	}
	if h.npend != 0 {
		h.settle()
	}
	return h.view().At(i)
}

// Share returns the bucket counts, settling pending adds first, as a view
// that shares the histogram's array. The histogram copies the array before
// it next writes, so the view keeps the counts as of this call.
func (h *Histogram) Share() Counts {
	h.settle()
	if h.buckets != nil {
		h.flags |= histShared
	}
	return h.view()
}

// SetBucketForTest sets bucket i's count to c, through the paths settle
// writes by: the copy after Share, growth, unpacking and widening. N, Sum
// and Overflow do not change. It lets tests reach counts near 2^32 without
// 2^32 adds. The count it sets may exceed n, so a packed histogram moves
// to at least 32-bit counts for good.
func (h *Histogram) SetBucketForTest(i int, c uint64) {
	if i < 0 || i >= int(h.nb) {
		panic(fmt.Sprintf("stats: bucket %d out of range [0, %d)", i, h.nb))
	}
	h.settle()
	h.flags |= histPreset
	lay := h.lay()
	switch {
	case c > math.MaxUint32:
		lay = lay64
	case lay == lay16:
		lay = lay32
	}
	if i >= h.view().Len() {
		h.grow(i)
	}
	if h.flags&histShared != 0 || lay != h.lay() {
		h.realloc(h.view().Len(), lay)
	}
	lay.set(h.buckets, i, c)
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
	counts := h.view()
	for i := range counts.Len() {
		c := counts.At(i)
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
	counts := h.view()
	var above int64 = h.overflow
	for i := idx; i < counts.Len(); i++ {
		above += counts.At(i)
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
		cum += h.view().At(i)
		frac := 0.0
		if h.n > 0 {
			frac = float64(cum) / float64(h.n)
		}
		out = append(out, CDFPoint{X: x, Frac: frac})
	}
	return out
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
