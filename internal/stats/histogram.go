package stats

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
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
// histogram fills. A fresh histogram keeps one 8-bit count per bucket,
// four to a word, and after those words a sorted carry list: one word per
// bucket whose count has passed 255, holding the bucket's index and the
// count's high part (count>>8). A byte at 255 sends its next add through
// the list. When the list would pass its cap (carryCap: bytes plus
// carries never take more than two bytes a bucket), or a high part or an
// index would outgrow its half of the entry, the counts move to one
// 32-bit word per bucket in a single copy. The first add that would wrap a
// 32-bit count widens the array to 64-bit counts, stored as a lo/hi word
// pair per bucket, so counts stay exact at any size; until n passes
// 2^32-1 no add checks for that wrap. A fleet client's delay histogram
// holds at most ~60 values a bucket, and its trigger-interval histogram
// piles ~10,000 into the 1 ms bucket, so each takes 1 KB for 1,024
// buckets, the second plus one carry word.
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
// carry, widening and copy-on-write paths stay behind settle, the only
// writer of the array. Every read but N (Bucket, Share, Overflow, Sum, Mean, Quantile,
// FracAbove, CDF) first settles the buffer, so a read writes: a
// Histogram is single-goroutine, like the registry its owner reports it to.
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
	flags uint16               // the layout, histShared, histPreset, the carry count
	nb    int32                // configured bucket count: the range
	pend  [histPending]float64 // values added but not yet filed
}

const (
	// histPending is the number of values Add parks before settling.
	histPending = 16
	// histMinGrow is the fewest buckets a grown array holds.
	histMinGrow = 64
)

// Histogram flags. The low bits hold the bucket array's layout, the bits
// from histCarryShift up the length of the byte layout's carry list.
const (
	histLayout     = 3      // mask of the layout bits
	histShared     = 1 << 2 // a view holds buckets: copy it before writing
	histPreset     = 1 << 3 // SetBucketForTest ran: a count may exceed n
	histCarryShift = 4
	maxCarries     = 1<<(16-histCarryShift) - 1 // the most the flags count
)

// layout is how a bucket array stores its counts. The zero value is the
// 32-bit layout.
type layout uint8

const (
	lay32 layout = iota // one count per word
	lay8                // four low bytes per word (bucket i is byte i%4 of word i/4), then the carry list
	lay64               // a lo/hi word pair per bucket
)

// A carry entry is one word: the bucket index above carryShift, the
// count's high part below it.
const (
	carryShift    = 16
	carryHigh     = 1<<carryShift - 1 // mask and limit of the high part
	maxCarryIndex = 1<<(32-carryShift) - 1
)

// words returns the array length n buckets take, the byte layout's carry
// list not included.
func (l layout) words(n int) int {
	switch l {
	case lay8:
		return (n + 3) / 4
	case lay64:
		return 2 * n
	}
	return n
}

// set stores count c, which must fit the layout, in bucket i of b. In the
// byte layout it stores the low byte; the caller writes the carry.
func (l layout) set(b []uint32, i int, c uint64) {
	switch l {
	case lay8:
		sh := uint(i&3) * 8
		b[i>>2] = b[i>>2]&^(0xff<<sh) | uint32(c&0xff)<<sh
	case lay64:
		b[2*i], b[2*i+1] = uint32(c), uint32(c>>32)
	default:
		b[i] = uint32(c)
	}
}

// carryCap is the most carry entries a byte-layout array of n buckets
// keeps: its bytes and carries then take no more words than n 16-bit
// counts would.
func carryCap(n int) int {
	return min((n+1)/2-(n+3)/4, maxCarries)
}

// findCarry returns the position of bucket i's entry in a carry list, or
// where one would go.
func findCarry(list []uint32, i int) int {
	lo, hi := 0, len(list)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if int(list[m]>>carryShift) < i {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// NewHistogram creates a histogram with nbuckets buckets of the given width.
// It allocates no buckets until a value lands in one.
func NewHistogram(width float64, nbuckets int) *Histogram {
	if width <= 0 || nbuckets <= 0 || nbuckets > math.MaxInt32 {
		panic("stats: histogram needs positive width and a bucket count in [1, MaxInt32]")
	}
	return &Histogram{width: width, nb: int32(nbuckets), flags: uint16(lay8)}
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
// added. Before the first write after Share it copies the array. Values
// the array covers are counted in place; the rest are counted after the
// loop by addSlow, which grows the array, carries or widens the counts
// first. It must not inline: Add inlines only while the call to settle is
// the one call in its body.
//
//go:noinline
func (h *Histogram) settle() {
	if h.npend == 0 {
		return
	}
	if h.flags&histShared != 0 {
		h.realloc(h.view().Len(), h.lay())
	}
	// The running totals stay in locals: through h, each add would wait on
	// the store the one before it made.
	n, sum, overflow := h.n, h.sum, h.overflow
	width, nb := h.width, int(h.nb)
	// In the byte layout b is the byte words, and a byte at 255 sends its
	// value to addSlow, which carries. A 32-bit count holds no more than
	// n observations, so while n fits 32 bits no increment can wrap and
	// the loop need not check; otherwise a nil b sends every in-range
	// value to addSlow, which checks.
	b, lay := h.buckets, h.lay()
	switch {
	case lay == lay8:
		b = b[:len(b)-h.carries()]
	case lay == lay64 || h.flags&histPreset != 0 || n+int64(h.npend) > math.MaxUint32:
		b = nil
	}
	bytes := lay == lay8
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
		if bytes {
			if j := i >> 2; uint(j) < uint(len(b)) {
				if sh := uint(i&3) * 8; b[j]>>sh&0xff != 0xff {
					b[j] += 1 << sh
					continue
				}
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
// array must grow first, or a byte wraps, or a 32-bit count might wrap, or
// counts are wide. It widens byte counts whose carry does not fit, and
// 32-bit counts when one would wrap.
func (h *Histogram) addSlow(i int) {
	if i >= h.view().Len() {
		h.grow(i)
	}
	switch h.lay() {
	case lay8:
		if h.addByte(i) {
			return
		}
		h.realloc(h.view().Len(), lay32)
		fallthrough
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

// addByte counts one value in bucket i of a private byte-layout array. A
// byte at 255 wraps to 0 and carries 1 into the bucket's carry entry,
// which it inserts when the bucket has none. It reports false, changing
// nothing, when the carry does not fit: the high part is at its limit, or
// the list is full, or the index is past what an entry holds.
func (h *Histogram) addByte(i int) bool {
	b := h.buckets
	j, sh := i>>2, uint(i&3)*8
	if b[j]>>sh&0xff != 0xff {
		b[j] += 1 << sh
		return true
	}
	nc := h.carries()
	bw := len(b) - nc
	switch k := findCarry(b[bw:], i); {
	case k < nc && int(b[bw+k]>>carryShift) == i:
		if b[bw+k]&carryHigh == carryHigh {
			return false
		}
		b[bw+k]++
	case nc >= carryCap(h.view().Len()) || i > maxCarryIndex:
		return false
	default:
		if len(b) == cap(b) {
			// Room for the list to double, within its cap, so a run of
			// inserts allocates a few times, not once each; the rest of
			// the allocation's size class is room too.
			room := bw + min(max(2*nc, 4), carryCap(h.view().Len()))
			b = append(slices.Grow([]uint32(nil), room), b...)
		}
		b = b[:len(b)+1]
		copy(b[bw+k+1:], b[bw+k:])
		b[bw+k] = uint32(i)<<carryShift | 1
		h.buckets = b
		h.flags += 1 << histCarryShift
	}
	b[j] &^= 0xff << sh
	return true
}

// grow replaces the bucket array with one that covers index i: the
// smallest power of two above i, at least histMinGrow and at most the
// configured count. The counts held so far carry over.
func (h *Histogram) grow(i int) {
	h.realloc(min(max(histMinGrow, 1<<bits.Len(uint(i))), int(h.nb)), h.lay())
}

// realloc replaces the bucket array with a private one of n buckets in
// layout lay, holding the counts held so far. A view the old array backs
// keeps it unchanged. The byte layout is only ever kept, never entered:
// its carry list moves up behind the new byte words.
func (h *Histogram) realloc(n int, lay layout) {
	old := h.view()
	var b []uint32
	switch {
	case lay != old.lay:
		b = make([]uint32, lay.words(n))
		for i := range old.Len() {
			lay.set(b, i, uint64(old.At(i)))
		}
		h.flags &^= maxCarries << histCarryShift
	case lay == lay8:
		bw, carries := lay8.words(old.Len()), h.carries()
		b = make([]uint32, lay8.words(n)+carries)
		copy(b, old.c[:bw])
		copy(b[len(b)-carries:], old.c[bw:])
	default:
		b = make([]uint32, lay.words(n))
		copy(b, old.c)
	}
	h.buckets = b
	h.flags = h.flags&^(histLayout|histShared) | uint16(lay)
}

// lay returns the bucket array's layout.
func (h *Histogram) lay() layout { return layout(h.flags & histLayout) }

// carries returns the length of the byte layout's carry list.
func (h *Histogram) carries() int { return int(h.flags >> histCarryShift) }

// view returns the bucket counts as a Counts, without settling. In the
// byte layout the last byte word may hold buckets past the configured
// count, which the view leaves out.
func (h *Histogram) view() Counts {
	lay, n := h.lay(), len(h.buckets)
	switch lay {
	case lay8:
		n = min(4*(n-h.carries()), int(h.nb))
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
	c   []uint32 // the counts, in layout lay; the byte layout's carries follow its words(n) byte words
	n   int32    // buckets covered
	lay layout
}

// NewCounts returns a view of its own over the given counts, which must
// not be negative, in the narrowest layout they fit. It panics on more
// than MaxInt32 buckets.
func NewCounts(counts []int64) Counts {
	return packCounts(len(counts), func(i int) uint64 {
		if counts[i] < 0 {
			panic("stats: negative bucket count")
		}
		return uint64(counts[i])
	})
}

// SumCounts returns the bucket-wise sum of a and b. When both cover
// buckets the sum lives in an array of its own, in the narrowest layout it
// fits; when one covers none, the sum is the other.
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
// the narrowest layout that fits: bytes while the counts past 255 fit a
// carry list, else 32-bit counts while the largest fits, else 64-bit.
func packCounts(n int, at func(i int) uint64) Counts {
	if n > math.MaxInt32 {
		panic("stats: more than MaxInt32 buckets")
	}
	var top uint64
	carries, fits := 0, true
	for i := range n {
		c := at(i)
		top = max(top, c)
		if c > 0xff {
			carries++
			fits = fits && c>>8 <= carryHigh && i <= maxCarryIndex
		}
	}
	lay := lay64
	switch {
	case fits && carries <= carryCap(n):
		lay = lay8
	case top <= math.MaxUint32:
		lay = lay32
		carries = 0
	default:
		carries = 0
	}
	b := make([]uint32, lay.words(n)+carries)
	list := b[lay.words(n):]
	for i := range n {
		c := at(i)
		lay.set(b, i, c)
		if lay == lay8 && c > 0xff {
			list[0] = uint32(i)<<carryShift | uint32(c>>8)
			list = list[1:]
		}
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
	case lay8:
		low := int64(c.c[i>>2] >> (uint(i&3) * 8) & 0xff)
		list := c.c[lay8.words(int(c.n)):]
		if k := findCarry(list, i); k < len(list) && int(list[k]>>carryShift) == i {
			return low | int64(list[k]&carryHigh)<<8
		}
		return low
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
// writes by: the copy after Share, growth and widening. N, Sum and
// Overflow do not change. It lets tests reach counts near 2^32 without
// 2^32 adds. The count it sets may exceed n, so a byte-layout histogram
// moves to at least 32-bit counts for good.
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
	case lay == lay8:
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
