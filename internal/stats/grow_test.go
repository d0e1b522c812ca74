package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// flatHist is the reference layout: one flat array of the configured
// bucket count, allocated up front and incremented as each value is added.
// Histogram must answer every read as it does, whatever it has grown and
// whatever it still holds pending.
type flatHist struct {
	width    float64
	buckets  []int64
	overflow int64
	n        int64
	sum      float64
}

func newFlatHist(width float64, nbuckets int) *flatHist {
	return &flatHist{width: width, buckets: make([]int64, nbuckets)}
}

func (f *flatHist) Add(v float64) {
	f.n++
	f.sum += v
	if v < 0 {
		v = 0
	}
	idx := int(v / f.width)
	if idx >= len(f.buckets) {
		f.overflow++
		return
	}
	f.buckets[idx]++
}

func (f *flatHist) N() int64           { return f.n }
func (f *flatHist) Sum() float64       { return f.sum }
func (f *flatHist) Overflow() int64    { return f.overflow }
func (f *flatHist) NumBuckets() int    { return len(f.buckets) }
func (f *flatHist) Bucket(i int) int64 { return f.buckets[i] }

func (f *flatHist) Mean() float64 {
	if f.n == 0 {
		return 0
	}
	return f.sum / float64(f.n)
}

func (f *flatHist) Quantile(q float64) float64 {
	if f.n == 0 {
		return 0
	}
	q = min(max(q, 0), 1)
	target := q * float64(f.n)
	var cum int64
	for i, c := range f.buckets {
		if float64(cum+c) >= target && c > 0 {
			return (float64(i) + max((target-float64(cum))/float64(c), 0)) * f.width
		}
		cum += c
	}
	return f.width * float64(len(f.buckets))
}

func (f *flatHist) FracAbove(x float64) float64 {
	if f.n == 0 {
		return 0
	}
	idx := int(x/f.width) + 1
	if x < 0 {
		idx = 0
	}
	above := f.overflow
	for i := idx; i < len(f.buckets); i++ {
		above += f.buckets[i]
	}
	return float64(above) / float64(f.n)
}

func (f *flatHist) CDF(max float64) []CDFPoint {
	var out []CDFPoint
	var cum int64
	for i, c := range f.buckets {
		x := float64(i+1) * f.width
		if x > max {
			break
		}
		cum += c
		frac := 0.0
		if f.n > 0 {
			frac = float64(cum) / float64(f.n)
		}
		out = append(out, CDFPoint{X: x, Frac: frac})
	}
	return out
}

// histReader is what histReads queries: Histogram and the flat reference.
type histReader interface {
	N() int64
	Sum() float64
	Mean() float64
	Overflow() int64
	NumBuckets() int
	Bucket(i int) int64
	Quantile(q float64) float64
	FracAbove(x float64) float64
	CDF(max float64) []CDFPoint
}

// wantGrown is the bucket-array length a histogram of nb buckets holds
// once its largest settled in-range index is top (-1 for none): the
// smallest power of two above top, at least 64, at most nb.
func wantGrown(top, nb int) int {
	if top < 0 {
		return 0
	}
	n := 64
	for n <= top {
		n *= 2
	}
	return min(n, nb)
}

// growEdges are the bucket indices, within [0, nb], on either side of a
// growth step, the last bucket and the first overflowing index.
func growEdges(nb int) []int {
	var out []int
	for _, e := range []int{0, 63, 64, 127, 128, 1023, 1024, nb - 1, nb} {
		if e >= 0 && e <= nb {
			out = append(out, e)
		}
	}
	return out
}

// TestHistogramGrowDifferential replays seeded add streams against the flat
// reference over bucket counts on both sides of every growth step, with
// reads of every kind at random points, many of them while adds are still
// pending. Each stream's ceiling rises from 0 to 1.25x the range, so the
// array grows through each power of two in turn, and a quarter of the adds
// land on a growth edge, the last bucket or the first overflowing index.
// An eighth are bursts of 128 adds to one of up to 32 hot buckets, so
// bytes wrap, carries are inserted before growth moves them, and the carry
// list fills on seeds with more hot buckets than small arrays keep
// carries.
// Whenever nothing is pending, the array must cover exactly the buckets
// the largest index added needs, in the words its layout takes for them
// plus its carries.
func TestHistogramGrowDifferential(t *testing.T) {
	const steps = 1000
	for _, nb := range []int{1, 7, 63, 64, 65, 256, 2000, 4096} {
		for _, w := range []float64{1, 0.5, 5} {
			t.Run(fmt.Sprintf("n=%d/w=%g", nb, w), func(t *testing.T) {
				edges := growEdges(nb)
				carried, widened := false, false
				for seed := int64(1); seed <= 10; seed++ {
					rng := rand.New(rand.NewSource(seed))
					h, ref := NewHistogram(w, nb), newFlatHist(w, nb)
					hot := make([]int, 1+rng.Intn(32))
					for i := range hot {
						hot[i] = rng.Intn(nb)
					}
					top, pendingReads := -1, 0
					for step := 0; step < steps; step++ {
						if rng.Intn(24) == 0 {
							r := histReads[rng.Intn(len(histReads))]
							if h.npend != 0 {
								pendingReads++
							}
							if got, want := r.read(h), r.read(ref); got != want {
								t.Fatalf("seed %d step %d, %s:\n got %s\nwant %s", seed, step, r.name, got, want)
							}
						} else {
							ceil := 1.25 * float64(nb*(step+1)) / steps
							var v float64
							k := 1
							switch rng.Intn(8) {
							case 0:
								v = -3 * w * rng.Float64()
							case 1, 2:
								e := edges[rng.Intn(len(edges))]
								if float64(e) > ceil {
									e = 0
								}
								v = (float64(e) + rng.Float64()) * w
							case 3:
								e := hot[rng.Intn(len(hot))]
								if float64(e) > ceil {
									e = 0
								}
								v, k = (float64(e)+rng.Float64())*w, 128
							default:
								v = ceil * w * rng.Float64()
							}
							for range k {
								h.Add(v)
								ref.Add(v)
							}
							if i := int(max(v, 0) / w); i < nb {
								top = max(top, i)
							}
						}
						carried = carried || h.carries() > 0
						widened = widened || h.lay() != lay8
						if want := wantGrown(top, nb); h.npend == 0 && (h.view().Len() != want || len(h.buckets) != h.lay().words(want)+h.carries()) {
							t.Fatalf("seed %d step %d: %d buckets in %d words grown for top index %d of %d, want %d in %d plus %d carries",
								seed, step, h.view().Len(), len(h.buckets), top, nb, want, h.lay().words(want), h.carries())
						}
					}
					for _, r := range histReads {
						if got, want := r.read(h), r.read(ref); got != want {
							t.Fatalf("seed %d end, %s:\n got %s\nwant %s", seed, r.name, got, want)
						}
					}
					if pendingReads == 0 {
						t.Fatalf("seed %d: no read met pending adds", seed)
					}
				}
				// One bucket has no room for a carry, and a list of more
				// than 16 outlasts every hot set.
				if !carried && nb > 1 || !widened && carryCap(nb) <= 16 {
					t.Fatalf("no seed carried (%v) or widened (%v)", carried, widened)
				}
			})
		}
	}
}

// TestHistogramGrowsOnDemand pins the memory the layout promises: nothing
// before the first add (reads included), and no more than 1,024 buckets,
// a byte each, for a fleet host's 2,000-bucket histogram, whose values
// stay at or below bucket 1000. The negative adds pile 1,002 values into
// bucket 0, which takes one carry word and the 1,152-byte size class.
func TestHistogramGrowsOnDemand(t *testing.T) {
	h := NewHistogram(1, 2000)
	for _, r := range histReads {
		r.read(h)
	}
	if h.buckets != nil {
		t.Fatalf("a fresh histogram holds %d buckets after reads, want none", len(h.buckets))
	}
	for i := 0; i <= 1000; i++ {
		h.Add(float64(i) + 0.999)
		h.Add(-1)
	}
	if h.Bucket(1000) != 1 || h.Bucket(1999) != 0 {
		t.Fatalf("Bucket(1000) = %d, Bucket(1999) = %d; want 1 and 0", h.Bucket(1000), h.Bucket(1999))
	}
	if h.view().Len() > 1024 || len(h.buckets) > 257 || 4*cap(h.buckets) > 1152 || h.Bucket(0) != 1002 {
		t.Fatalf("adds up to bucket 1000 grew %d buckets in %d words (%d bytes allocated) with Bucket(0) = %d, want at most 1024 in 257 (1,152 bytes) with 1002",
			h.view().Len(), len(h.buckets), 4*cap(h.buckets), h.Bucket(0))
	}
}

// TestHistogramBucketRange checks that Bucket still panics outside
// [0, NumBuckets()), fresh or grown, and reads zero past the grown array.
func TestHistogramBucketRange(t *testing.T) {
	fresh, grown := NewHistogram(1, 2000), NewHistogram(1, 2000)
	grown.Add(70)
	for name, h := range map[string]*Histogram{"fresh": fresh, "grown": grown} {
		for _, i := range []int{-1, 2000, 2001, 1 << 20} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: Bucket(%d) of 2000 did not panic", name, i)
					}
				}()
				h.Bucket(i)
			}()
		}
		for _, i := range []int{0, 128, 1999} {
			if c := h.Bucket(i); c != 0 {
				t.Errorf("%s: Bucket(%d) = %d, want 0", name, i, c)
			}
		}
	}
	if grown.Bucket(70) != 1 || grown.view().Len() != 128 {
		t.Fatalf("Bucket(70) = %d with %d buckets grown, want 1 with 128", grown.Bucket(70), grown.view().Len())
	}
}

// TestHistogramSizeIsLineMultiple pins the struct at a multiple of 64
// bytes. Go's allocator puts such an object in a size class whose objects
// all start on a 64-byte cache line, so the width, count and n, sum and
// npend (the pending buffer's head) that every Add reads and writes share
// one line. One more 8-byte field would make it 200 bytes, in the 208-byte
// class, where those fields straddle two lines on most objects.
func TestHistogramSizeIsLineMultiple(t *testing.T) {
	if sz := unsafe.Sizeof(Histogram{}); sz%64 != 0 {
		t.Fatalf("Histogram is %d bytes, want a multiple of 64", sz)
	}
}

// TestCountsSizeIsHalfALine pins a Counts, which every histogram snapshot
// holds, at 32 bytes: the slice, the bucket count and the layout.
func TestCountsSizeIsHalfALine(t *testing.T) {
	if sz := unsafe.Sizeof(Counts{}); sz != 32 {
		t.Fatalf("Counts is %d bytes, want 32", sz)
	}
}

// TestFleetShapedHistogramBytes fills a 2,000-bucket histogram the way a
// fleet client's are filled (at most 60 values in each of buckets 0-1000,
// the delay distribution, and 10,000 in the 1 ms bucket, where a halted
// host's trigger intervals pile up) and checks that its array stays
// within the 1,152-byte size class: 1,024 bytes of counts plus one carry.
func TestFleetShapedHistogramBytes(t *testing.T) {
	h := NewHistogram(1, 2000)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i <= 1000; i++ {
		for range rng.Intn(61) {
			h.Add(float64(i) + rng.Float64())
		}
	}
	for range 10000 {
		h.Add(1000.5)
	}
	h.Share()
	if bytes := 4 * cap(h.buckets); bytes > 1152 || h.lay() != lay8 || h.carries() != 1 {
		t.Fatalf("%d bucket bytes in layout %d with %d carries, want at most 1152 in bytes with 1", bytes, h.lay(), h.carries())
	}
}

// TestHistogramWidensPastCarryEntry takes the byte layout past what one
// carry entry holds: a count past 2^24-1, whose high part outgrows its
// 16 bits, and a carry for a bucket index past 2^16-1. Each must move the
// counts to 32-bit words and keep every count.
func TestHistogramWidensPastCarryEntry(t *testing.T) {
	h := NewHistogram(1, 10)
	h.Add(9)
	for range 1<<24 - 1 {
		h.Add(2)
	}
	if got := h.Bucket(2); h.lay() != lay8 || got != 1<<24-1 {
		t.Fatalf("layout %d, Bucket(2) = %d; want bytes, %d", h.lay(), got, 1<<24-1)
	}
	h.Add(2)
	if got := h.Bucket(2); h.lay() != lay32 || got != 1<<24 || h.Bucket(9) != 1 {
		t.Fatalf("layout %d, Bucket(2) = %d, Bucket(9) = %d; want 32-bit, %d, 1", h.lay(), got, h.Bucket(9), 1<<24)
	}

	h = NewHistogram(1, 1<<16+10)
	for range 256 {
		h.Add(1<<16 - 1)
	}
	if h.Share(); h.lay() != lay8 || h.carries() != 1 {
		t.Fatalf("a carry at index 2^16-1: layout %d with %d carries, want bytes with 1", h.lay(), h.carries())
	}
	for range 256 {
		h.Add(1 << 16)
	}
	if got := h.Bucket(1 << 16); h.lay() != lay32 || got != 256 || h.Bucket(1<<16-1) != 256 {
		t.Fatalf("a carry at index 2^16: layout %d, Bucket(2^16) = %d, Bucket(2^16-1) = %d; want 32-bit, 256, 256",
			h.lay(), got, h.Bucket(1<<16-1))
	}
}

// TestPackCountsPicksBytes checks that NewCounts and SumCounts keep one
// byte per bucket while the counts past 255 fit the carry list, and move to
// 32-bit counts once they do not: more such buckets than carryCap, or a
// high part past 16 bits.
func TestPackCountsPicksBytes(t *testing.T) {
	counts := make([]int64, 1000)
	for i := range counts {
		counts[i] = int64(i % 200)
	}
	few := carryCap(len(counts))
	for i := range few {
		counts[i*3] = 256 + int64(i)
	}
	a := NewCounts(counts)
	if a.lay != lay8 || len(a.c) != lay8.words(1000)+few {
		t.Fatalf("%d counts past 255 packed in layout %d, %d words; want bytes in %d", few, a.lay, len(a.c), lay8.words(1000)+few)
	}
	sum := SumCounts(a, NewCounts(counts[:10]))
	if sum.lay != lay8 || sum.At(3) != 2*257 || sum.At(999) != 999%200 {
		t.Fatalf("sum in layout %d: At(3) = %d, At(999) = %d; want bytes, %d, %d", sum.lay, sum.At(3), sum.At(999), 2*257, 999%200)
	}
	for i, c := range counts {
		if a.At(i) != c {
			t.Fatalf("At(%d) = %d, want %d", i, a.At(i), c)
		}
	}
	counts[1] = 300
	if c := NewCounts(counts); c.lay != lay32 || c.At(1) != 300 {
		t.Fatalf("%d counts past 255 in layout %d, At(1) = %d; want 32-bit, 300", few+1, c.lay, c.At(1))
	}
	if c := SumCounts(a, NewCounts([]int64{0, 300})); c.lay != lay32 || c.At(1) != 301 {
		t.Fatalf("sum with %d counts past 255 in layout %d, At(1) = %d; want 32-bit, 301", few+1, c.lay, c.At(1))
	}
	if c := NewCounts([]int64{0, 1 << 24}); c.lay != lay32 || c.At(1) != 1<<24 {
		t.Fatalf("a count of 2^24 in layout %d reads %d; want 32-bit", c.lay, c.At(1))
	}
	if c := NewCounts([]int64{0, 1<<24 - 1, 0, 0, 0}); c.lay != lay8 || c.At(1) != 1<<24-1 {
		t.Fatalf("a count of 2^24-1 in layout %d reads %d; want bytes", c.lay, c.At(1))
	}
}

// TestHistogramUnpacksPastMaxPacked fills the byte layout's carry list of
// a 65-bucket histogram (growth stops at the odd configured count, whose
// last byte word holds one bucket) to its cap, then takes one more bucket
// past 255 with a view shared on each side of that add: the add must move
// the counts to 32-bit words rather than pass the cap, the carried counts
// must survive the move, and both views must keep what they read.
func TestHistogramUnpacksPastMaxPacked(t *testing.T) {
	h := NewHistogram(1, 65)
	h.Add(64)
	full := carryCap(65)
	for b := range full {
		for range 256 + b {
			h.Add(float64(b))
		}
	}
	for range 255 {
		h.Add(float64(full))
	}
	before := h.Share()
	if h.lay() != lay8 || h.carries() != full || h.Bucket(full-1) != 255+int64(full) || h.Bucket(full) != 255 || h.view().Len() != 65 {
		t.Fatalf("layout %d with %d carries, Bucket(%d) = %d, Bucket(%d) = %d, %d buckets; want bytes with %d carries, %d, 255, 65",
			h.lay(), h.carries(), full-1, h.Bucket(full-1), full, h.Bucket(full), h.view().Len(), full, 255+full)
	}
	h.Add(float64(full))
	after := h.Share()
	h.Add(64)
	if h.lay() != lay32 || h.Bucket(full) != 256 || h.Bucket(full+1) != 0 || h.Bucket(0) != 256 || h.Bucket(64) != 2 || h.view().Len() != 65 {
		t.Fatalf("layout %d: Bucket(%d) = %d, Bucket(%d) = %d, Bucket(0) = %d, Bucket(64) = %d, %d buckets; want 32-bit, 256, 0, 256, 2, 65",
			h.lay(), full, h.Bucket(full), full+1, h.Bucket(full+1), h.Bucket(0), h.Bucket(64), h.view().Len())
	}
	if before.At(full) != 255 || before.At(0) != 256 || after.At(full) != 256 || after.At(64) != 1 {
		t.Fatalf("views moved: before reads %d, %d; after reads %d, %d; want 255, 256 and 256, 1",
			before.At(full), before.At(0), after.At(full), after.At(64))
	}
}

// TestHistogramWidensPastUint32Observations sets the fields 2^32 adds to
// one bucket would leave (that bucket at 2^32-1, n past 2^32-1) without
// SetBucketForTest, which marks the histogram itself: the next add there
// must widen the counts to 64 bits, not wrap the count to 0. Real adds
// take the counts past the byte layout first, by carrying in more buckets
// than its list keeps.
func TestHistogramWidensPastUint32Observations(t *testing.T) {
	h := NewHistogram(1, 100)
	h.Add(70)
	h.Add(5)
	for b := 40; b <= 40+carryCap(100); b++ {
		for range 256 {
			h.Add(float64(b))
		}
	}
	if h.Bucket(5) != 1 || h.Bucket(40) != 256 || h.lay() != lay32 || h.view().Len() != 100 {
		t.Fatalf("Bucket(5) = %d, Bucket(40) = %d, layout %d, %d buckets grown; want 1, 256, 32-bit, 100", h.Bucket(5), h.Bucket(40), h.lay(), h.view().Len())
	}
	h.buckets[5], h.n = math.MaxUint32, math.MaxUint32+1
	h.Add(5.5)
	if got := h.Bucket(5); got != 1<<32 || h.lay() != lay64 {
		t.Fatalf("Bucket(5) = %d, layout %d; want %d, 64-bit", got, h.lay(), int64(1<<32))
	}
	if h.Bucket(70) != 1 || h.Bucket(6) != 0 || h.Bucket(40) != 256 || h.view().Len() != 100 {
		t.Fatalf("widening moved counts: Bucket(70) = %d, Bucket(6) = %d, Bucket(40) = %d, %d buckets", h.Bucket(70), h.Bucket(6), h.Bucket(40), h.view().Len())
	}
}

// NumBuckets returns the number of regular (non-overflow) buckets.
func (h *Histogram) NumBuckets() int { return int(h.nb) }
