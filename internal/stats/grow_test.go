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
// Whenever nothing is pending, the array must cover exactly the buckets
// the largest index added needs, in the words its layout takes for them.
func TestHistogramGrowDifferential(t *testing.T) {
	const steps = 1000
	for _, nb := range []int{1, 7, 63, 64, 65, 256, 2000, 4096} {
		for _, w := range []float64{1, 0.5, 5} {
			t.Run(fmt.Sprintf("n=%d/w=%g", nb, w), func(t *testing.T) {
				edges := growEdges(nb)
				for seed := int64(1); seed <= 10; seed++ {
					rng := rand.New(rand.NewSource(seed))
					h, ref := NewHistogram(w, nb), newFlatHist(w, nb)
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
							switch rng.Intn(8) {
							case 0:
								v = -3 * w * rng.Float64()
							case 1, 2:
								e := edges[rng.Intn(len(edges))]
								if float64(e) > ceil {
									e = 0
								}
								v = (float64(e) + rng.Float64()) * w
							default:
								v = ceil * w * rng.Float64()
							}
							h.Add(v)
							ref.Add(v)
							if i := int(max(v, 0) / w); i < nb {
								top = max(top, i)
							}
						}
						if want := wantGrown(top, nb); h.npend == 0 && (h.view().Len() != want || len(h.buckets) != h.lay().words(want)) {
							t.Fatalf("seed %d step %d: %d buckets in %d words grown for top index %d of %d, want %d in %d",
								seed, step, h.view().Len(), len(h.buckets), top, nb, want, h.lay().words(want))
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
			})
		}
	}
}

// TestHistogramGrowsOnDemand pins the memory the layout promises: nothing
// before the first add (reads included), and no more than 1,024 buckets,
// packed two to a word, for a fleet host's 2,000-bucket histogram, whose
// values stay at or below bucket 1000.
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
	if h.view().Len() > 1024 || cap(h.buckets) > 512 {
		t.Fatalf("adds up to bucket 1000 grew %d buckets in %d words, want at most 1024 in 512", h.view().Len(), cap(h.buckets))
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

// TestHistogramUnpacksPastMaxPacked fills one bucket to 65,535, the most a
// packed 16-bit count holds, with a view shared on each side of the next
// add there: that add must move the counts to 32-bit words rather than
// carry into the neighbour that shares the bucket's word, growth must
// still stop at the odd configured count, and both views must keep what
// they read.
func TestHistogramUnpacksPastMaxPacked(t *testing.T) {
	h := NewHistogram(1, 65)
	for range maxPacked {
		h.Add(8)
	}
	before := h.Share()
	if h.lay() != lay16 || h.Bucket(8) != maxPacked || h.Bucket(9) != 0 || h.view().Len() != 64 {
		t.Fatalf("at n = %d: layout %d, Bucket(8) = %d, Bucket(9) = %d, %d buckets; want packed, %d, 0, 64",
			h.N(), h.lay(), h.Bucket(8), h.Bucket(9), h.view().Len(), maxPacked)
	}
	h.Add(8)
	after := h.Share()
	h.Add(64)
	if h.lay() != lay32 || h.Bucket(8) != maxPacked+1 || h.Bucket(9) != 0 || h.Bucket(64) != 1 || h.view().Len() != 65 {
		t.Fatalf("at n = %d: layout %d, Bucket(8) = %d, Bucket(9) = %d, Bucket(64) = %d, %d buckets; want 32-bit, %d, 0, 1, 65",
			h.N(), h.lay(), h.Bucket(8), h.Bucket(9), h.Bucket(64), h.view().Len(), maxPacked+1)
	}
	if before.At(8) != maxPacked || before.At(9) != 0 || after.At(8) != maxPacked+1 || after.At(64) != 0 {
		t.Fatalf("views moved: before reads %d, %d; after reads %d, %d; want %d, 0 and %d, 0",
			before.At(8), before.At(9), after.At(8), after.At(64), maxPacked, maxPacked+1)
	}
}

// TestHistogramWidensPastUint32Observations sets the fields 2^32 adds to
// one bucket would leave (that bucket at 2^32-1, n past 2^32-1) without
// SetBucketForTest, which marks the histogram itself: the next add there
// must widen the counts to 64 bits, not wrap the count to 0. Real adds
// take the counts past the packed layout first.
func TestHistogramWidensPastUint32Observations(t *testing.T) {
	h := NewHistogram(1, 100)
	h.Add(70)
	for range maxPacked {
		h.Add(5)
	}
	if h.Bucket(5) != maxPacked || h.lay() != lay32 || h.view().Len() != 100 {
		t.Fatalf("Bucket(5) = %d, layout %d, %d buckets grown; want %d, 32-bit, 100", h.Bucket(5), h.lay(), h.view().Len(), maxPacked)
	}
	h.buckets[5], h.n = math.MaxUint32, math.MaxUint32+1
	h.Add(5.5)
	if got := h.Bucket(5); got != 1<<32 || h.lay() != lay64 {
		t.Fatalf("Bucket(5) = %d, layout %d; want %d, 64-bit", got, h.lay(), int64(1<<32))
	}
	if h.Bucket(70) != 1 || h.Bucket(6) != 0 || h.view().Len() != 100 {
		t.Fatalf("widening moved counts: Bucket(70) = %d, Bucket(6) = %d, %d buckets", h.Bucket(70), h.Bucket(6), h.view().Len())
	}
}

// NumBuckets returns the number of regular (non-overflow) buckets.
func (h *Histogram) NumBuckets() int { return int(h.nb) }
