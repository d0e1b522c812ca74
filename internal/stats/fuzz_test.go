// Native fuzz target for the histogram's grown, unpacked, widened and
// shared bucket array: the input bytes decode into a bucket count, a width
// and a stream of adds, bulk adds, reads, shared views and near-2^32
// counts, replayed on a
// Histogram and on the flat reference in grow_test.go. Every read must
// agree, and every view must keep the counts it was taken with. `make fuzz-smoke` runs this target beyond the checked-in
// corpus; plain `go test` replays the corpus as regressions.
package stats

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzWidths are the bucket widths an input picks from.
var fuzzWidths = []float64{1, 0.5, 5, 0.25, 3}

// fuzzViews is the most shared views an input keeps for the check at its
// end; later share ops still share, so the copy-on-write runs, unchecked.
const fuzzViews = 8

// fuzzBulkAdds bounds the values an input's bulk adds add in all: enough
// to take the total count past 65,535, the packed layout's limit, twice.
const fuzzBulkAdds = 1 << 17

// FuzzHistogramOps decodes data as: two bytes of bucket count (1 + n mod
// 4096), one byte of width choice, then ops. Op byte 0xfe takes a shared
// view (Share) and keeps the reference's buckets as of that op; at the end
// of the input every kept view must still hold them. Op byte 0xff sets the
// bucket given by the next two bytes (mod the bucket count) to 2^32-1, the
// largest 32-bit count, so the next add there widens the counts. Op byte
// 0xfd adds (idx + 0.5) * width, idx as below, (k+1)*257 times, k the byte
// after idx, until the input has bulk-added fuzzBulkAdds values; one such
// op with k = 254 takes a bucket to 65,535, the most a packed count holds.
// Op bytes 0xf0 to 0xfc run the read histReads[op mod len]; reads render
// every bucket, so they are kept to 13 op values in 256. Any other op byte
// adds (idx + (op&0x7f)/128) * width, where idx is the next two bytes as a
// signed 16-bit bucket index. Values are finite and bounded, as the
// simulator's µs values are, and reach past either end of every range.
func FuzzHistogramOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 4096 {
			return // bound per-input work; coverage saturates far below this
		}
		nb := 1 + int(binary.BigEndian.Uint16(data))%4096
		w := fuzzWidths[int(data[2])%len(fuzzWidths)]
		h, ref := NewHistogram(w, nb), newFlatHist(w, nb)
		type view struct {
			at   int // op byte that took it
			c    Counts
			want []int64
		}
		var views []view
		bulk := 0
		for p := 3; p < len(data); {
			op := data[p]
			p++
			switch {
			case op == 0xfe:
				c := h.Share()
				if len(views) < fuzzViews {
					views = append(views, view{p - 1, c, append([]int64(nil), ref.buckets...)})
				}
				continue
			case op == 0xff:
				if p+2 > len(data) {
					p = len(data)
					continue
				}
				i := int(binary.BigEndian.Uint16(data[p:])) % nb
				p += 2
				h.SetBucketForTest(i, math.MaxUint32)
				ref.buckets[i] = math.MaxUint32
				continue
			case op == 0xfd:
				if p+3 > len(data) {
					p = len(data)
					continue
				}
				v := (float64(int16(binary.BigEndian.Uint16(data[p:]))) + 0.5) * w
				k := min((int(data[p+2])+1)*257, fuzzBulkAdds-bulk)
				p += 3
				for range k {
					h.Add(v)
					ref.Add(v)
				}
				bulk += k
				continue
			case op >= 0xf0:
				r := histReads[int(op)%len(histReads)]
				if got, want := r.read(h), r.read(ref); got != want {
					t.Fatalf("n=%d w=%g, %s at byte %d:\n got %s\nwant %s", nb, w, r.name, p-1, got, want)
				}
				continue
			}
			if p+2 > len(data) {
				break
			}
			idx := int16(binary.BigEndian.Uint16(data[p:]))
			p += 2
			v := (float64(idx) + float64(op&0x7f)/128) * w
			h.Add(v)
			ref.Add(v)
		}
		// The final state is every bucket and the totals; the readers
		// derived from them run where an op picks them, since rendering a
		// 4,096-bucket CDF dominates an input's cost.
		for _, r := range histReads {
			if r.name != "Bucket" && r.name != "totals" {
				continue
			}
			if got, want := r.read(h), r.read(ref); got != want {
				t.Fatalf("n=%d w=%g, %s at end:\n got %s\nwant %s", nb, w, r.name, got, want)
			}
		}
		// The reads above settled every add, so each write a view could
		// have seen has happened.
		for _, v := range views {
			if v.c.Len() > nb {
				t.Fatalf("n=%d w=%g: view from byte %d covers %d buckets", nb, w, v.at, v.c.Len())
			}
			for i, want := range v.want {
				if got := v.c.At(i); got != want {
					t.Fatalf("n=%d w=%g: view from byte %d reads bucket %d as %d, want %d", nb, w, v.at, i, got, want)
				}
			}
		}
	})
}
