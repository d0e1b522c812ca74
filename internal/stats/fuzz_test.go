// Native fuzz target for the histogram's grown bucket array: the input
// bytes decode into a bucket count, a width and a stream of adds and reads,
// replayed on a Histogram and on the flat reference in grow_test.go. Every
// read must agree. `make fuzz-smoke` runs this target beyond the checked-in
// corpus; plain `go test` replays the corpus as regressions.
package stats

import (
	"encoding/binary"
	"testing"
)

// fuzzWidths are the bucket widths an input picks from.
var fuzzWidths = []float64{1, 0.5, 5, 0.25, 3}

// FuzzHistogramOps decodes data as: two bytes of bucket count (1 + n mod
// 4096), one byte of width choice, then ops. An op byte of 0xf0 or more
// runs the read histReads[op mod len]; reads render every bucket, so they
// are kept to one op value in 16. Any other op byte adds
// (idx + (op&0x7f)/128) * width, where idx is the next two bytes as a
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
		for p := 3; p < len(data); {
			op := data[p]
			p++
			if op >= 0xf0 {
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
		// 4,096-bucket CDF or ASCII chart dominates an input's cost.
		for _, r := range histReads {
			if r.name != "Bucket" && r.name != "totals" {
				continue
			}
			if got, want := r.read(h), r.read(ref); got != want {
				t.Fatalf("n=%d w=%g, %s at end:\n got %s\nwant %s", nb, w, r.name, got, want)
			}
		}
	})
}
