package metrics

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"softtimers/internal/stats"
)

// mapMergeBuckets is the reference merge: sum counts by index in a map,
// then emit the indices in sorted order.
func mapMergeBuckets(a, b []BucketCount) []BucketCount {
	byIdx := make(map[int]int64, len(a)+len(b))
	for _, bc := range a {
		byIdx[bc.Index] += bc.Count
	}
	for _, bc := range b {
		byIdx[bc.Index] += bc.Count
	}
	idxs := make([]int, 0, len(byIdx))
	for i := range byIdx {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	var out []BucketCount
	for _, i := range idxs {
		out = append(out, BucketCount{Index: i, Count: byIdx[i]})
	}
	return out
}

// sparseBuckets draws an ascending sparse bucket list: each index in
// [0, span) present with probability p, with a count in [1, 1000].
func sparseBuckets(rng *rand.Rand, span int, p float64) []BucketCount {
	var out []BucketCount
	for i := 0; i < span; i++ {
		if rng.Float64() < p {
			out = append(out, BucketCount{Index: i, Count: 1 + rng.Int63n(1000)})
		}
	}
	return out
}

// bucketsOf returns a snapshot's buckets holding the sparse list bcs.
func bucketsOf(bcs []BucketCount) Buckets {
	if len(bcs) == 0 {
		return Buckets{}
	}
	counts := make([]int64, bcs[len(bcs)-1].Index+1)
	for _, bc := range bcs {
		counts[bc.Index] = bc.Count
	}
	return Buckets{stats.NewCounts(counts)}
}

// TestMergeBucketsMatchesMapReference checks the histogram merge against
// the map-and-sort one on empty, disjoint, identical and interleaved index
// sets, and that it leaves both inputs as they were.
func TestMergeBucketsMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	type pair struct {
		name string
		a, b []BucketCount
	}
	var cases []pair
	for k := 0; k < 200; k++ {
		a := sparseBuckets(rng, 1+rng.Intn(2000), rng.Float64())
		evens, odds := []BucketCount{}, []BucketCount{}
		for _, bc := range a {
			if bc.Index%2 == 0 {
				evens = append(evens, bc)
			} else {
				odds = append(odds, bc)
			}
		}
		shifted := make([]BucketCount, len(a))
		for i, bc := range a {
			shifted[i] = BucketCount{Index: bc.Index + 5000, Count: bc.Count}
		}
		cases = append(cases,
			pair{"empty/nil", a, nil},
			pair{"nil/empty", nil, a},
			pair{"empty/empty", []BucketCount{}, nil},
			pair{"disjoint/parity", evens, odds},
			pair{"disjoint/ranges", shifted, a},
			pair{"identical", a, append([]BucketCount(nil), a...)},
			pair{"interleaved", a, sparseBuckets(rng, 1+rng.Intn(2000), rng.Float64())},
		)
	}
	for _, c := range cases {
		a := HistogramSnapshot{Width: 1, Buckets: bucketsOf(c.a)}
		b := HistogramSnapshot{Width: 1, Buckets: bucketsOf(c.b)}
		got, want := mergeHistogram(a, b).Buckets.NonEmpty(), mapMergeBuckets(c.a, c.b)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: merge of %d and %d buckets:\n got %v\nwant %v", c.name, len(c.a), len(c.b), got, want)
		}
		if cap(got) != len(got) {
			t.Fatalf("%s: merged %d buckets into capacity %d", c.name, len(got), cap(got))
		}
		for _, in := range []struct {
			h    HistogramSnapshot
			want []BucketCount
		}{{a, c.a}, {b, c.b}} {
			if got := in.h.Buckets.NonEmpty(); len(got)+len(in.want) > 0 && !reflect.DeepEqual(got, in.want) {
				t.Fatalf("%s: merge changed an input to %v, want %v", c.name, got, in.want)
			}
		}
	}
}

// TestSnapshotBucketsExactSize checks that the non-empty bucket lists of
// snapshots, direct and merged, hold no append slack, and that an empty
// histogram still encodes its buckets as null.
func TestSnapshotBucketsExactSize(t *testing.T) {
	build := func(shift float64) *Registry {
		empty, one, spread := histOf(1, 2000), histOf(1, 2000, 7+shift), histOf(1, 2000)
		for v := 0.0; v <= 1000; v += 3 {
			spread.Add(v + shift)
		}
		return registryOf(func(w Writer) {
			w.Histogram("empty", empty)
			w.Histogram("one", one)
			w.Histogram("spread", spread)
		})
	}
	a, b := build(0).Snapshot(), build(1).Snapshot()
	merged := NewSnapshot()
	merged.Merge(a)
	merged.Merge(b)
	for _, s := range []*Snapshot{a, b, merged} {
		for name, h := range s.Histograms {
			if got := h.Buckets.NonEmpty(); cap(got) != len(got) {
				t.Errorf("%s: %d buckets in capacity %d", name, len(got), cap(got))
			}
		}
		if got := s.Histograms["spread"].Buckets.NonEmpty(); len(got) != 334 && len(got) != 668 {
			t.Errorf("spread: %d buckets, want 334 per snapshot or 668 merged", len(got))
		}
		buf, err := json.Marshal(s.Histograms["empty"])
		if err != nil {
			t.Fatal(err)
		}
		if want := `{"width":1,"count":0,"sum":0,"overflow":0,"buckets":null}`; string(buf) != want {
			t.Errorf("empty histogram encodes as %s, want %s", buf, want)
		}
	}
}
