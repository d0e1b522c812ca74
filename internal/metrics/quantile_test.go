package metrics

import (
	"math"
	"reflect"
	"testing"
)

// observe fills a registry histogram with a deterministic heavy-head,
// sparse-tail sample set offset by base.
func observe(h *Histogram, base float64, n int) {
	for i := 0; i < n; i++ {
		v := base + float64(i%97)*0.5 + float64(i%13)
		h.Observe(v)
	}
}

// A Merge'd histogram equals the single histogram fed both sample sets,
// bucket for bucket, so every quantile read from it does too — a merge
// that mangles sparse-bucket alignment or counts shifts quantiles by
// whole buckets.
func TestMergedHistogramQuantileEqualsSingle(t *testing.T) {
	// Two hosts with disjoint-ish distributions (one low, one shifted into
	// the tail), plus the single histogram holding every sample.
	ra, rb, rall := NewRegistry(), NewRegistry(), NewRegistry()
	ha := ra.Histogram("lat", 2, 256)
	hb := rb.Histogram("lat", 2, 256)
	hall := rall.Histogram("lat", 2, 256)
	observe(ha, 0, 5_000)
	observe(hall, 0, 5_000)
	observe(hb, 150, 2_000)
	observe(hall, 150, 2_000)

	merged := ra.Snapshot()
	merged.Merge(rb.Snapshot())
	m, single := merged.Histograms["lat"], rall.Snapshot().Histograms["lat"]
	if m.Count != single.Count || m.Overflow != single.Overflow || m.Width != single.Width {
		t.Fatalf("merged count/overflow/width %d/%d/%v, single %d/%d/%v",
			m.Count, m.Overflow, m.Width, single.Count, single.Overflow, single.Width)
	}
	if math.Abs(m.Sum-single.Sum) > 1e-9*single.Sum {
		t.Fatalf("merged sum %v, single %v", m.Sum, single.Sum)
	}
	if got, want := m.Buckets.NonEmpty(), single.Buckets.NonEmpty(); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged buckets %v\nsingle buckets %v", got, want)
	}
}
