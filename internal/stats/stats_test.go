package stats

import (
	"math"
	"testing"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.N() != 0 || s.Mean() != 0 || s.StdDev() != 0 {
		t.Fatal("empty sample should report zeros")
	}
}

func TestSampleBasicMoments(t *testing.T) {
	var s Sample
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if got := s.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := s.StdDev(); !approx(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestOnlineMatchesSample(t *testing.T) {
	var s Sample
	var o Online
	vals := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3.5}
	for _, v := range vals {
		s.Add(v)
		o.Add(v)
	}
	if o.N() != int64(s.N()) {
		t.Fatalf("N mismatch")
	}
	if !approx(o.Mean(), s.Mean(), 1e-9) {
		t.Errorf("mean %v vs %v", o.Mean(), s.Mean())
	}
}
