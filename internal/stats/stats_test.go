package stats

import (
	"math"
	"testing"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestOnlineEmpty(t *testing.T) {
	var o Online
	if o.N() != 0 || o.Mean() != 0 || o.StdDev() != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
	o.Add(7)
	if o.N() != 1 || o.Mean() != 7 || o.StdDev() != 0 {
		t.Fatalf("one observation: n %d mean %v sd %v, want 1, 7, 0", o.N(), o.Mean(), o.StdDev())
	}
}

func TestOnlineBasicMoments(t *testing.T) {
	var o Online
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		o.Add(v)
	}
	if got := o.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := o.StdDev(); !approx(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

// TestOnlineMatchesSample: the running mean and standard deviation equal
// the two-pass ones over the whole sample.
func TestOnlineMatchesSample(t *testing.T) {
	var o Online
	vals := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3.5}
	sum := 0.0
	for _, v := range vals {
		o.Add(v)
		sum += v
	}
	mean := sum / float64(len(vals))
	sq := 0.0
	for _, v := range vals {
		sq += (v - mean) * (v - mean)
	}
	if o.N() != int64(len(vals)) {
		t.Fatalf("N = %d, want %d", o.N(), len(vals))
	}
	if !approx(o.Mean(), mean, 1e-9) {
		t.Errorf("mean %v vs %v", o.Mean(), mean)
	}
	if sd := math.Sqrt(sq / float64(len(vals))); !approx(o.StdDev(), sd, 1e-9) {
		t.Errorf("stddev %v vs %v", o.StdDev(), sd)
	}
}
