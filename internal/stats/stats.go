// Package stats provides the summary statistics used throughout the paper's
// evaluation: full-sample means and standard deviations, histograms with
// quantiles, tail fractions and cumulative distribution functions for the
// trigger-interval figures, time-windowed medians for Figure 5, and online
// means for high-volume measurement (2 million samples per workload in
// Section 5.3).
package stats

import "math"

// Sample collects float64 observations and computes summary statistics.
// The zero value is ready to use.
type Sample struct {
	values []float64
}

// Add appends an observation.
func (s *Sample) Add(v float64) {
	s.values = append(s.values, v)
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.values) }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// StdDev returns the population standard deviation, or 0 for fewer than two
// observations.
func (s *Sample) StdDev() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	mean := s.Mean()
	sum := 0.0
	for _, v := range s.values {
		d := v - mean
		sum += d * d
	}
	return math.Sqrt(sum / float64(n))
}

// CDFPoint is one (x, cumulative fraction) point of an empirical CDF.
type CDFPoint struct {
	X    float64
	Frac float64 // fraction of samples <= X, in [0,1]
}
