package stats

import "math"

// Online accumulates a count, a running mean and the second central moment
// in O(1) memory (Welford's update). The trigger-interval experiments
// record two million samples per workload and a pacing row of Tables 4
// and 5 up to 100,000 intervals; Online lets them keep none of the samples
// when only the mean and spread are needed.
type Online struct {
	n    int64
	mean float64
	m2   float64 // sum of squared deviations from the running mean
}

// Add incorporates one observation.
func (o *Online) Add(v float64) {
	o.n++
	d := v - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (v - o.mean)
}

// N returns the observation count.
func (o *Online) N() int64 { return o.n }

// Mean returns the running mean, or 0 when empty.
func (o *Online) Mean() float64 { return o.mean }

// StdDev returns the population standard deviation, or 0 for fewer than
// two observations.
func (o *Online) StdDev() float64 {
	if o.n < 2 {
		return 0
	}
	return math.Sqrt(o.m2 / float64(o.n))
}
