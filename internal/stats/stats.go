// Package stats provides the summary statistics used throughout the paper's
// evaluation: histograms with quantiles, tail fractions and cumulative
// distribution functions for the trigger-interval figures, time-windowed
// medians for Figure 5, and online means and standard deviations for
// high-volume measurement (2 million samples per workload in Section 5.3,
// the paced intervals of Tables 4 and 5).
//
// A Histogram's memory follows what it holds: its bucket array grows to the
// highest bucket a value reached, and starts at one byte per bucket, with a
// short list of carries for the few buckets past 255, before it widens to
// 32-bit and then 64-bit counts.
package stats

// CDFPoint is one (x, cumulative fraction) point of an empirical CDF.
type CDFPoint struct {
	X    float64
	Frac float64 // fraction of samples <= X, in [0,1]
}
