// Package stats provides the summary statistics used throughout the paper's
// evaluation: histograms with quantiles, tail fractions and cumulative
// distribution functions for the trigger-interval figures, time-windowed
// medians for Figure 5, and online means and standard deviations for
// high-volume measurement (2 million samples per workload in Section 5.3,
// the paced intervals of Tables 4 and 5).
package stats

// CDFPoint is one (x, cumulative fraction) point of an empirical CDF.
type CDFPoint struct {
	X    float64
	Frac float64 // fraction of samples <= X, in [0,1]
}
