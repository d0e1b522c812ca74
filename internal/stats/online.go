package stats

// Online accumulates a count and a running mean in O(1) memory (Welford's
// update). The trigger-interval experiments record two million samples
// per workload; Online lets hot paths avoid retaining them all when only
// the mean is needed.
type Online struct {
	n    int64
	mean float64
}

// Add incorporates one observation.
func (o *Online) Add(v float64) {
	o.n++
	o.mean += (v - o.mean) / float64(o.n)
}

// N returns the observation count.
func (o *Online) N() int64 { return o.n }

// Mean returns the running mean, or 0 when empty.
func (o *Online) Mean() float64 { return o.mean }
