package metrics

// Virtual-time time series: a SeriesSet samples a fixed set of columns
// (closures over counters, gauges, histogram quantiles, or any host-local
// state) on a virtual-time cadence into bounded buffers. When a buffer
// fills, every other retained point is dropped and the sampling stride
// doubles — classic ring-halving downsampling — so an arbitrarily long
// run yields at most Capacity points whose timestamps are always exactly
// {0, stride, 2·stride, ...}·Interval after the first tick.
//
// Determinism: the driver calls Sample on a fixed virtual-time cadence,
// so the tick counter, stride evolution and retained timestamps are pure
// functions of elapsed virtual time — identical on every host sharing the
// cadence and invariant under sharding, placement and worker count
// (columns must read only host-local simulation state). Two SeriesSets
// sampled on the same cadence for the same virtual span therefore merge
// point-wise with no alignment step.

import (
	"encoding/json"
	"fmt"
	"io"
)

// Merge kinds for combining equal-named columns across hosts.
const (
	MergeSum = "sum" // fleet total (counters, queue depths)
	MergeMax = "max" // fleet worst-case (quantiles, delays)
	MergeMin = "min" // fleet tightest (slack against a bound)
)

type seriesCol struct {
	name   string
	merge  string
	sample func() float64
	vals   []float64
}

// SeriesSet is one host's (or rig's) set of time-series columns, all
// sharing one timestamp vector. Not safe for concurrent use; it belongs
// to the engine goroutine that drives Sample.
type SeriesSet struct {
	interval int64 // ns between Sample calls (the driver's cadence)
	capacity int
	stride   int64 // record every stride-th tick
	ticks    int64
	times    []int64
	cols     []*seriesCol
	byName   map[string]*seriesCol
}

// NewSeriesSet builds a set sampled every intervalNS of virtual time,
// retaining at most capacity points. Capacity must be even and >= 2 so
// ring-halving keeps timestamps on the stride grid.
func NewSeriesSet(intervalNS int64, capacity int) *SeriesSet {
	if intervalNS <= 0 {
		panic("metrics: series interval must be positive")
	}
	if capacity < 2 || capacity%2 != 0 {
		panic(fmt.Sprintf("metrics: series capacity must be even and >= 2, got %d", capacity))
	}
	return &SeriesSet{
		interval: intervalNS,
		capacity: capacity,
		stride:   1,
		byName:   make(map[string]*seriesCol),
	}
}

// Add registers a column: sample is evaluated at each retained tick, and
// merge (MergeSum/MergeMax/MergeMin) says how equal-named columns combine
// across hosts. Duplicate names panic.
func (ss *SeriesSet) Add(name, merge string, sample func() float64) {
	if sample == nil {
		panic("metrics: series column with nil sample func")
	}
	switch merge {
	case MergeSum, MergeMax, MergeMin:
	default:
		panic(fmt.Sprintf("metrics: series column %q has unknown merge kind %q", name, merge))
	}
	if _, ok := ss.byName[name]; ok {
		panic(fmt.Sprintf("metrics: series column %q already registered", name))
	}
	c := &seriesCol{name: name, merge: merge, sample: sample}
	ss.cols = append(ss.cols, c)
	ss.byName[name] = c
}

// Sample records one tick at virtual time nowNS. The driver must call it
// exactly every intervalNS (NewSeriesSet's); ticks off the current stride
// are counted but not stored, and a full buffer halves itself and doubles
// the stride before storing.
func (ss *SeriesSet) Sample(nowNS int64) {
	t := ss.ticks
	ss.ticks++
	if t%ss.stride != 0 {
		return
	}
	if len(ss.times) >= ss.capacity {
		ss.decimate()
		if t%ss.stride != 0 {
			return
		}
	}
	ss.times = append(ss.times, nowNS)
	for _, c := range ss.cols {
		c.vals = append(c.vals, c.sample())
	}
}

// decimate keeps the even-indexed points (ticks 0, 2s, 4s, ...) and
// doubles the stride: retained timestamps stay exactly on the new grid.
func (ss *SeriesSet) decimate() {
	keep := (len(ss.times) + 1) / 2
	for i := 0; i < keep; i++ {
		ss.times[i] = ss.times[2*i]
	}
	ss.times = ss.times[:keep]
	for _, c := range ss.cols {
		for i := 0; i < keep; i++ {
			c.vals[i] = c.vals[2*i]
		}
		c.vals = c.vals[:keep]
	}
	ss.stride *= 2
}

// SeriesColumn is one exported column.
type SeriesColumn struct {
	Merge string    `json:"merge"`
	Vals  []float64 `json:"vals"`
}

// SeriesSnapshot is a SeriesSet's exported state: the shared timestamp
// vector plus named columns. JSON is deterministic (map keys sort).
type SeriesSnapshot struct {
	IntervalNS int64                   `json:"interval_ns"`
	Capacity   int                     `json:"capacity"`
	Stride     int64                   `json:"stride"`
	TimesNS    []int64                 `json:"times_ns"`
	Series     map[string]SeriesColumn `json:"series"`
}

// Snapshot copies the set's current state.
func (ss *SeriesSet) Snapshot() *SeriesSnapshot {
	out := &SeriesSnapshot{
		IntervalNS: ss.interval,
		Capacity:   ss.capacity,
		Stride:     ss.stride,
		TimesNS:    append([]int64(nil), ss.times...),
		Series:     make(map[string]SeriesColumn, len(ss.cols)),
	}
	for _, c := range ss.cols {
		out.Series[c.name] = SeriesColumn{Merge: c.merge, Vals: append([]float64(nil), c.vals...)}
	}
	return out
}

// Merge folds other into s point-wise. Both snapshots must come from sets
// sampled on the same cadence over the same virtual span (the topology
// driver guarantees this); if strides differ — one host decimated more
// than another, which the shared cadence rules out but Merge tolerates —
// the finer snapshot is decimated to match. Equal-named columns combine
// per their merge kind (mismatched kinds panic); new columns are adopted.
func (s *SeriesSnapshot) Merge(other *SeriesSnapshot) {
	if other == nil {
		return
	}
	if len(s.TimesNS) == 0 && len(s.Series) == 0 {
		// Empty receiver adopts wholesale — but a receiver that already has
		// a cadence configured (interval set, no points yet) is not a blank
		// slate: silently overwriting its IntervalNS/Capacity would let a
		// mis-cadenced snapshot slip through exactly where the non-empty
		// path panics. Enforce the same contract here.
		if s.IntervalNS != 0 && s.IntervalNS != other.IntervalNS {
			panic(fmt.Sprintf("metrics: merging series with mismatched intervals %d and %d",
				s.IntervalNS, other.IntervalNS))
		}
		s.IntervalNS, s.Stride = other.IntervalNS, other.Stride
		if s.Capacity == 0 {
			s.Capacity = other.Capacity
		}
		s.TimesNS = append([]int64(nil), other.TimesNS...)
		if s.Series == nil {
			s.Series = make(map[string]SeriesColumn, len(other.Series))
		}
		for name, c := range other.Series {
			s.Series[name] = SeriesColumn{Merge: c.Merge, Vals: append([]float64(nil), c.Vals...)}
		}
		return
	}
	if s.IntervalNS != other.IntervalNS {
		panic(fmt.Sprintf("metrics: merging series with mismatched intervals %d and %d",
			s.IntervalNS, other.IntervalNS))
	}
	o := other
	for s.Stride > o.Stride {
		o = o.decimated()
	}
	for o.Stride > s.Stride {
		*s = *s.decimated()
	}
	if len(s.TimesNS) != len(o.TimesNS) {
		panic(fmt.Sprintf("metrics: merging series with misaligned lengths %d and %d",
			len(s.TimesNS), len(o.TimesNS)))
	}
	for i, t := range o.TimesNS {
		if s.TimesNS[i] != t {
			panic(fmt.Sprintf("metrics: merging series with misaligned timestamps at %d: %d vs %d",
				i, s.TimesNS[i], t))
		}
	}
	for name, oc := range o.Series {
		cur, ok := s.Series[name]
		if !ok {
			s.Series[name] = SeriesColumn{Merge: oc.Merge, Vals: append([]float64(nil), oc.Vals...)}
			continue
		}
		if cur.Merge != oc.Merge {
			panic(fmt.Sprintf("metrics: merging series column %q with mismatched kinds %q and %q",
				name, cur.Merge, oc.Merge))
		}
		for i := range cur.Vals {
			switch cur.Merge {
			case MergeSum:
				cur.Vals[i] += oc.Vals[i]
			case MergeMax:
				if oc.Vals[i] > cur.Vals[i] {
					cur.Vals[i] = oc.Vals[i]
				}
			case MergeMin:
				if oc.Vals[i] < cur.Vals[i] {
					cur.Vals[i] = oc.Vals[i]
				}
			}
		}
		s.Series[name] = cur
	}
}

// decimated returns a copy with even-indexed points kept and the stride
// doubled — the snapshot-level mirror of SeriesSet.decimate.
func (s *SeriesSnapshot) decimated() *SeriesSnapshot {
	keep := (len(s.TimesNS) + 1) / 2
	out := &SeriesSnapshot{
		IntervalNS: s.IntervalNS,
		Capacity:   s.Capacity,
		Stride:     s.Stride * 2,
		TimesNS:    make([]int64, keep),
		Series:     make(map[string]SeriesColumn, len(s.Series)),
	}
	for i := 0; i < keep; i++ {
		out.TimesNS[i] = s.TimesNS[2*i]
	}
	for name, c := range s.Series {
		vals := make([]float64, keep)
		for i := 0; i < keep; i++ {
			vals[i] = c.Vals[2*i]
		}
		out.Series[name] = SeriesColumn{Merge: c.Merge, Vals: vals}
	}
	return out
}

// WriteJSON writes the snapshot as indented JSON, byte-stable for equal
// snapshots.
func (s *SeriesSnapshot) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}
