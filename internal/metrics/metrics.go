// Package metrics is the simulation-wide telemetry registry. A Registry
// belongs to one simulation substrate (one kernel/engine); independent
// simulations on concurrent goroutines each own their registry, which is
// what keeps parallel experiment runs deterministic — snapshots depend only
// on the (seeded, deterministic) simulation state, never on scheduling
// order.
//
// Values reach a snapshot one way: a component keeps its counters, gauges
// and histograms as fields of its own (the kernel, the soft-timer facility,
// pacers, NICs, links, TCP endpoints, fault plans, the emulation server, a
// topology's totals), registers once with Register and, at every Snapshot,
// writes their current values through a Writer under names fixed per
// component type. Updating a value costs an update of a field its owner
// already holds; registering costs one slice entry, however many values
// the component reports.
//
// A name may appear once per snapshot: a name written twice, or under two
// kinds, panics at Snapshot with the name. So does a second component of a
// kind that writes fixed names on the same registry, such as a second pacer
// on one kernel or a second unnamed NIC.
//
// Snapshot produces a deterministic, JSON-serializable view: map keys sort
// on encoding and histogram buckets are emitted as ascending sparse
// [index, count] pairs, so two runs of the same seeded simulation produce
// byte-identical snapshots regardless of worker count or registration
// order. SnapshotInto writes a registry into a snapshot shared with
// others, each name under a prefix, which is how a topology gives every
// host its namespace in one snapshot. Merge folds snapshots from
// independent engines (counters sum, gauges take the maximum, histograms
// add bucket-wise), which is how multi-row experiments aggregate
// per-engine telemetry in a parallelism-independent way.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"softtimers/internal/stats"
)

// Registry is one simulation's list of reporters. It is not safe for
// concurrent use, matching the single-threaded engine it instruments;
// distinct engines own distinct registries.
type Registry struct {
	reporters []Reporter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	// A host's kernel, soft-timer facility, NIC and two links report.
	return &Registry{reporters: make([]Reporter, 0, 8)}
}

// Reporter is a component that keeps its values as fields of its own and
// writes them at snapshot time.
type Reporter interface {
	// Report writes the component's values through w, under names fixed
	// per component type (instances scope theirs with Writer.In).
	Report(w Writer)
}

// Register adds rep to the registry: every later snapshot holds what it
// reports.
func (r *Registry) Register(rep Reporter) {
	r.reporters = append(r.reporters, rep)
}

// Writer is what a Reporter writes through: each value goes into the
// snapshot being taken, under the writer's prefix and scope.
type Writer struct {
	s      *Snapshot
	prefix string // the registry's namespace in s (SnapshotInto)
	skip   string // registry-relative names starting with it are left out
	scope  string // the reporting instance's namespace (In)
}

// In returns a writer whose names go under scope: the instance namespace
// of a component with several instances per registry (nic.<name>.,
// link.<name>., tcp.flow<N>.).
func (w Writer) In(scope string) Writer {
	w.scope += scope
	return w
}

// Counter writes a counter's current value.
func (w Writer) Counter(name string, v int64) {
	if key, ok := w.key(name); ok {
		n := len(w.s.Counters)
		w.s.Counters[key] = v
		_, g := w.s.Gauges[key]
		_, h := w.s.Histograms[key]
		once(key, len(w.s.Counters) > n && !g && !h)
	}
}

// Gauge writes a point-in-time value; its high-water mark in the snapshot
// is the value itself.
func (w Writer) Gauge(name string, v int64) { w.GaugeMax(name, v, v) }

// GaugeMax writes a point-in-time value and the high-water mark its owner
// keeps beside it.
func (w Writer) GaugeMax(name string, v, hwm int64) {
	if key, ok := w.key(name); ok {
		n := len(w.s.Gauges)
		w.s.Gauges[key] = GaugeSnapshot{Value: v, Max: hwm}
		_, c := w.s.Counters[key]
		_, h := w.s.Histograms[key]
		once(key, len(w.s.Gauges) > n && !c && !h)
	}
}

// Histogram writes a histogram the reporter keeps. The snapshot shares its
// bucket array (stats.Histogram.Share), which the histogram copies before
// it next writes.
func (w Writer) Histogram(name string, hist *stats.Histogram) {
	if key, ok := w.key(name); ok {
		n := len(w.s.Histograms)
		w.s.Histograms[key] = snapshotHistogram(hist)
		_, c := w.s.Counters[key]
		_, g := w.s.Gauges[key]
		once(key, len(w.s.Histograms) > n && !c && !g)
	}
}

// key builds the snapshot key for name, reporting false for a name the
// writer leaves out.
func (w Writer) key(name string) (string, bool) {
	if w.skipped(name) {
		return "", false
	}
	return w.prefix + w.scope + name, true
}

// once panics unless key was new to the snapshot: each name holds one
// value of one kind.
func once(key string, fresh bool) {
	if !fresh {
		panic(fmt.Sprintf("metrics: %q reported twice", key))
	}
}

// skipped reports whether the registry-relative name, scope + name,
// starts with w.skip.
func (w Writer) skipped(name string) bool {
	switch {
	case w.skip == "":
		return false
	case len(w.skip) <= len(w.scope):
		return strings.HasPrefix(w.scope, w.skip)
	default:
		return strings.HasPrefix(w.skip, w.scope) && strings.HasPrefix(name, w.skip[len(w.scope):])
	}
}

// BucketCount is one non-empty histogram bucket: the bucket index and its
// observation count, as a snapshot's JSON form lists them.
type BucketCount struct {
	Index int
	Count int64
}

// Buckets is a histogram snapshot's bucket counts. An unmerged snapshot
// shares its histogram's array (stats.Histogram.Share), which the
// histogram copies before it next writes; a merged one holds an array of
// its own. In JSON it is the ascending [index, count] pairs of the
// non-empty buckets, or null when every bucket is empty.
type Buckets struct {
	stats.Counts
}

// NonEmpty returns the non-empty buckets in ascending index order, nil
// when there are none.
func (b Buckets) NonEmpty() []BucketCount {
	n := 0
	for i := range b.Len() {
		if b.At(i) != 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]BucketCount, 0, n)
	for i := range b.Len() {
		if c := b.At(i); c != 0 {
			out = append(out, BucketCount{Index: i, Count: c})
		}
	}
	return out
}

// MarshalJSON encodes the non-empty buckets as [[index,count],...], or
// null when there are none.
func (b Buckets) MarshalJSON() ([]byte, error) {
	pairs := b.NonEmpty()
	if pairs == nil {
		return []byte("null"), nil
	}
	out := make([]byte, 0, 16*len(pairs))
	for i, p := range pairs {
		if i == 0 {
			out = append(out, '[', '[')
		} else {
			out = append(out, ',', '[')
		}
		out = strconv.AppendInt(out, int64(p.Index), 10)
		out = append(out, ',')
		out = strconv.AppendInt(out, p.Count, 10)
		out = append(out, ']')
	}
	return append(out, ']'), nil
}

// maxDecodedBucket bounds the bucket indices UnmarshalJSON accepts: it
// stores every bucket up to the last, so an index is memory. The widest
// histogram in the simulator has 2,000 buckets.
const maxDecodedBucket = 1 << 24

// UnmarshalJSON decodes the [[index,count],...] form. Indices must be
// non-negative, strictly ascending and below 2^24, and counts positive.
func (b *Buckets) UnmarshalJSON(data []byte) error {
	var pairs [][2]int64
	if err := json.Unmarshal(data, &pairs); err != nil {
		return err
	}
	prev := int64(-1)
	for _, p := range pairs {
		switch {
		case p[0] <= prev:
			return fmt.Errorf("metrics: bucket index %d not above %d", p[0], prev)
		case p[0] >= maxDecodedBucket:
			return fmt.Errorf("metrics: bucket index %d at or past %d", p[0], maxDecodedBucket)
		case p[1] <= 0:
			return fmt.Errorf("metrics: bucket %d has non-positive count %d", p[0], p[1])
		}
		prev = p[0]
	}
	if len(pairs) == 0 {
		*b = Buckets{}
		return nil
	}
	counts := make([]int64, prev+1)
	for _, p := range pairs {
		counts[p[0]] = p[1]
	}
	*b = Buckets{stats.NewCounts(counts)}
	return nil
}

// HistogramSnapshot is one histogram's state: fixed bucket width, total
// observation count, running sum, overflow count and bucket counts.
type HistogramSnapshot struct {
	Width    float64 `json:"width"`
	Count    int64   `json:"count"`
	Sum      float64 `json:"sum"`
	Overflow int64   `json:"overflow"`
	Buckets  Buckets `json:"buckets"`
}

// GaugeSnapshot is one gauge's state.
type GaugeSnapshot struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// Snapshot is a registry's full state at one instant. JSON encoding is
// deterministic: map keys sort, buckets are ascending.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]GaugeSnapshot     `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures what the registry's reporters write. The registry
// keeps running; snapshots are independent copies.
func (r *Registry) Snapshot() *Snapshot {
	s := NewSnapshot()
	r.SnapshotInto(s, "", "")
	return s
}

// SnapshotInto writes the registry's current state into s with every name
// under prefix, leaving out the names that start with skip (none when skip
// is empty). A topology writes each host's registry into its one snapshot
// this way, under host.<name>., without its engine-level sim.* names.
// A name already in s panics.
func (r *Registry) SnapshotInto(s *Snapshot, prefix, skip string) {
	w := Writer{s: s, prefix: prefix, skip: skip}
	for _, rep := range r.reporters {
		rep.Report(w)
	}
}

func snapshotHistogram(h *stats.Histogram) HistogramSnapshot {
	return HistogramSnapshot{
		Width:    h.Width(),
		Count:    h.N(),
		Sum:      h.Sum(),
		Overflow: h.Overflow(),
		Buckets:  Buckets{h.Share()},
	}
}

// Merge folds other into s: counters sum, gauge values and high-water
// marks take the maximum, histograms add bucket-wise (widths must match;
// mismatched widths panic — they indicate two different instruments
// sharing a name). Merging per-engine snapshots in a fixed order yields
// the same result at any worker count, since each input is itself
// deterministic.
func (s *Snapshot) Merge(other *Snapshot) {
	if other == nil {
		return
	}
	for name, v := range other.Counters {
		s.Counters[name] += v
	}
	for name, g := range other.Gauges {
		cur, ok := s.Gauges[name]
		if !ok {
			// First sighting: adopt as-is. Maxing against the zero-value
			// GaugeSnapshot would silently clamp negative gauges to 0.
			s.Gauges[name] = g
			continue
		}
		if g.Value > cur.Value {
			cur.Value = g.Value
		}
		if g.Max > cur.Max {
			cur.Max = g.Max
		}
		s.Gauges[name] = cur
	}
	for name, h := range other.Histograms {
		cur, ok := s.Histograms[name]
		if !ok {
			s.Histograms[name] = h
			continue
		}
		if cur.Width != h.Width {
			panic(fmt.Sprintf("metrics: merging histogram %q with mismatched widths %g and %g",
				name, cur.Width, h.Width))
		}
		s.Histograms[name] = mergeHistogram(cur, h)
	}
}

// mergeHistogram adds b into a. Their bucket arrays may be shared with
// live histograms or other snapshots, so the sum goes into a new array.
func mergeHistogram(a, b HistogramSnapshot) HistogramSnapshot {
	return HistogramSnapshot{
		Width:    a.Width,
		Count:    a.Count + b.Count,
		Sum:      a.Sum + b.Sum,
		Overflow: a.Overflow + b.Overflow,
		Buckets:  Buckets{stats.SumCounts(a.Buckets.Counts, b.Buckets.Counts)},
	}
}

// NewSnapshot returns an empty snapshot, ready to Merge into.
func NewSnapshot() *Snapshot { return NewSnapshotSized(0, 0, 0) }

// NewSnapshotSized returns an empty snapshot with room for the given
// numbers of counters, gauges and histograms, so a snapshot of many
// registries (SnapshotInto) does not grow its maps through every smaller
// size.
func NewSnapshotSized(counters, gauges, histograms int) *Snapshot {
	return &Snapshot{
		Counters:   make(map[string]int64, counters),
		Gauges:     make(map[string]GaugeSnapshot, gauges),
		Histograms: make(map[string]HistogramSnapshot, histograms),
	}
}

// WriteJSON writes the snapshot as indented JSON. Output is byte-stable
// for equal snapshots (encoding/json sorts map keys).
func (s *Snapshot) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}
