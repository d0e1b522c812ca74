package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public API, made from the
// benchmark's own code.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a top-level span
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"` // since the recorder started
	EndNS    int64  `json:"end_ns"`
	SelfNS   int64  `json:"self_ns"` // duration minus child-span coverage
}

func (s *span) seconds() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// recorder keeps spans in memory. Spans nest by call structure: a span
// begun while another is open becomes its child. Every run records spans
// (a few hundred clock reads); only the traced run writes them out.
type recorder struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int // indexes into spans
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

// do runs fn inside a span named name and returns its duration in seconds.
func (r *recorder) do(name string, fn func()) float64 {
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	i := len(r.spans)
	r.spans = append(r.spans, span{
		ID: i + 1, Parent: parent, Name: name, Workload: r.workload,
		StartNS: int64(time.Since(r.t0)),
	})
	r.open = append(r.open, i)
	fn()
	r.open = r.open[:len(r.open)-1]
	r.spans[i].EndNS = int64(time.Since(r.t0))
	return r.spans[i].seconds()
}

// seconds returns the durations of every span named name, in start order.
func (r *recorder) seconds(name string) []float64 {
	var out []float64
	for i := range r.spans {
		if r.spans[i].Name == name {
			out = append(out, r.spans[i].seconds())
		}
	}
	return out
}

// total returns the summed duration of every span named name.
func (r *recorder) total(name string) float64 {
	var sum float64
	for _, v := range r.seconds(name) {
		sum += v
	}
	return sum
}

// computeSelf fills each span's self time. Children of one parent run one
// after another on the benchmark goroutine, so their coverage is the sum
// of their durations.
func (r *recorder) computeSelf() {
	for i := range r.spans {
		r.spans[i].SelfNS = r.spans[i].EndNS - r.spans[i].StartNS
	}
	for i := range r.spans {
		if p := r.spans[i].Parent; p > 0 {
			r.spans[p-1].SelfNS -= r.spans[i].EndNS - r.spans[i].StartNS
		}
	}
}

// traceFile is the layout of spans.json.
type traceFile struct {
	Workload string        `json:"workload"`
	Spans    []span        `json:"spans"`
	Trigger  *triggerStats `json:"trigger_sink,omitempty"`
}

// write stores the spans, with self times, as dir/spans.json.
func (r *recorder) write(dir string, trig *triggerStats) error {
	r.computeSelf()
	buf, err := json.MarshalIndent(traceFile{Workload: r.workload, Spans: r.spans, Trigger: trig}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans.json"), append(buf, '\n'), 0o644)
}
