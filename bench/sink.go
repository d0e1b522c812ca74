package main

import (
	"math/bits"
	"time"

	"softtimers/internal/core"
	"softtimers/internal/kernel"
	"softtimers/internal/sim"
	"softtimers/internal/topology"
)

// triggerStats aggregates the wall time spent in the soft-timer facility's
// per-trigger-state check (core.Facility.Trigger). A fleet makes about a
// million checks per virtual second, so calls are aggregated, not traced.
type triggerStats struct {
	Calls int64 `json:"calls"`
	// SumNS is the time spent in outermost calls; a trigger state raised
	// by a handler's own work nests inside one and is counted, not timed.
	SumNS int64 `json:"sum_ns"`
	// Log2NS[i] counts outermost calls lasting [2^(i-1), 2^i) ns.
	Log2NS [64]int64 `json:"log2_ns"`

	depth int
}

// add folds o into s.
func (s *triggerStats) add(o *triggerStats) {
	s.Calls += o.Calls
	s.SumNS += o.SumNS
	for i, n := range o.Log2NS {
		s.Log2NS[i] += n
	}
}

// timingSink is the kernel.TriggerSink the traced run interposes between a
// host's kernel and its facility. It forwards EventBefore too: an
// idle-halting kernel consults its sink through kernel.IdleAdvisor, and a
// sink without it would keep halted CPUs polling and change the run.
type timingSink struct {
	f   *core.Facility
	agg *triggerStats
}

// Trigger implements kernel.TriggerSink.
func (t *timingSink) Trigger(src kernel.Source, now sim.Time) sim.Time {
	a := t.agg
	a.Calls++
	if a.depth > 0 {
		return t.f.Trigger(src, now)
	}
	a.depth++
	t0 := time.Now()
	cost := t.f.Trigger(src, now)
	ns := time.Since(t0)
	a.depth--
	a.SumNS += int64(ns)
	a.Log2NS[bits.Len64(uint64(ns))]++
	return cost
}

// EventBefore implements kernel.IdleAdvisor.
func (t *timingSink) EventBefore(at sim.Time) bool { return t.f.EventBefore(at) }

// installTimingSinks wraps every host's facility in a timingSink. Hosts on
// one shard share an aggregate (one goroutine runs a shard at a time); the
// returned aggregates are per shard.
func installTimingSinks(t *topology.Topology) []*triggerStats {
	n := 1
	if g := t.Group(); g != nil {
		n = g.N()
	}
	aggs := make([]*triggerStats, n)
	for i := range aggs {
		aggs[i] = &triggerStats{}
	}
	for _, h := range t.Hosts() {
		h.K.SetTriggerSink(&timingSink{f: h.F, agg: aggs[t.HostShard(h.Name)]})
	}
	return aggs
}
