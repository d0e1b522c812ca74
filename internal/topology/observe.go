package topology

// Observability wiring: flow-level packet tracing (package flowtrace)
// threaded through every assembled link, NIC, switch and cross-shard
// courier, and virtual-time time series (metrics.SeriesSet) sampled by
// per-host engine events. Both are designed to be shard-count-invariant —
// the exported spans and series are byte-identical whether the topology
// runs on one engine or sharded across several — and to cost nothing
// when disabled (a nil test per hop site, no events).

import (
	"softtimers/internal/flowtrace"
	"softtimers/internal/host"
	"softtimers/internal/metrics"
	"softtimers/internal/netstack"
	"softtimers/internal/sim"
	"softtimers/internal/trace"
)

// FlowTrace is a topology's flow-tracing state: one span Recorder per
// shard (attached to that shard's packet arena, which finishes the spans
// of the packets it carved when their refcounts drop to zero), one
// Sampler per host drawing from the host's private observability RNG
// stream, and the location registry naming every hop site in assembly
// order.
type FlowTrace struct {
	t        *Topology
	loc      *flowtrace.Locations
	recs     []*flowtrace.Recorder
	samplers map[string]*flowtrace.Sampler
}

// EnableFlowTrace wires flow tracing over the assembled topology: 1-in-rate
// flows (rate 0 disables sampling but still wires the recorders, rate 1
// traces every flow), at most maxFlows traced flows per host (0 =
// unlimited). Call after all hosts, switches and fabrics are assembled and
// before Start. Idempotent: repeated calls return the first wiring.
//
// Location ids are assigned in deterministic assembly order — hosts in add
// order (each port's down link, NIC, up link in attach order), then
// switches in add order, then fabric trunks (up, down per leaf) — so
// exported traces name hops identically at any shard count.
func (t *Topology) EnableFlowTrace(rate uint64, maxFlows int) *FlowTrace {
	if t.flow != nil {
		return t.flow
	}
	ft := &FlowTrace{
		t:        t,
		loc:      flowtrace.NewLocations(),
		samplers: make(map[string]*flowtrace.Sampler),
	}
	ft.recs = make([]*flowtrace.Recorder, len(t.arenas))
	for i, a := range t.arenas {
		ft.recs[i] = flowtrace.NewRecorder()
		a.SetFlowRecorder(ft.recs[i])
	}
	for i, h := range t.hosts {
		addr := int32(i + 1)
		for _, p := range t.ports[h.Name] {
			p.Down.TraceLoc = ft.loc.Register("link."+p.Down.Name, addr)
			p.NIC.TraceLoc = ft.loc.Register("nic."+h.Name+"."+p.NIC.Cfg().Name, addr)
			p.Up.TraceLoc = ft.loc.Register("link."+p.Up.Name, addr)
			if c, ok := p.Down.Courier.(*courier); ok {
				c.loc = p.Down.TraceLoc
			}
		}
	}
	for _, sw := range t.switches {
		sw.TraceLoc = ft.loc.Register("switch."+sw.Name, 0)
	}
	for _, f := range t.fabrics {
		for j := range f.Up {
			f.Up[j].TraceLoc = ft.loc.Register("link."+f.Up[j].Name, 0)
			f.Down[j].TraceLoc = ft.loc.Register("link."+f.Down[j].Name, 0)
			if c, ok := f.Up[j].Courier.(*courier); ok {
				c.loc = f.Up[j].TraceLoc
			}
		}
	}
	for i, h := range t.hosts {
		shard := t.shardOf[i]
		base := uint64(i+1) << 32
		ft.samplers[h.Name] = flowtrace.NewSampler(ft.recs[shard], h.TraceRand(), rate, base, maxFlows)
	}
	t.flow = ft
	return ft
}

// FlowTracing returns the flow-trace wiring, or nil when not enabled.
func (t *Topology) FlowTracing() *FlowTrace { return t.flow }

// Sampler returns the named host's flow sampler (nil for unknown hosts).
// Workload code calls SampleFlow once per flow and StartSpan per packet of
// a traced flow.
func (ft *FlowTrace) Sampler(name string) *flowtrace.Sampler { return ft.samplers[name] }

// Spans exports every finished span across all shards, sorted by
// mode-invariant span ID, with hop locations and packet kinds resolved to
// names.
func (ft *FlowTrace) Spans() []flowtrace.SpanData {
	return flowtrace.Export(ft.loc, func(k int) string { return netstack.Kind(k).String() }, ft.recs...)
}

// Started returns spans allocated across all shards.
func (ft *FlowTrace) Started() int64 {
	var n int64
	for _, r := range ft.recs {
		n += r.Started()
	}
	return n
}

// Finished returns spans retired across all shards.
func (ft *FlowTrace) Finished() int64 {
	var n int64
	for _, r := range ft.recs {
		n += r.Finished()
	}
	return n
}

// HopCount returns total recorded hops across finished spans.
func (ft *FlowTrace) HopCount() int64 {
	var n int64
	for _, r := range ft.recs {
		n += r.HopCount()
	}
	return n
}

// DroppedHops returns hops lost to span-capacity overflow.
func (ft *FlowTrace) DroppedHops() int64 {
	var n int64
	for _, r := range ft.recs {
		n += r.DroppedHops()
	}
	return n
}

// SampledFlows returns flows chosen for tracing across all hosts.
func (ft *FlowTrace) SampledFlows() int64 {
	var n int64
	for _, h := range ft.t.hosts {
		n += int64(ft.samplers[h.Name].SampledFlows())
	}
	return n
}

// FlowEvents renders the finished spans as Chrome flow arrows: one
// start/finish pair per span with at least two hops, anchored to the host
// process rows of the first and last hop (pid == host address == Chrome
// proc pid by construction; spans starting or ending at a fabric site fall
// back to the packet's src/dst address). Ordered by span ID, so the
// rendered JSON is mode-invariant.
func (ft *FlowTrace) FlowEvents() []trace.FlowEvent {
	var out []trace.FlowEvent
	for _, d := range ft.Spans() {
		if len(d.Hops) < 2 {
			continue
		}
		startPID := int(ft.loc.HostAddr(d.FirstLoc))
		if startPID == 0 {
			startPID = int(d.Src)
		}
		endPID := int(ft.loc.HostAddr(d.LastLoc))
		if endPID == 0 {
			endPID = int(d.Dst)
		}
		if startPID == 0 || endPID == 0 {
			continue
		}
		out = append(out, trace.FlowEvent{
			Name:     d.Kind,
			ID:       d.ID,
			Cat:      "flowtrace",
			StartTS:  float64(d.Hops[0].AtNS) / float64(sim.Microsecond),
			EndTS:    float64(d.Hops[len(d.Hops)-1].AtNS) / float64(sim.Microsecond),
			StartPID: startPID,
			EndPID:   endPID,
		})
	}
	return out
}

// seriesRec pairs one host with its sampled series.
type seriesRec struct {
	h  *host.Host
	ss *metrics.SeriesSet
}

// EnableSeries wires a virtual-time series recorder on every host: a
// metrics.SeriesSet sampled every interval of virtual time by a
// self-rescheduling event on the host's own engine. Call after all hosts
// are added and before Start (Start schedules the samplers). Each host's
// set carries default columns — trigger-interval p50/p99 and soft-timer
// delay p99 (merge: max, the fleet tail is the worst host's), cumulative
// NIC rx/tx packets and instantaneous NIC queue depth (merge: sum) — and
// setup, when non-nil, runs per host to add custom columns.
//
// Columns must read only host-local simulation state: sampling rides an
// ordinary engine event, and cross-host influence always transits the
// arrival band, so host-local reads at a sampling instant are identical
// at any shard count — which is what makes per-host and merged fleet
// series byte-identical too.
func (t *Topology) EnableSeries(interval sim.Time, capacity int, setup func(h *host.Host, ss *metrics.SeriesSet)) {
	if t.series != nil || interval <= 0 {
		return
	}
	t.seriesIvl = interval
	for _, h := range t.hosts {
		h := h
		ss := metrics.NewSeriesSet(int64(interval), capacity)
		ss.Add("trigger_interval_p50_us", metrics.MergeMax, func() float64 {
			return h.K.Meter().Hist.Quantile(0.5)
		})
		ss.Add("trigger_interval_p99_us", metrics.MergeMax, func() float64 {
			return h.K.Meter().Hist.Quantile(0.99)
		})
		ss.Add("softtimer_delay_p99_us", metrics.MergeMax, func() float64 {
			return h.F.DelayHist.Quantile(0.99)
		})
		ss.Add("rx_packets", metrics.MergeSum, func() float64 {
			var n int64
			for _, nc := range h.NICs {
				n += nc.RxPackets
			}
			return float64(n)
		})
		ss.Add("tx_packets", metrics.MergeSum, func() float64 {
			var n int64
			for _, nc := range h.NICs {
				n += nc.TxPackets
			}
			return float64(n)
		})
		ss.Add("nic_queue_depth", metrics.MergeSum, func() float64 {
			var n int
			for _, nc := range h.NICs {
				n += nc.QueueDepth()
			}
			return float64(n)
		})
		if setup != nil {
			setup(h, ss)
		}
		t.series = append(t.series, &seriesRec{h: h, ss: ss})
	}
}

// startSeries schedules each host's sampler on its engine; called from
// Start. The first tick lands one interval in, then self-reschedules, so
// the tick count — and with it the stride evolution and retained
// timestamps — is a pure function of elapsed virtual time.
func (t *Topology) startSeries() {
	for _, r := range t.series {
		r := r
		eng := r.h.Engine()
		var fire func()
		fire = func() {
			r.ss.Sample(int64(eng.Now()))
			eng.After(t.seriesIvl, fire)
		}
		eng.After(t.seriesIvl, fire)
	}
}

// SeriesSnapshots exports every host's series under "host.<name>" plus a
// point-wise merged "fleet" series, or nil when EnableSeries never ran.
// All hosts sample on one cadence for one virtual span, so the merge needs
// no alignment and the result is deterministic.
func (t *Topology) SeriesSnapshots() map[string]*metrics.SeriesSnapshot {
	if t.series == nil {
		return nil
	}
	out := make(map[string]*metrics.SeriesSnapshot, len(t.series)+1)
	fleet := &metrics.SeriesSnapshot{}
	for _, r := range t.series {
		s := r.ss.Snapshot()
		out["host."+r.h.Name] = s
		fleet.Merge(s)
	}
	out["fleet"] = fleet
	return out
}
