package experiments

// Fleet-trace experiment: the hierarchical fleet instrumented end to end
// with flow-level span tracing and virtual-time series. 1-in-64 of client
// connections are sampled (per-host private RNG stream, so the sampled
// set is shard- and worker-invariant); every packet of a sampled flow
// records per-hop virtual timestamps — NIC tx, link serialization and
// arrival, cut-through leaf/spine forwards, NIC rx ring and protocol
// pickup — into pooled spans finished when the packet's arena refcount
// drops to zero.
//
// The claim under test: the per-hop decomposition is complete. For each
// traced request/response pair, the request span (client NIC tx → server
// protocol pickup), server turnaround, and response-header span telescope
// into a path latency that must account for the client's independently
// observed time-to-first-byte up to a small client-side residue (the
// sendto syscall plus kernel transmit chain, which run before the first
// recorded hop). A tracing layer whose hops went missing, double-counted,
// or landed on the wrong virtual instant breaks the telescoping sum.

import (
	"fmt"

	"softtimers/internal/flowtrace"
	"softtimers/internal/httpserv"
	"softtimers/internal/metrics"
	"softtimers/internal/sim"
	"softtimers/internal/topology"
)

// fleetTraceCounts is the default client-count sweep: one mostly-intra-leaf
// shape and one where cross-leaf spine paths dominate.
var fleetTraceCounts = []int{8, 32}

// Flow-trace sampling parameters: 1-in-64 flows, capped per host so span
// memory stays bounded on long runs, with the cap high enough that the
// quick scales never hit it (a hit would be deterministic anyway).
const (
	fleetTraceRate     = 64
	fleetTraceMaxFlows = 256
)

// fleetTraceGapTolUS bounds the client-side residue: observed TTFB minus
// the traced path may include the sendto syscall (10 µs), the kernel
// transmit chain ahead of the first recorded hop, and any interrupt
// processing that preempts them on the client — but never milliseconds.
const fleetTraceGapTolUS = 1000.0

// FleetTraceRow is one fleet size's trace measurements. Latency columns
// are means over decomposed request/response pairs, in µs.
type FleetTraceRow struct {
	Hosts        int
	Leaves       int
	SampledFlows int64
	Spans        int64 // finished spans
	Hops         int64
	Decomposed   int // request/response pairs fully decomposed
	ReqUS        float64
	TurnUS       float64
	RespUS       float64
	PathUS       float64 // req + turn + resp (telescoped end to end)
	TTFBUS       float64 // client-observed time to first byte
	GapUS        float64 // mean TTFB - path (client-side residue)
	MaxGapUS     float64
	DecompOK     bool    // hops monotone, gap in [0, tolerance] on every pair
	WallMS       float64 `json:"-"`
}

// FleetTraceResult is the fleet-trace sweep.
type FleetTraceResult struct {
	Rows      []FleetTraceRow
	Shards    int
	Telemetry *metrics.Snapshot
	Series    map[string]*metrics.SeriesSnapshot
}

// fleetTraceSeriesIvl and Cap set the per-host series cadence and ring
// capacity: ~1 ms ticks over the quick-scale windows decimate once or
// twice, exercising the stride logic without drowning the JSON.
const fleetTraceSeriesCap = 32

var fleetTraceSeriesIvl = sim.Millisecond

// fleetTraceRun is one measured fleet's complete observability output.
type fleetTraceRun struct {
	row    FleetTraceRow
	snap   *metrics.Snapshot
	series map[string]*metrics.SeriesSnapshot
	spans  []flowtrace.SpanData
	chrome []byte // merged Chrome trace with flow arrows, when requested
}

// runFleetTrace builds the hierarchical fleet with flow tracing and series
// enabled, measures it, and decomposes the traced flows. The chrome bytes,
// when requested (withChrome), are the merged Chrome trace with flow
// arrows — the byte-equivalence witness for the determinism tests.
func runFleetTrace(sc Scale, salt uint64, n int, withChrome bool) fleetTraceRun {
	traceCap := 0
	if withChrome {
		traceCap = 256
	}
	var ft *topology.FlowTrace
	r, m := runFleet(sc, salt, fleetCfg{
		label:    fmt.Sprintf("fleet-trace n=%d", n),
		clients:  n,
		nameFmt:  "client%03d",
		leaves:   hierLeaves(n),
		churn:    3,
		traceCap: traceCap,
		// Flow sampling on every client (the server inherits decisions
		// from traced SYNs) and the per-host virtual-time series.
		wire: func(r *fleetRig) {
			ft = r.t.EnableFlowTrace(fleetTraceRate, fleetTraceMaxFlows)
			r.srv.FlowTrace = ft.Sampler("server")
			for _, ch := range r.clients {
				ch.FlowTrace = ft.Sampler(ch.H.Name)
			}
			r.t.EnableSeries(fleetTraceSeriesIvl, fleetTraceSeriesCap)
		},
	})

	row := FleetTraceRow{
		Hosts:        n,
		Leaves:       hierLeaves(n),
		SampledFlows: ft.SampledFlows(),
		Spans:        ft.Finished(),
		Hops:         ft.HopCount(),
		WallMS:       m.wallMS,
	}
	spans := ft.Spans()
	decomposeFlows(&row, spans, r.clients)

	series := make(map[string]*metrics.SeriesSnapshot)
	for key, s := range r.t.SeriesSnapshots() {
		// Keep the fleet merge and the server's own series; per-client
		// series are asserted in unit tests, not exported (a 1024-host row
		// would drown the JSON).
		if key == "fleet" || key == "host.server" {
			series[fmt.Sprintf("clients%03d.%s", n, key)] = s
		}
	}
	return fleetTraceRun{row: row, snap: m.snap, series: series, spans: spans, chrome: m.chrome}
}

// FleetTraceExport drives one traced hierarchical fleet of n clients and
// returns the finished flow spans plus, when withChrome is set, the merged
// Chrome trace with flow arrows — the payloads behind sttrace -mode flows.
// Both are byte-stable at any shard or worker count.
func FleetTraceExport(sc Scale, n int, withChrome bool) ([]flowtrace.SpanData, []byte) {
	r := runFleetTrace(sc, 500, n, withChrome)
	return r.spans, r.chrome
}

// decomposeFlows pairs each traced flow's request span with its
// response-header span (seq 0 data segment), telescopes the per-hop
// decomposition, and checks it against the client's observed TTFB.
func decomposeFlows(row *FleetTraceRow, spans []flowtrace.SpanData, chs []*httpserv.ClientHost) {
	req := make(map[int]flowtrace.SpanData)
	hdr := make(map[int]flowtrace.SpanData)
	row.DecompOK = true
	for _, d := range spans {
		// Any span with out-of-order hop timestamps is a tracing bug.
		for i := 1; i < len(d.Hops); i++ {
			if d.Hops[i].AtNS < d.Hops[i-1].AtNS {
				row.DecompOK = false
			}
		}
		switch {
		case d.Kind == "request":
			req[d.Flow] = d
		case d.Kind == "data" && d.Seq == 0:
			if _, dup := hdr[d.Flow]; !dup {
				hdr[d.Flow] = d
			}
		}
	}
	var sumReq, sumTurn, sumResp, sumPath, sumTTFB, sumGap float64
	for _, ch := range chs {
		for flow, ttfb := range ch.TTFB {
			rq, ok1 := req[flow]
			hd, ok2 := hdr[flow]
			if !ok1 || !ok2 || len(rq.Hops) < 2 || len(hd.Hops) < 2 {
				continue
			}
			reqNS := rq.Hops[len(rq.Hops)-1].AtNS - rq.Hops[0].AtNS
			turnNS := hd.Hops[0].AtNS - rq.Hops[len(rq.Hops)-1].AtNS
			respNS := hd.Hops[len(hd.Hops)-1].AtNS - hd.Hops[0].AtNS
			pathNS := reqNS + turnNS + respNS
			gapUS := float64(int64(ttfb)-pathNS) / 1000
			if reqNS < 0 || turnNS < 0 || respNS < 0 {
				row.DecompOK = false
			}
			// The traced path must account for the observed TTFB: the
			// residue is client-side pre-trace work, never negative and
			// never large.
			if gapUS < 0 || gapUS > fleetTraceGapTolUS {
				row.DecompOK = false
			}
			if gapUS > row.MaxGapUS {
				row.MaxGapUS = gapUS
			}
			row.Decomposed++
			sumReq += float64(reqNS) / 1000
			sumTurn += float64(turnNS) / 1000
			sumResp += float64(respNS) / 1000
			sumPath += float64(pathNS) / 1000
			sumTTFB += ttfb.Micros()
			sumGap += gapUS
		}
	}
	if row.Decomposed > 0 {
		n := float64(row.Decomposed)
		row.ReqUS = sumReq / n
		row.TurnUS = sumTurn / n
		row.RespUS = sumResp / n
		row.PathUS = sumPath / n
		row.TTFBUS = sumTTFB / n
		row.GapUS = sumGap / n
	}
}

// RunFleetTrace sweeps the traced hierarchical fleet. Rows are independent
// simulations, parallel across sc.Workers and sharded across up to
// sc.Shards engines; tables, telemetry, series and traces are
// byte-identical at any setting.
func RunFleetTrace(sc Scale) *FleetTraceResult {
	counts := sc.FleetCounts
	if counts == nil {
		counts = fleetTraceCounts
	}
	rows := make([]FleetTraceRow, len(counts))
	snaps := make([]*metrics.Snapshot, len(counts))
	series := make([]map[string]*metrics.SeriesSnapshot, len(counts))
	forEach(sc.Workers, len(counts), func(i int) {
		r := runFleetTrace(sc, 500+uint64(i), counts[i], false)
		rows[i], snaps[i], series[i] = r.row, r.snap, r.series
	})
	merged := make(map[string]*metrics.SeriesSnapshot)
	for _, m := range series {
		for k, s := range m {
			merged[k] = s
		}
	}
	return &FleetTraceResult{
		Rows: rows, Shards: sc.Shards,
		Telemetry: mergeTelemetry(snaps), Series: merged,
	}
}

// Table renders the fleet-trace sweep with its per-hop latency breakdown.
func (r *FleetTraceResult) Table() *Table {
	t := &Table{
		Title: "Fleet trace — flow spans and per-hop latency decomposition",
		Columns: []string{"clients", "leaves", "flows", "spans", "hops", "pairs",
			"req (us)", "turn (us)", "resp (us)", "path (us)", "ttfb (us)",
			"gap (us)", "decomp ok"},
		Metrics: map[string]float64{},
	}
	for _, row := range r.Rows {
		ok := "yes"
		if !row.DecompOK {
			ok = "NO"
		}
		t.Rows = append(t.Rows, []string{
			f0(float64(row.Hosts)), f0(float64(row.Leaves)),
			f0(float64(row.SampledFlows)), f0(float64(row.Spans)), f0(float64(row.Hops)),
			f0(float64(row.Decomposed)),
			f1(row.ReqUS), f1(row.TurnUS), f1(row.RespUS), f1(row.PathUS),
			f1(row.TTFBUS), f1(row.GapUS), ok,
		})
		key := fmt.Sprintf("fleettrace_%d", row.Hosts)
		t.Metrics[key+"_sampled_flows"] = float64(row.SampledFlows)
		t.Metrics[key+"_spans"] = float64(row.Spans)
		t.Metrics[key+"_decomposed"] = float64(row.Decomposed)
		t.Metrics[key+"_path_us"] = row.PathUS
		t.Metrics[key+"_ttfb_us"] = row.TTFBUS
		t.Metrics[key+"_gap_us"] = row.GapUS
		t.Metrics[key+"_wall_ms"] = row.WallMS
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("1-in-%d client flows sampled from per-host private RNG streams; spans record per-hop virtual timestamps across NICs, links, leaf and spine forwards", fleetTraceRate),
		"decomposition (asserted in tests): request span + server turnaround + response-header span telescope to the path latency, and client-observed TTFB exceeds it only by the pre-trace sendto residue",
		"series: per-host virtual-time samples (trigger p50/p99, delay p99, rx/tx, queue depth) merged point-wise into the fleet series; dumped by stbench -series")
	if r.Shards > 1 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"sharded execution: up to %d engines (clamped to the leaf count); spans stitch across shards at round barriers, and spans, series and telemetry stay byte-identical", r.Shards))
	}
	t.Telemetry = r.Telemetry
	t.Series = r.Series
	return t
}
