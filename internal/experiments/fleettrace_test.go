package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"softtimers/internal/sim"
)

// FleetTraceExport, behind sttrace's flows modes: a two-client fleet yields
// spans and a Chrome trace that parses.
func TestFleetTraceExport(t *testing.T) {
	spans, chrome := FleetTraceExport(SmokeScale(), 2, true)
	if len(spans) == 0 {
		t.Fatal("no spans exported")
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &doc); err != nil {
		t.Fatalf("Chrome trace does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("Chrome trace has no events")
	}
}

// The decomposition claim itself: every traced request/response pair's
// per-hop sum telescopes to a path latency the client's observed TTFB
// covers, with a non-negative residue under the tolerance.
func TestFleetTraceDecomposition(t *testing.T) {
	sc := tinyScale()
	r := runFleetTrace(sc, 421, 16, false)
	row := r.row
	if row.SampledFlows == 0 || row.Spans == 0 {
		t.Fatalf("nothing traced: %+v", row)
	}
	if row.Decomposed == 0 {
		t.Fatalf("no request/response pairs decomposed: %+v", row)
	}
	if !row.DecompOK {
		t.Fatalf("decomposition failed: %+v", row)
	}
	if row.ReqUS <= 0 || row.RespUS <= 0 || row.PathUS <= 0 {
		t.Fatalf("degenerate decomposition means: %+v", row)
	}
	if row.TTFBUS < row.PathUS {
		t.Fatalf("traced path %.1fus exceeds observed TTFB %.1fus", row.PathUS, row.TTFBUS)
	}
	if row.GapUS < 0 || row.MaxGapUS > fleetTraceGapTolUS {
		t.Fatalf("client residue out of bounds: mean %.1fus max %.1fus", row.GapUS, row.MaxGapUS)
	}
	// Spans carry real multi-hop paths: a request crosses at least NIC tx,
	// two links, a leaf forward, the ring and the pickup.
	if row.Hops < row.Spans*2 {
		t.Fatalf("%d hops across %d spans — spans are degenerate", row.Hops, row.Spans)
	}
	// The series rode along: fleet merge plus the server's own columns.
	for _, key := range []string{"clients016.fleet", "clients016.host.server"} {
		s := r.series[key]
		if s == nil || len(s.TimesNS) == 0 {
			t.Fatalf("series %q missing or empty", key)
		}
	}
}

// The -progress callback changes batching (the measure window runs in
// chunks so there is something to report) but must not change a single
// simulated byte, and must fire with monotone virtual time.
func TestFleetTraceProgressCallbackIsInert(t *testing.T) {
	sc := tinyScale()
	sc.Shards = 2
	ref := fleetTraceBytes(t, runFleetTrace(sc, 421, 16, true))
	calls := 0
	var lastVirtual sim.Time
	sc.Progress = func(label string, virtual sim.Time, fired uint64) {
		calls++
		if virtual < lastVirtual {
			t.Errorf("progress virtual time went backwards: %v after %v", virtual, lastVirtual)
		}
		lastVirtual = virtual
		if label == "" || fired == 0 {
			t.Errorf("degenerate progress report: label %q fired %d", label, fired)
		}
	}
	got := fleetTraceBytes(t, runFleetTrace(sc, 421, 16, true))
	for label, b := range got {
		if !bytes.Equal(b, ref[label]) {
			t.Errorf("%s diverged under -progress (%d vs %d bytes)", label, len(b), len(ref[label]))
		}
	}
	if calls < 8 {
		t.Errorf("progress fired %d times, want at least the 8 measure chunks", calls)
	}
}
