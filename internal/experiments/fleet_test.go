package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
)

// The fleet sweep's central claim: the soft-timer delay bound (hardclock
// period + one measurement tick) holds on every host in the topology —
// the saturated server and every nearly-idle client kernel alike.
func TestFleetDelayBoundHoldsPerHost(t *testing.T) {
	sc := tinyScale()
	for i, n := range []int{1, 4, 16} {
		row, m := fleetScaleRow(sc, 900+uint64(i), n, "", 0)
		snap := m.snap
		if row.Probes == 0 {
			t.Fatalf("n=%d: no probes fired", n)
		}
		if !row.BoundOK || row.WorstDelay > row.BoundUS {
			t.Fatalf("n=%d: worst probe delay %.0fus exceeds bound %.0fus",
				n, row.WorstDelay, row.BoundUS)
		}
		if row.Completed == 0 {
			t.Fatalf("n=%d: no responses completed", n)
		}
		// Per-host namespaces must be present for the server and every
		// client (host.<name>.softtimer.fired proves each machine ran its
		// own facility).
		if snap.Counters["host.server.softtimer.fired"] == 0 {
			t.Fatalf("n=%d: server facility fired no events", n)
		}
		if snap.Counters["host.client00.softtimer.fired"] == 0 {
			t.Fatalf("n=%d: client00 facility fired no events", n)
		}
	}
}

// Fleet rows are independent simulations; the whole sweep must be
// byte-identical regardless of worker count.
func TestFleetScaleDeterministic(t *testing.T) {
	sc := tinyScale()
	render := func(workers int) ([]byte, []byte) {
		s := sc
		s.Workers = workers
		r := RunFleetScale(s)
		tab := r.Table()
		telem, err := json.Marshal(tab.Telemetry)
		if err != nil {
			t.Fatal(err)
		}
		return []byte(tab.Render()), telem
	}
	t1, m1 := render(1)
	t8, m8 := render(8)
	if !bytes.Equal(t1, t8) {
		t.Fatalf("fleet table differs between workers=1 and workers=8:\n%s\n---\n%s", t1, t8)
	}
	if !bytes.Equal(m1, m8) {
		t.Fatal("fleet telemetry differs between workers=1 and workers=8")
	}
}

// More client machines must not raise aggregate throughput once the server
// saturates, and the server must stay the bottleneck (busy ~100%) — the
// experiment is a server-CPU study, not a client benchmark.
func TestFleetServerSaturates(t *testing.T) {
	sc := tinyScale()
	row, _ := fleetScaleRow(sc, 950, 8, "", 0)
	if row.SrvBusy < 0.9 {
		t.Fatalf("server busy fraction %.2f, want saturated (>= 0.9)", row.SrvBusy)
	}
	sum := row.SrvUser + row.SrvKernel + row.SrvIntr + row.SrvSoftIRQ
	if sum > row.SrvBusy+1e-9 {
		t.Fatalf("CPU split components %.3f exceed busy fraction %.3f", sum, row.SrvBusy)
	}
}
