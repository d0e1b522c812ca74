package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"sort"
	"testing"
)

// fleetTelemetryGolden holds the digests of the flat-switch, leaf-spine
// and traced fleet sweeps' rendered tables and telemetry (and, for
// fleet-trace, its virtual-time series) at SmokeScale, seed 1, one worker.
// Every host's hardclock lands on the same instant in these rigs, so the
// engine queue's same-instant batches carry most of their events: this is
// the end-to-end check on that queue's order, whose rule internal/sim
// checks against a linear-scan reference.
var fleetTelemetryGolden = map[string]string{
	"fleet-scale": "22e60de72f685f528305ffd6c0f7f9189c99061e74b69fc8fccf1b7dc9b3c5fb",
	"fleet-hier":  "decc5402a0d83f0332b15e1b4a313c54c3c4bf4a67d5d1dc9e28cf196a9a6bb1",
	"fleet-trace": "2a88c79e13d3649d5684cb3c0b7bec83e1389b7106797c935fd8f83309717dca",
}

// TestFleetTelemetryGolden pins the fleet sweeps byte for byte, hashing
// name, rendered table, telemetry JSON and series JSON (by sorted key) as
// TestPaperDriversGolden does.
func TestFleetTelemetryGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fleet-scale, fleet-hier and fleet-trace sweeps")
	}
	sc := SmokeScale()
	sc.Seed, sc.Workers = 1, 1
	for _, name := range []string{"fleet-scale", "fleet-hier", "fleet-trace"} {
		run, ok := Lookup(name)
		if !ok {
			t.Fatalf("driver %q not registered", name)
		}
		tab := run(sc)
		h := sha256.New()
		io.WriteString(h, name+"\n"+tab.Render())
		if tab.Telemetry != nil {
			if err := tab.Telemetry.WriteJSON(h); err != nil {
				t.Fatal(err)
			}
		}
		keys := make([]string, 0, len(tab.Series))
		for k := range tab.Series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			io.WriteString(h, k+"\n")
			if err := tab.Series[k].WriteJSON(h); err != nil {
				t.Fatal(err)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != fleetTelemetryGolden[name] {
			t.Errorf("%s digest = %s, want %s", name, got, fleetTelemetryGolden[name])
		}
	}
}
