package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"
)

// fleetTelemetryGolden holds the digests of the flat-switch and leaf-spine
// fleet sweeps' rendered tables and telemetry at SmokeScale, seed 1, one
// worker. Every host's hardclock lands on the same instant in these rigs,
// so the engine queue's same-instant batches carry most of their events:
// this is the end-to-end check on that queue's order, whose rule
// internal/sim checks against a linear-scan reference.
var fleetTelemetryGolden = map[string]string{
	"fleet-scale": "0556c8a3600103128d5bc1682bf459e0722836dcaa4595c7aec095ab1638fa9c",
	"fleet-hier":  "a37abd8cdd7147519e45859b2600dafb785f3d557bb6ae6cd7fbc29d66de4095",
}

// TestFleetTelemetryGolden pins the fleet sweeps byte for byte, hashing
// name, rendered table and telemetry JSON as TestPaperDriversGolden does.
func TestFleetTelemetryGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fleet-scale and fleet-hier sweeps")
	}
	sc := SmokeScale()
	sc.Seed, sc.Workers = 1, 1
	for _, name := range []string{"fleet-scale", "fleet-hier"} {
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
		if got := hex.EncodeToString(h.Sum(nil)); got != fleetTelemetryGolden[name] {
			t.Errorf("%s digest = %s, want %s", name, got, fleetTelemetryGolden[name])
		}
	}
}
