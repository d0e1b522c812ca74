package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"
)

// scenarioTelemetryGolden holds the digests of the faulted rigs' rendered
// tables and telemetry at SmokeScale, seed 1, one worker: the starvation
// and loss sweeps and the hostile scenario. They are the only rigs whose
// snapshots carry the faults.* counters and the lossy links'
// lost/duplicated/reordered counters, which the clean goldens never see.
var scenarioTelemetryGolden = map[string]string{
	"degradation-starve": "bc5dd2245886bc2a35d55e03a3704db93aef6f59a072e0ab2b6fe829dab8364a",
	"degradation-loss":   "fca096bfc7b1f3c370fff99af6200a9f585444ba76353799878e9eb7d98965da",
	"scenario hostile":   "bcc5bd36c99111a2723aab0c810e9ffb7187c5d78517151a162ca52e190b26d8",
}

// TestScenarioTelemetryGolden pins the faulted telemetry byte for byte,
// hashing name, rendered table and telemetry JSON as
// TestPaperDriversGolden does.
func TestScenarioTelemetryGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the degradation sweeps and the hostile scenario")
	}
	sc := SmokeScale()
	sc.Seed, sc.Workers = 1, 1
	tabs := map[string]*Table{"scenario hostile": RunScenario(sc, "hostile")}
	for _, name := range []string{"degradation-starve", "degradation-loss"} {
		run, ok := Lookup(name)
		if !ok {
			t.Fatalf("driver %q not registered", name)
		}
		tabs[name] = run(sc)
	}
	for name, tab := range tabs {
		h := sha256.New()
		io.WriteString(h, name+"\n"+tab.Render())
		if err := tab.Telemetry.WriteJSON(h); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != scenarioTelemetryGolden[name] {
			t.Errorf("%s digest = %s, want %s", name, got, scenarioTelemetryGolden[name])
		}
	}
}
