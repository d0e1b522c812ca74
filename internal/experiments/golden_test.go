package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"
)

// paperDriversGolden is the digest of the 14 paper drivers' rendered
// tables and telemetry at SmokeScale, seed 1, one worker. Any change that
// moves an RNG draw or reorders a scheduled event in a paper rig moves it.
const paperDriversGolden = "8083d0b7e0029095bbca3fecdc8ff193ad3a534d1437faeb36f2ffb350c08608"

// TestPaperDriversGolden pins the paper drivers' output byte for byte:
// each driver's name, rendered table and telemetry JSON are hashed in
// Order, the same recipe the repository benchmark digests paper-full with.
// Performance work on the request, pacing and polling paths must leave it
// unchanged.
func TestPaperDriversGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 14 paper drivers")
	}
	sc := SmokeScale()
	sc.Seed, sc.Workers = 1, 1
	h := sha256.New()
	for _, name := range Order[:14] {
		run, ok := Lookup(name)
		if !ok {
			t.Fatalf("driver %q not registered", name)
		}
		tab := run(sc)
		io.WriteString(h, name+"\n"+tab.Render())
		if tab.Telemetry != nil {
			if err := tab.Telemetry.WriteJSON(h); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != paperDriversGolden {
		t.Errorf("paper drivers digest = %s, want %s", got, paperDriversGolden)
	}
}
