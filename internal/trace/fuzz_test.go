package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"softtimers/internal/sim"
)

// parseKind inverts Kind.String for non-negative kinds. No non-test code
// parses kind names; the round trip pins that String names every
// non-negative kind distinctly.
func parseKind(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	var n int
	if _, err := fmt.Sscanf(s, "custom+%d", &n); err == nil && n > 0 {
		return Custom + Kind(n), true
	}
	return 0, false
}

// FuzzKindRoundTrip checks the Kind naming round trip from both ends:
// every name String produces must parse back to the same kind, and any
// string parseKind accepts must survive a String/parseKind cycle.
func FuzzKindRoundTrip(f *testing.F) {
	for k := Kind(0); k < Custom+4; k++ {
		f.Add(k.String(), int64(k))
	}
	f.Add("bogus", int64(-1))
	f.Add("custom+", int64(1<<40))
	f.Add("custom+007", int64(0))
	f.Fuzz(func(t *testing.T, s string, n int64) {
		if n >= 0 && n < 1<<20 {
			k := Kind(n)
			back, ok := parseKind(k.String())
			if !ok || back != k {
				t.Fatalf("parseKind(%q) = (%v, %v), want (%v, true)", k.String(), back, ok, k)
			}
		}
		if k, ok := parseKind(s); ok {
			if k < 0 {
				t.Fatalf("parseKind(%q) produced negative kind %d", s, k)
			}
			back, ok2 := parseKind(k.String())
			if !ok2 || back != k {
				t.Fatalf("accepted %q as %v, but %q does not round-trip (got %v, %v)",
					s, k, k.String(), back, ok2)
			}
		}
	})
}

// FuzzChromeWriter feeds arbitrary event streams (including ring-buffer
// wrap, empty labels, raw-byte labels and application kinds) through
// WriteChrome and checks the structural contract: the output is valid
// JSON, metadata records come first, per-track timestamps are monotone
// nondecreasing, and the cpu track's begin/end slices stay balanced.
func FuzzChromeWriter(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 2, 0xff, 3, 1, 0, 4, 5, 6, 7})
	f.Add(bytes.Repeat([]byte{1, 2, 3, 4, 5}, 40)) // forces ring wrap
	f.Fuzz(func(t *testing.T, data []byte) {
		b := New(32)
		var at sim.Time
		for i := 0; i+4 < len(data); i += 5 {
			at += sim.Time(int(data[i])<<8 | int(data[i+1]))
			kind := Kind(data[i+2] % 12) // through custom+4
			var label string
			switch data[i+3] % 4 {
			case 1:
				label = "p"
			case 2:
				label = string(data[i+3 : i+5]) // arbitrary bytes, maybe invalid UTF-8
			}
			b.Add(at, kind, label, int64(int8(data[i+4])))
		}

		var buf bytes.Buffer
		if err := b.WriteChrome(&buf); err != nil {
			t.Fatalf("WriteChrome: %v", err)
		}
		if !json.Valid(buf.Bytes()) {
			t.Fatalf("output is not valid JSON:\n%s", buf.Bytes())
		}
		var out struct {
			TraceEvents []struct {
				Ph  string  `json:"ph"`
				TS  float64 `json:"ts"`
				TID int     `json:"tid"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatalf("decoding own output: %v", err)
		}

		lastTS := map[int]float64{}
		depth := 0
		inBody := false
		for i, e := range out.TraceEvents {
			if e.Ph == "M" {
				if inBody {
					t.Fatalf("event %d: metadata after body events", i)
				}
				continue
			}
			inBody = true
			if prev, ok := lastTS[e.TID]; ok && e.TS < prev {
				t.Fatalf("event %d: tid %d ts %v before %v", i, e.TID, e.TS, prev)
			}
			lastTS[e.TID] = e.TS
			if e.TID == 0 {
				switch e.Ph {
				case "B":
					depth++
					if depth > 1 {
						t.Fatalf("event %d: nested cpu slice", i)
					}
				case "E":
					depth--
					if depth < 0 {
						t.Fatalf("event %d: cpu slice end without begin", i)
					}
				}
			}
		}
		if depth != 0 {
			t.Fatalf("cpu track left %d slice(s) open", depth)
		}
	})
}
