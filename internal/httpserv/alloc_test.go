package httpserv

import (
	"testing"

	"softtimers/internal/nic"
	"softtimers/internal/sim"
)

// TestHTTPRequestZeroAlloc guards the request path: once a saturated
// testbed is warm, serving requests — the worker's script steps, the send
// and its transmission (burst, soft-timer paced or hardware-timer paced),
// the clients' think time and soft-timer network polling — allocates
// nothing. Each case runs a fixed virtual slice per measured call.
func TestHTTPRequestZeroAlloc(t *testing.T) {
	cases := []struct {
		name string
		cfg  TestbedConfig
	}{
		{"flash/burst", TestbedConfig{Server: Config{Kind: Flash}}},
		{"flash/soft-paced", TestbedConfig{Server: Config{Kind: Flash, TxMode: TxSoftPaced}}},
		{"flash/hw-paced", TestbedConfig{Server: Config{Kind: Flash, TxMode: TxHWPaced}}},
		{"apache/burst", TestbedConfig{Server: Config{Kind: Apache}}},
		{"apache/soft-paced", TestbedConfig{Server: Config{Kind: Apache, TxMode: TxSoftPaced}}},
		{"apache/hw-paced", TestbedConfig{Server: Config{Kind: Apache, TxMode: TxHWPaced}}},
		{"flash/soft-poll", TestbedConfig{Server: Config{Kind: Flash}, NIC: nic.Config{Mode: nic.SoftPoll}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Seed = 1
			tb := NewTestbed(tc.cfg)
			tb.Start()
			// Warm every pool and scratch buffer on the path (segments,
			// chains, events, packets, queues, the connection map).
			tb.Net.RunFor(200 * sim.Millisecond)
			const slice = 10 * sim.Millisecond
			before := tb.Server.Completed
			if n := testing.AllocsPerRun(20, func() { tb.Net.RunFor(slice) }); n != 0 {
				t.Fatalf("request path allocates %.0f times per %v slice, want 0", n, slice)
			}
			if tb.Server.Completed == before {
				t.Fatal("no responses completed during the measured slices")
			}
		})
	}
}

// BenchmarkHTTPRequest serves requests on a warm, saturated testbed and
// reports the simulator's wall time and allocations per completed
// response.
func BenchmarkHTTPRequest(b *testing.B) {
	for _, kind := range []Kind{Flash, Apache} {
		name := "flash"
		if kind == Apache {
			name = "apache"
		}
		b.Run(name, func(b *testing.B) {
			tb := NewTestbed(TestbedConfig{Seed: 1, Server: Config{Kind: kind}})
			tb.Start()
			tb.Net.RunFor(200 * sim.Millisecond)
			b.ReportAllocs()
			b.ResetTimer()
			target := tb.Server.Completed + int64(b.N)
			for tb.Server.Completed < target {
				if !tb.Eng.Step() {
					b.Fatal("engine drained")
				}
			}
		})
	}
}
