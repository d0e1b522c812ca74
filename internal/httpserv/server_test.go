package httpserv

import (
	"reflect"
	"testing"

	"softtimers/internal/kernel"
	"softtimers/internal/nic"
	"softtimers/internal/sim"
)

func TestKindString(t *testing.T) {
	if Apache.String() != "Apache" || Flash.String() != "Flash" {
		t.Fatal("kind names wrong")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{Kind: Apache}
	c.setDefaults()
	if c.FileBytes != 6144 {
		t.Fatalf("apache defaults: %+v", c)
	}
	if script, n := model(Apache); n != 16 || !reflect.DeepEqual(script, ApacheScript()) {
		t.Fatalf("apache: %d workers; want 16 and Apache's script", n)
	}
	if script, n := model(Flash); n != 1 || !reflect.DeepEqual(script, FlashScript()) {
		t.Fatalf("flash: %d workers; want 1 (event-driven) and Flash's script", n)
	}
}

func TestResponseSegmentation(t *testing.T) {
	tb := NewTestbed(TestbedConfig{Seed: 3, Server: Config{Kind: Apache}})
	// 6144B at MSS 1448 = 5 body segments, plus the header packet.
	if got := tb.Server.segments(); got != 6 {
		t.Fatalf("segments = %d, want 6", got)
	}
	pkts := tb.Server.responsePackets(&conn{flow: 1})
	if len(pkts) != 7 { // 6 data + FIN (non-persistent)
		t.Fatalf("packets = %d, want 7 (6 data + FIN)", len(pkts))
	}
	var payload int
	for _, p := range pkts {
		payload += p.Payload
	}
	if payload != 6144+290 {
		t.Fatalf("total payload = %d, want file + header bytes", payload)
	}
}

func TestPersistentResponseHasNoFin(t *testing.T) {
	tb := NewTestbed(TestbedConfig{Seed: 3, Server: Config{Kind: Apache, Persistent: true}})
	pkts := tb.Server.responsePackets(&conn{flow: 1})
	for _, p := range pkts {
		if p.Kind != 0 && p.Kind.String() == "fin" {
			t.Fatal("persistent response carries FIN")
		}
	}
	if len(pkts) != 6 {
		t.Fatalf("packets = %d, want 6", len(pkts))
	}
}

func TestServedRequestsCompleteEndToEnd(t *testing.T) {
	tb := NewTestbed(TestbedConfig{Seed: 4, Concurrency: 4, Server: Config{Kind: Apache}})
	res := tb.Run(0, 500*sim.Millisecond)
	if res.Completed < 50 {
		t.Fatalf("completed %d responses in 500ms, want many", res.Completed)
	}
	// Client view and server view must roughly agree (in-flight skew).
	diff := tb.Server.Completed - tb.Clients.responses
	if diff < 0 {
		diff = -diff
	}
	if diff > int64(tb.Clients.concurrency) {
		t.Fatalf("server completed %d vs client %d", tb.Server.Completed, tb.Clients.responses)
	}
	if tb.Clients.responseTimes.N() == 0 {
		t.Fatal("no response times recorded")
	}
}

func TestApacheCalibrationMatchesPaper(t *testing.T) {
	// Section 5.1/5.3/5.5 targets: ~774 conn/s, mean trigger interval
	// ~31.5us, median ~18us, and Table 2's source mix.
	tb := NewTestbed(TestbedConfig{Seed: 1, Server: Config{Kind: Apache}})
	res := tb.Run(2*sim.Second, 4*sim.Second)
	if res.Throughput < 700 || res.Throughput > 860 {
		t.Errorf("throughput = %.0f conn/s, want ~774 (+-11%%)", res.Throughput)
	}
	if res.BusyFrac < 0.97 {
		t.Errorf("busy = %.2f, server must be saturated", res.BusyFrac)
	}
	m := tb.K.Meter()
	if mean := m.Hist.Mean(); mean < 26 || mean > 38 {
		t.Errorf("mean trigger interval = %.1fus, want ~31.5", mean)
	}
	if med := m.Hist.Quantile(0.5); med < 13 || med > 24 {
		t.Errorf("median trigger interval = %.1fus, want ~18", med)
	}
	// Table 2 mix over the five reported sources.
	reported := []kernel.Source{kernel.SrcSyscall, kernel.SrcIPOutput, kernel.SrcIPIntr,
		kernel.SrcTCPIPOther, kernel.SrcTrap}
	var total int64
	for _, s := range reported {
		total += m.BySource[s]
	}
	frac := func(s kernel.Source) float64 { return float64(m.BySource[s]) / float64(total) * 100 }
	checks := []struct {
		src      kernel.Source
		lo, hi   float64
		paperVal float64
	}{
		{kernel.SrcSyscall, 42, 56, 47.7},
		{kernel.SrcIPOutput, 20, 34, 28},
		{kernel.SrcIPIntr, 11, 21, 16.4},
		{kernel.SrcTCPIPOther, 3, 9, 5.4},
		{kernel.SrcTrap, 1, 4.5, 2.5},
	}
	for _, c := range checks {
		if f := frac(c.src); f < c.lo || f > c.hi {
			t.Errorf("%v fraction = %.1f%%, want near paper's %.1f%%", c.src, f, c.paperVal)
		}
	}
}

func TestFlashCalibrationMatchesPaper(t *testing.T) {
	tb := NewTestbed(TestbedConfig{Seed: 1, Server: Config{Kind: Flash}})
	res := tb.Run(2*sim.Second, 4*sim.Second)
	if res.Throughput < 1150 || res.Throughput > 1450 {
		t.Errorf("throughput = %.0f conn/s, want ~1303 (+-11%%)", res.Throughput)
	}
	m := tb.K.Meter()
	if mean := m.Hist.Mean(); mean < 19 || mean > 28 {
		t.Errorf("mean trigger interval = %.1fus, want ~22.5", mean)
	}
	if med := m.Hist.Quantile(0.5); med < 11 || med > 21 {
		t.Errorf("median trigger interval = %.1fus, want ~17", med)
	}
}

func TestFlashFasterThanApache(t *testing.T) {
	a := NewTestbed(TestbedConfig{Seed: 2, Server: Config{Kind: Apache}}).
		Run(sim.Second, 2*sim.Second)
	f := NewTestbed(TestbedConfig{Seed: 2, Server: Config{Kind: Flash}}).
		Run(sim.Second, 2*sim.Second)
	if f.Throughput <= a.Throughput*1.3 {
		t.Fatalf("Flash (%.0f) should be well ahead of Apache (%.0f)", f.Throughput, a.Throughput)
	}
}

func TestPersistentHTTPFasterThanHTTP(t *testing.T) {
	// Table 8: P-HTTP amortizes connection setup across requests —
	// higher request rates for both servers.
	http := NewTestbed(TestbedConfig{Seed: 5, Server: Config{Kind: Apache}}).
		Run(sim.Second, 2*sim.Second)
	phttp := NewTestbed(TestbedConfig{Seed: 5, Server: Config{Kind: Apache, Persistent: true}}).
		Run(sim.Second, 2*sim.Second)
	if phttp.Throughput <= http.Throughput*1.2 {
		t.Fatalf("P-HTTP (%.0f) should beat HTTP (%.0f) clearly", phttp.Throughput, http.Throughput)
	}
}

func TestSoftPacedModeTransmitsEverything(t *testing.T) {
	tb := NewTestbed(TestbedConfig{Seed: 6, Concurrency: 8,
		Server: Config{Kind: Apache, TxMode: TxSoftPaced}})
	res := tb.Run(sim.Second, 2*sim.Second)
	if res.Completed < 100 {
		t.Fatalf("soft-paced server completed only %d", res.Completed)
	}
	if tb.Server.PacedIntervals.N() == 0 {
		t.Fatal("no paced intervals recorded")
	}
	// One packet per trigger state: mean paced interval should be near
	// the trigger-interval mean (tens of µs), not milliseconds.
	if mean := tb.Server.PacedIntervals.Mean(); mean > 100 {
		t.Fatalf("mean paced interval = %.1fus, too slow", mean)
	}
}

func TestPacerPacedModeHoldsTargetRate(t *testing.T) {
	tb := NewTestbed(TestbedConfig{Seed: 6, Concurrency: 8,
		Server: Config{Kind: Apache, TxMode: TxPacerPaced,
			PacerInterval: 50 * sim.Microsecond, PacerBurstInterval: 10 * sim.Microsecond}})
	res := tb.Run(sim.Second, 2*sim.Second)
	if res.Completed < 50 {
		t.Fatalf("pacer-paced server completed only %d", res.Completed)
	}
	if tb.Server.pacer == nil {
		t.Fatal("TxPacerPaced built no pacer")
	}
	if tb.Server.PacedIntervals.N() == 0 {
		t.Fatal("no paced intervals recorded")
	}
	// The adaptive pacer holds the 50 µs target (catching up at 10 µs when
	// behind), so backlogged intervals sit near the target — unlike
	// TxSoftPaced, which sends one packet per trigger state.
	mean := tb.Server.PacedIntervals.Mean()
	if mean < 25 || mean > 75 {
		t.Fatalf("mean paced interval = %.1fus, want near the 50us target", mean)
	}
}

func TestHWPacedModeTransmitsEverything(t *testing.T) {
	tb := NewTestbed(TestbedConfig{Seed: 7, Concurrency: 8,
		Server: Config{Kind: Apache, TxMode: TxHWPaced}})
	res := tb.Run(sim.Second, 2*sim.Second)
	if res.Completed < 100 {
		t.Fatalf("hw-paced server completed only %d", res.Completed)
	}
	// The 20us hardware timer sends at most one packet per tick; with
	// interrupts lost under load the interval sits a bit above 20us.
	mean := tb.Server.PacedIntervals.Mean()
	if mean < 19 || mean > 60 {
		t.Fatalf("mean hw-paced interval = %.1fus, want ~20-40us", mean)
	}
}

func TestTxModesRankLikeTable3(t *testing.T) {
	// Table 3: base > soft-paced (2-6% loss) > hw-paced (28-36% loss).
	base := NewTestbed(TestbedConfig{Seed: 8, Server: Config{Kind: Apache}}).
		Run(sim.Second, 3*sim.Second)
	soft := NewTestbed(TestbedConfig{Seed: 8, Server: Config{Kind: Apache, TxMode: TxSoftPaced}}).
		Run(sim.Second, 3*sim.Second)
	hw := NewTestbed(TestbedConfig{Seed: 8, Server: Config{Kind: Apache, TxMode: TxHWPaced}}).
		Run(sim.Second, 3*sim.Second)
	if !(base.Throughput > soft.Throughput && soft.Throughput > hw.Throughput) {
		t.Fatalf("ordering wrong: base=%.0f soft=%.0f hw=%.0f",
			base.Throughput, soft.Throughput, hw.Throughput)
	}
	softOvhd := 1 - soft.Throughput/base.Throughput
	hwOvhd := 1 - hw.Throughput/base.Throughput
	if softOvhd > 0.12 {
		t.Errorf("soft-timer pacing overhead = %.0f%%, want small (paper: 2%%)", softOvhd*100)
	}
	if hwOvhd < 0.15 {
		t.Errorf("hw-timer pacing overhead = %.0f%%, want large (paper: 28%%)", hwOvhd*100)
	}
}

func TestPollingModeServesRequests(t *testing.T) {
	tb := NewTestbed(TestbedConfig{Seed: 9, Concurrency: 8,
		NIC:    nic.Config{Mode: nic.SoftPoll},
		Server: Config{Kind: Flash}})
	res := tb.Run(sim.Second, 2*sim.Second)
	if res.Completed < 100 {
		t.Fatalf("polled server completed only %d", res.Completed)
	}
	if tb.NIC.RxInterrupts > tb.NIC.Polls {
		t.Fatalf("polling mode took %d interrupts vs %d polls", tb.NIC.RxInterrupts, tb.NIC.Polls)
	}
}

func TestClientGenValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewClientGen(eng, nil, 0, 5, false)
}
