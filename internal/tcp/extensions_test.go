package tcp

import (
	"math"
	"testing"

	"softtimers/internal/netstack"
	"softtimers/internal/sim"
)

func TestAckRateTrackerSteadyStateNotCompressed(t *testing.T) {
	tr := &AckRateTracker{}
	now := sim.Time(0)
	for i := 0; i < 100; i++ {
		now += 100 * sim.Microsecond
		if tr.Observe(now, 2) && i > 2 {
			t.Fatalf("steady 100us/2-segment ACKs flagged compressed at %d", i)
		}
	}
	if g := tr.AvgGap(); g < 95*sim.Microsecond || g > 105*sim.Microsecond {
		t.Fatalf("AvgGap = %v, want ~100us", g)
	}
}

func TestAckRateTrackerDetectsCompression(t *testing.T) {
	tr := &AckRateTracker{}
	now := sim.Time(0)
	for i := 0; i < 50; i++ {
		now += 200 * sim.Microsecond
		tr.Observe(now, 2)
	}
	// A burst of ACKs 5us apart: reverse-path queueing compressed them.
	flagged := 0
	for i := 0; i < 5; i++ {
		now += 5 * sim.Microsecond
		if tr.Observe(now, 2) {
			flagged++
		}
	}
	if flagged < 4 {
		t.Fatalf("only %d/5 compressed ACKs flagged", flagged)
	}
	if tr.BurstAcks() < 4 {
		t.Fatalf("BurstAcks = %d", tr.BurstAcks())
	}
}

func TestAckRateTrackerDetectsBigAck(t *testing.T) {
	tr := &AckRateTracker{}
	now := sim.Time(0)
	for i := 0; i < 50; i++ {
		now += 200 * sim.Microsecond
		tr.Observe(now, 2)
	}
	now += 200 * sim.Microsecond
	if !tr.Observe(now, 20) {
		t.Fatal("an ACK covering 20 segments (avg 2) not flagged as big")
	}
}

func TestBurstSmoothingSpreadsBigAckResponse(t *testing.T) {
	// A sender with a wide-open window receives a big ACK. Without
	// smoothing it blasts everything; with smoothing it sends maxburst
	// immediately and clocks the rest out at the average ACK rate.
	run := func(smooth bool) (maxBurst int64, sendTimes []sim.Time) {
		eng := sim.NewEngine(4)
		env := &EngineEnv{Eng: eng, Out: netstack.EndpointFunc(func(p *netstack.Packet) {
			if p.Kind == netstack.Data {
				sendTimes = append(sendTimes, eng.Now())
			}
		})}
		cfg := DefaultConfig()
		cfg.InitialCwnd = 4
		snd := NewSender(env, cfg, 1, 200, false)
		if smooth {
			snd.EnableBurstSmoothing(4)
		}
		snd.Start() // 4 segments out
		// Regular ACK stream every 150us establishes the average rate.
		at := sim.Time(0)
		acked := int64(0)
		for i := 0; i < 20; i++ {
			at += 150 * sim.Microsecond
			acked += 2
			ack := acked
			eng.At(at, func() {
				snd.HandleAck(&netstack.Packet{Kind: netstack.Ack, AckSeq: ack})
			})
		}
		// Then a big ACK covering 30 more segments arrives.
		at += 150 * sim.Microsecond
		big := acked + 30
		eng.At(at, func() {
			snd.HandleAck(&netstack.Packet{Kind: netstack.Ack, AckSeq: big})
		})
		eng.RunUntil(sim.Second)
		return snd.MaxBurst, sendTimes
	}

	burstOff, _ := run(false)
	burstOn, times := run(true)
	if burstOff < 20 {
		t.Fatalf("unsmoothed MaxBurst = %d, expected a large blast", burstOff)
	}
	if burstOn > 8 {
		t.Fatalf("smoothed MaxBurst = %d, want <= maxburst+slack", burstOn)
	}
	// The drained segments must be spaced at ~the average ACK gap.
	var gaps []sim.Time
	for i := 1; i < len(times); i++ {
		if g := times[i] - times[i-1]; g > 0 && g < 10*sim.Millisecond {
			gaps = append(gaps, g)
		}
	}
	spread := 0
	for _, g := range gaps {
		if g > 100*sim.Microsecond && g < 250*sim.Microsecond {
			spread++
		}
	}
	if spread < 10 {
		t.Fatalf("only %d drain gaps near the 150us ACK rate", spread)
	}
}

func TestBurstSmoothingCompletesTransfer(t *testing.T) {
	// Smoothing must not strand data: the full WAN transfer completes.
	r := newRig(t, 200, 50, false)
	r.snd.EnableBurstSmoothing(4)
	r.snd.Start()
	r.eng.RunUntil(30 * sim.Second)
	if r.done == 0 {
		t.Fatal("smoothed transfer never completed")
	}
	if r.rcv.Received() != 200 {
		t.Fatalf("received %d of 200", r.rcv.Received())
	}
}

func TestBurstSmoothingPanicsOnPacedSender(t *testing.T) {
	eng := sim.NewEngine(1)
	env := &EngineEnv{Eng: eng, Out: netstack.EndpointFunc(func(*netstack.Packet) {})}
	snd := NewSender(env, DefaultConfig(), 1, 10, true)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	snd.EnableBurstSmoothing(4)
}

func TestBandwidthEstimatorMeasuresBottleneck(t *testing.T) {
	// Blast packets through a 100Mbps access link into a 50Mbps
	// bottleneck; the receiver-side estimator must report ~50Mbps.
	eng := sim.NewEngine(9)
	est := &BandwidthEstimator{}
	sink := netstack.EndpointFunc(func(p *netstack.Packet) {
		est.ObserveData(eng.Now(), p)
	})
	bott := netstack.NewLink(eng, "wan", 50_000_000, 10*sim.Millisecond, sink)
	access := netstack.NewLink(eng, "lan", 100_000_000, 0, bott)
	for i := 0; i < 50; i++ {
		access.Send(&netstack.Packet{Kind: netstack.Data, Seq: int64(i), Size: 1500})
	}
	eng.Run()
	if est.Samples() < 40 {
		t.Fatalf("samples = %d", est.Samples())
	}
	got := est.EstimateBps()
	if math.Abs(got-50e6)/50e6 > 0.05 {
		t.Fatalf("estimate = %.1f Mbps, want ~50", got/1e6)
	}
	// And the suggested pacing interval matches the bottleneck's
	// serialization time (240us for 1500B at 50Mbps).
	iv := est.SuggestedInterval(1500)
	if iv < 230*sim.Microsecond || iv > 250*sim.Microsecond {
		t.Fatalf("suggested interval = %v, want ~240us", iv)
	}
}

func TestBandwidthEstimatorSkipsNonConsecutive(t *testing.T) {
	est := &BandwidthEstimator{}
	est.ObserveData(0, &netstack.Packet{Seq: 0, Size: 1500})
	est.ObserveData(100*sim.Microsecond, &netstack.Packet{Seq: 2, Size: 1500}) // gap
	if est.Samples() != 0 {
		t.Fatal("non-consecutive pair accepted")
	}
	est.ObserveData(200*sim.Microsecond, &netstack.Packet{Seq: 3, Size: 1500})
	if est.Samples() != 1 {
		t.Fatalf("consecutive pair rejected: %d", est.Samples())
	}
}

func TestBandwidthEstimatorNeedsSamples(t *testing.T) {
	est := &BandwidthEstimator{}
	if est.EstimateBps() != 0 || est.SuggestedInterval(1500) != 0 {
		t.Fatal("estimate without samples should be 0")
	}
}

func TestEstimatorFeedsPacedTransfer(t *testing.T) {
	// End-to-end extension story: measure capacity with a short probe
	// transfer, then rate-clock a second transfer at the estimate. The
	// paced run must finish near the bottleneck-limited optimum.
	sc := 50_000_000
	// Phase 1: probe with regular TCP while estimating receiver-side.
	r := newRig(t, 60, 50, false)
	est := &BandwidthEstimator{}
	r.rcv.OnData = func(p *netstack.Packet) { est.ObserveData(r.eng.Now(), p) }
	r.snd.Start()
	r.eng.RunUntil(10 * sim.Second)
	if r.done == 0 {
		t.Fatal("probe incomplete")
	}
	bw := est.EstimateBps()
	if math.Abs(bw-float64(sc))/float64(sc) > 0.10 {
		t.Fatalf("probe estimate = %.1f Mbps, want ~50", bw/1e6)
	}
	// Phase 2: pace 500 segments at the estimated interval.
	p := newRig(t, 500, 50, true)
	interval := est.SuggestedInterval(netstack.MSS + netstack.HeaderBytes)
	var tick func()
	tick = func() {
		if _, more := p.snd.PacedSendOne(p.eng.Now()); more {
			p.eng.After(interval, tick)
		}
	}
	p.eng.After(interval, tick)
	p.eng.RunUntil(10 * sim.Second)
	if p.done == 0 {
		t.Fatal("paced transfer incomplete")
	}
	// Optimum: ~500 * 240us + one-way ≈ 170ms; allow slack.
	if p.done > 260*sim.Millisecond {
		t.Fatalf("paced-at-estimate transfer took %v, want near optimum ~170ms", p.done)
	}
}
