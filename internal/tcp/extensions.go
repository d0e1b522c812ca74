package tcp

import (
	"softtimers/internal/netstack"
	"softtimers/internal/sim"
)

// This file implements the transport extensions the paper motivates in
// Appendix A and Section 6 beyond the core rate-based clocking mode:
//
//   - Big-ACK / ACK-compression burst smoothing (Appendix A.1): "When a
//     burst of ACKs arrives at a rate that significantly exceeds the
//     average rate, the sender may choose to pace the transmission of the
//     corresponding new data packets at the measured average ACK arrival
//     rate, instead of the burst's instantaneous rate."
//   - Receiver-side bandwidth estimation (Section 6, after Allman &
//     Paxson): measuring the data-packet spacing the bottleneck imposes,
//     which "works considerably better" than sender-side estimates and
//     supplies the capacity figure rate-based clocking needs.

// AckRateTracker maintains an exponentially-weighted average of ACK
// arrival spacing and of the data coverage per ACK, the sender-side signal
// behind Appendix A's burst smoothing.
type AckRateTracker struct {
	// Alpha is the EWMA weight of a new observation (default 0.125, the
	// classic srtt gain).
	Alpha float64

	last      sim.Time
	avgGap    float64 // ns between ACKs
	avgSegs   float64 // segments covered per ACK
	n         int64
	burstAcks int64 // ACKs classified as part of a compressed burst
}

// Observe records an ACK arriving at now covering segs segments. It
// reports whether the ACK is "compressed": arriving much faster than the
// average rate (or covering far more data), so that self-clocked sending
// would burst.
func (t *AckRateTracker) Observe(now sim.Time, segs int64) (compressed bool) {
	alpha := t.Alpha
	if alpha == 0 {
		alpha = 0.125
	}
	defer func() { t.last = now }()
	t.n++
	if t.n == 1 {
		t.avgSegs = float64(segs)
		return false
	}
	gap := float64(now - t.last)
	if t.avgGap == 0 {
		t.avgGap = gap
	}
	// Compression test against the *previous* averages, then update.
	compressed = gap < t.avgGap/4 || float64(segs) > 3*t.avgSegs+1
	t.avgGap = (1-alpha)*t.avgGap + alpha*gap
	t.avgSegs = (1-alpha)*t.avgSegs + alpha*float64(segs)
	if compressed {
		t.burstAcks++
	}
	return compressed
}

// AvgGap returns the average ACK spacing (0 until two ACKs seen).
func (t *AckRateTracker) AvgGap() sim.Time { return sim.Time(t.avgGap) }

// BurstAcks returns how many ACKs were classified as compressed.
func (t *AckRateTracker) BurstAcks() int64 { return t.burstAcks }

// EnableBurstSmoothing makes a self-clocked sender spread the data
// eligible after a big or compressed ACK at the measured average ACK rate
// instead of transmitting it back-to-back. maxBurst segments may still go
// out immediately (the Fall/Floyd maxburst guard); the remainder is
// clocked out one segment per average-ACK-gap.
func (s *Sender) EnableBurstSmoothing(maxBurst int64) {
	if s.paced {
		panic("tcp: burst smoothing applies to self-clocked senders")
	}
	if maxBurst < 1 {
		maxBurst = 1
	}
	s.smooth = &burstSmoother{maxBurst: maxBurst, tracker: &AckRateTracker{}}
}

// BurstSmoothingStats reports (smoothed transmissions, compressed ACKs
// seen); zero values if smoothing is disabled.
func (s *Sender) BurstSmoothingStats() (smoothed int64, burstAcks int64) {
	if s.smooth == nil {
		return 0, 0
	}
	return s.smooth.smoothed, s.smooth.tracker.BurstAcks()
}

// burstSmoother holds the Appendix A.1 pacing state on a sender.
type burstSmoother struct {
	maxBurst int64
	tracker  *AckRateTracker
	draining bool
	smoothed int64
}

// smoothedPump transmits up to maxBurst eligible segments immediately and
// schedules the rest at the average ACK arrival rate. Returns true if it
// handled transmission (the caller must then skip the normal pump).
func (s *Sender) smoothedPump(compressed bool) bool {
	sm := s.smooth
	if sm == nil {
		return false
	}
	if sm.draining {
		return true // drain timer is already clocking data out
	}
	eligible := s.eligibleCount()
	if !compressed || eligible <= sm.maxBurst {
		return false // normal self-clocking is fine
	}
	// Send the allowed burst now, then drain the rest at the average
	// ACK rate.
	var burst []*netstack.Packet
	for i := int64(0); i < sm.maxBurst && s.eligibleCount() > 0; i++ {
		burst = append(burst, s.makeSegment())
	}
	s.send(burst)
	gap := sm.tracker.AvgGap()
	if gap <= 0 {
		gap = sim.Millisecond
	}
	// The drain timer is never pending here or when drain re-arms it:
	// draining holds off new bursts until the timer has fired for the last
	// time, so each arming is a fresh engine event.
	sm.draining = true
	var drain func()
	drain = func() {
		if s.eligibleCount() <= 0 {
			sm.draining = false
			return
		}
		s.send([]*netstack.Packet{s.makeSegment()})
		sm.smoothed++
		s.env.Eng.After(gap, drain)
	}
	s.env.Eng.After(gap, drain)
	return true
}

// eligibleCount returns how many segments could be transmitted right now.
func (s *Sender) eligibleCount() int64 {
	byWindow := int64(s.cwnd) - s.inflight()
	if byRcv := s.cfg.RcvWnd - s.inflight(); byRcv < byWindow {
		byWindow = byRcv
	}
	if byData := s.total - s.nextSeq; byData < byWindow {
		byWindow = byData
	}
	if byWindow < 0 {
		return 0
	}
	return byWindow
}

// BandwidthEstimator implements receiver-side bottleneck estimation from
// data-packet spacing (Allman & Paxson's receiver-side method, Section 6):
// consecutive data segments that left the sender back-to-back arrive
// spaced by the bottleneck's serialization time, so size/gap estimates the
// capacity. Robustness comes from taking the median of many pair samples.
type BandwidthEstimator struct {
	// MinGap rejects measurement noise below this spacing (default 1 µs).
	MinGap sim.Time

	lastAt   sim.Time
	lastSeq  int64
	samples  []float64 // bits per second
	haveLast bool
}

// ObserveData records a data segment's arrival. Only consecutive-sequence
// segments form valid pairs (a gap in sequence means queueing or loss
// upstream invalidated the spacing).
func (b *BandwidthEstimator) ObserveData(now sim.Time, p *netstack.Packet) {
	defer func() {
		b.lastAt = now
		b.lastSeq = p.Seq
		b.haveLast = true
	}()
	if !b.haveLast || p.Seq != b.lastSeq+1 {
		return
	}
	gap := now - b.lastAt
	min := b.MinGap
	if min == 0 {
		min = sim.Microsecond
	}
	if gap < min {
		return
	}
	bps := float64(p.Size*8) / gap.Seconds()
	b.samples = append(b.samples, bps)
}

// Samples returns the number of valid pair measurements.
func (b *BandwidthEstimator) Samples() int { return len(b.samples) }

// EstimateBps returns the median pair estimate, or 0 with fewer than
// three samples.
func (b *BandwidthEstimator) EstimateBps() float64 {
	if len(b.samples) < 3 {
		return 0
	}
	tmp := append([]float64(nil), b.samples...)
	// Insertion sort: sample counts are modest and this avoids importing
	// sort into the hot path.
	for i := 1; i < len(tmp); i++ {
		for j := i; j > 0 && tmp[j] < tmp[j-1]; j-- {
			tmp[j], tmp[j-1] = tmp[j-1], tmp[j]
		}
	}
	return tmp[len(tmp)/2]
}

// SuggestedInterval converts the estimate into a rate-based clocking
// interval for packets of the given wire size, or 0 if no estimate.
func (b *BandwidthEstimator) SuggestedInterval(wireBytes int) sim.Time {
	bps := b.EstimateBps()
	if bps <= 0 {
		return 0
	}
	return sim.Time(float64(wireBytes*8) / bps * float64(sim.Second))
}
