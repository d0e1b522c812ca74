// Package tcp models the transport behaviour the paper's experiments
// depend on: a BSD-style TCP sender with slow start, congestion avoidance
// and ACK self-clocking; a receiver with delayed ACKs; and the paper's
// extension — rate-based clocking, where transmissions are paced by a
// timer (soft or hardware) at a known network capacity instead of being
// clocked by returning ACKs, skipping slow start entirely (Sections 2.1,
// 4.1, 5.6–5.8 and Appendix A).
//
// Sequence numbers are whole segments (the paper's tables count 1448-byte
// packets). Links in this repository are FIFO and the paper's WAN runs are
// loss-free, so reordering and loss recovery are out of scope; see
// DESIGN.md.
package tcp

import (
	"math"
	"strconv"

	"softtimers/internal/flowtrace"
	"softtimers/internal/metrics"
	"softtimers/internal/netstack"
	"softtimers/internal/sim"
)

// Config holds protocol parameters. The zero value is unusable; use
// DefaultConfig (FreeBSD-2.2.6-like, as in the paper's testbed).
type Config struct {
	// InitialCwnd is the initial congestion window in segments.
	// FreeBSD-2.2.6 started at 1 segment.
	InitialCwnd float64
	// RcvWnd is the receiver window in segments (the testbed used large
	// socket buffers; window limiting is not under study).
	RcvWnd int64
	// AckEvery makes the receiver ACK immediately every n-th segment
	// (delayed ACKs: 2).
	AckEvery int
	// DelAckTimeout bounds how long an ACK may be delayed (200 ms).
	DelAckTimeout sim.Time
	// SlowStart enables the slow-start/congestion-avoidance sender; when
	// false the sender may only transmit via rate-based clocking.
	SlowStart bool
	// SSThresh is the slow-start threshold in segments; beyond it cwnd
	// grows linearly (congestion avoidance).
	SSThresh float64
}

// DefaultConfig returns the paper-testbed parameters.
func DefaultConfig() Config {
	return Config{
		InitialCwnd:   1,
		RcvWnd:        1 << 30,
		AckEvery:      2,
		DelAckTimeout: 200 * sim.Millisecond,
		SlowStart:     true,
		SSThresh:      math.Inf(1),
	}
}

// Sender transmits `total` segments on a flow. In self-clocked mode,
// transmissions are driven by Start and arriving ACKs; in paced mode an
// external pacer pulls segments one at a time via PacedSendOne.
type Sender struct {
	env   *EngineEnv
	cfg   Config
	flow  int
	total int64

	nextSeq int64   // next segment index to transmit
	ackedTo int64   // cumulative segments acknowledged
	cwnd    float64 // congestion window, segments
	paced   bool
	started bool

	// OnAllAcked, if set, runs when every segment has been acknowledged.
	OnAllAcked func(now sim.Time)
	// OnSend, if set, observes each transmitted data packet.
	OnSend func(p *netstack.Packet)

	// Counters.
	SegmentsSent int64
	AcksSeen     int64
	// MaxBurst is the largest number of segments transmitted in response
	// to a single ACK (big-ACK burstiness, Appendix A).
	MaxBurst int64

	// Arena, when set, is the packet pool segments are acquired from
	// (zero-allocation segment construction); nil falls back to literals.
	// Hosts wire their engine-local arena here.
	Arena *netstack.Arena

	// FlowTrace, when set, samples this flow at Start (one decision per
	// connection from the host's private tracing stream) and supplies the
	// span for every transmitted segment; TraceLoc labels the endpoint's
	// hops. Nil leaves the flow untraced at zero cost.
	FlowTrace *flowtrace.Sampler
	TraceLoc  int32
	traced    bool

	burst []*netstack.Packet // scratch transmit buffer, reused per pump
	one   [1]*netstack.Packet
}

// NewSender creates a sender of total segments on flow. paced selects
// rate-based clocking: the sender will not self-clock, and transmissions
// happen only through PacedSendOne.
func NewSender(env *EngineEnv, cfg Config, flow int, total int64, paced bool) *Sender {
	if total < 0 {
		panic("tcp: negative transfer size")
	}
	return &Sender{env: env, cfg: cfg, flow: flow, total: total, cwnd: cfg.InitialCwnd, paced: paced}
}

// RegisterMetrics registers the sender on a telemetry registry, which then
// reports its counters under tcp.flow<N>. (Report). TCP endpoints run on
// an engine with no kernel behind them, so registration is opt-in rather
// than automatic.
func (s *Sender) RegisterMetrics(r *metrics.Registry) { r.Register(s) }

// Report implements metrics.Reporter.
func (s *Sender) Report(w metrics.Writer) {
	w = w.In(flowScope(s.flow))
	w.Counter("segments_sent", s.SegmentsSent)
	w.Counter("acks_seen", s.AcksSeen)
	w.Gauge("max_burst", s.MaxBurst)
	w.Gauge("cwnd", int64(s.cwnd))
}

// flowScope is a flow's metrics namespace, tcp.flow<N>.
func flowScope(flow int) string { return "tcp.flow" + strconv.Itoa(flow) + "." }

// Start begins a self-clocked transfer by sending the initial window. For
// paced senders Start is a no-op (the pacer drives transmission).
func (s *Sender) Start() {
	if s.started {
		return
	}
	s.started = true
	s.traced = s.FlowTrace.SampleFlow()
	if s.paced {
		return
	}
	s.pump()
}

// inflight returns transmitted-but-unacknowledged segments.
func (s *Sender) inflight() int64 { return s.nextSeq - s.ackedTo }

// pump transmits every currently-eligible segment (self-clocked mode).
func (s *Sender) pump() {
	s.burst = s.burst[:0]
	for s.nextSeq < s.total &&
		float64(s.inflight())+1 <= s.cwnd &&
		s.inflight() < s.cfg.RcvWnd {
		s.burst = append(s.burst, s.makeSegment())
	}
	s.send(s.burst)
	for i := range s.burst {
		s.burst[i] = nil
	}
	s.burst = s.burst[:0]
}

func (s *Sender) makeSegment() *netstack.Packet {
	payload := netstack.MSS
	p := s.Arena.Get()
	p.Flow = s.flow
	p.Kind = netstack.Data
	p.Seq = s.nextSeq
	p.Size = payload + netstack.HeaderBytes
	p.Payload = payload
	p.SentAt = s.env.Now()
	if s.traced {
		p.Trace = s.FlowTrace.StartSpan()
		p.Trace.Hop(flowtrace.HopTCP, s.TraceLoc, p.SentAt)
	}
	s.nextSeq++
	s.SegmentsSent++
	return p
}

func (s *Sender) send(burst []*netstack.Packet) {
	if len(burst) == 0 {
		return
	}
	if int64(len(burst)) > s.MaxBurst {
		s.MaxBurst = int64(len(burst))
	}
	if s.OnSend != nil {
		for _, p := range burst {
			s.OnSend(p)
		}
	}
	s.env.Transmit(burst)
}

// HandleAck processes a cumulative acknowledgment: grow the window (one
// segment per ACK in slow start, 1/cwnd per ACK in congestion avoidance —
// BSD behaviour) and transmit newly eligible segments.
func (s *Sender) HandleAck(p *netstack.Packet) {
	s.AcksSeen++
	p.Trace.Hop(flowtrace.HopTCP, s.TraceLoc, s.env.Now())
	if p.AckSeq > s.ackedTo {
		s.ackedTo = p.AckSeq
	}
	if !s.paced && s.cfg.SlowStart {
		if s.cwnd < s.cfg.SSThresh {
			s.cwnd++
		} else {
			s.cwnd += 1 / s.cwnd
		}
	}
	if !s.paced {
		s.pump()
	}
	if s.ackedTo >= s.total && s.OnAllAcked != nil {
		cb := s.OnAllAcked
		s.OnAllAcked = nil
		cb(s.env.Now())
	}
}

// PacedSendOne transmits exactly one segment, for use as a pacer transmit
// callback. It returns the wire transmission and whether segments remain
// after this one. Calling it on a self-clocked sender panics.
func (s *Sender) PacedSendOne(now sim.Time) (sent *netstack.Packet, more bool) {
	if !s.paced {
		panic("tcp: PacedSendOne on a self-clocked sender")
	}
	if s.nextSeq >= s.total {
		return nil, false
	}
	p := s.makeSegment()
	s.one[0] = p
	s.send(s.one[:])
	s.one[0] = nil
	return p, s.nextSeq < s.total
}

// Receiver consumes data segments in order and generates delayed ACKs: an
// immediate ACK every AckEvery segments, otherwise one when the delayed-ACK
// timer expires — the behaviour whose interaction with slow start produces
// the paper's 200 ms stalls on small transfers (Table 6) and whose
// aggregation produces big ACKs (Appendix A.3).
type Receiver struct {
	env  *EngineEnv
	cfg  Config
	flow int

	received int64     // cumulative in-order segments
	ackedTo  int64     // cumulative segments covered by sent ACKs
	delack   sim.Event // the delayed-ACK timer
	delackFn func()    // its handler, bound once

	// Expected, when positive, makes OnComplete fire once that many
	// segments have arrived.
	Expected   int64
	OnComplete func(now sim.Time)
	// OnData observes every arriving data segment.
	OnData func(p *netstack.Packet)

	// Counters.
	AcksSent int64
	// BigAcks counts ACKs covering more than 3 segments (Appendix A.3's
	// definition of a big ACK).
	BigAcks int64
	// DelAckFires counts ACKs produced by the delayed-ACK timer.
	DelAckFires int64

	// Arena, when set, supplies ACK packets (see Sender.Arena).
	Arena *netstack.Arena

	// FlowTrace, when set, lets the receiver's ACKs join a traced flow:
	// the first traced data segment marks the connection, and every ACK
	// after that carries its own span (allocated from this host's
	// sampler). TraceLoc labels the receiver's hops.
	FlowTrace *flowtrace.Sampler
	TraceLoc  int32
	traced    bool

	one [1]*netstack.Packet // scratch transmit buffer
}

// NewReceiver creates a receiver for flow.
func NewReceiver(env *EngineEnv, cfg Config, flow int) *Receiver {
	r := &Receiver{env: env, cfg: cfg, flow: flow}
	r.delackFn = r.delackFire
	return r
}

// RegisterMetrics registers the receiver on a telemetry registry, which
// then reports its counters under tcp.flow<N>. (Report, complementing the
// sender's on the same prefix).
func (r *Receiver) RegisterMetrics(reg *metrics.Registry) { reg.Register(r) }

// Report implements metrics.Reporter.
func (r *Receiver) Report(w metrics.Writer) {
	w = w.In(flowScope(r.flow))
	w.Counter("acks_sent", r.AcksSent)
	w.Counter("big_acks", r.BigAcks)
	w.Counter("delack_fires", r.DelAckFires)
}

// HandleData processes an arriving data segment.
func (r *Receiver) HandleData(p *netstack.Packet) {
	r.received++
	p.Trace.Hop(flowtrace.HopTCP, r.TraceLoc, r.env.Now())
	if p.Trace != nil {
		r.traced = true
	}
	if r.OnData != nil {
		r.OnData(p)
	}
	if r.received-r.ackedTo >= int64(r.cfg.AckEvery) {
		r.sendAck()
	} else if !r.delack.Pending() && r.cfg.DelAckTimeout > 0 {
		r.delack = r.env.Eng.After(r.cfg.DelAckTimeout, r.delackFn)
	}
	if r.Expected > 0 && r.received >= r.Expected && r.OnComplete != nil {
		cb := r.OnComplete
		r.OnComplete = nil
		cb(r.env.Now())
	}
}

// delackFire is the delayed-ACK timer's handler.
func (r *Receiver) delackFire() {
	if r.received > r.ackedTo {
		r.DelAckFires++
		r.sendAck()
	}
}

func (r *Receiver) sendAck() {
	covered := r.received - r.ackedTo
	r.ackedTo = r.received
	r.delack.Cancel()
	r.AcksSent++
	if covered > 3 {
		r.BigAcks++
	}
	p := r.Arena.Get()
	p.Flow = r.flow
	p.Kind = netstack.Ack
	p.AckSeq = r.ackedTo
	p.Size = netstack.HeaderBytes
	p.SentAt = r.env.Now()
	if r.traced && r.FlowTrace != nil {
		p.Trace = r.FlowTrace.StartSpan()
		p.Trace.Hop(flowtrace.HopTCP, r.TraceLoc, p.SentAt)
	}
	r.one[0] = p
	r.env.Transmit(r.one[:])
	r.one[0] = nil
}
