// Package tcp models the transport behaviour the paper's experiments
// depend on: a BSD-style TCP sender with slow start and ACK self-clocking;
// a receiver with delayed ACKs; and the paper's extension — rate-based
// clocking, where transmissions are paced by a timer (soft or hardware) at
// a known network capacity instead of being clocked by returning ACKs,
// skipping slow start entirely (Sections 2.1, 4.1, 5.6–5.8 and Appendix A).
//
// Sequence numbers are whole segments (the paper's tables count 1448-byte
// packets). Links in this repository are FIFO and the paper's WAN runs are
// loss-free, so reordering and loss recovery are out of scope; see
// DESIGN.md.
package tcp

import (
	"strconv"

	"softtimers/internal/metrics"
	"softtimers/internal/netstack"
	"softtimers/internal/sim"
)

// The paper-testbed protocol settings: FreeBSD-2.2.6's, the one TCP the
// WAN experiments run (Section 5.8).
const (
	// initialCwnd is the initial congestion window in segments.
	initialCwnd = 1
	// ackEvery makes the receiver ACK immediately every second segment
	// (delayed ACKs).
	ackEvery = 2
	// delAckTimeout bounds how long an ACK may be delayed.
	delAckTimeout = 200 * sim.Millisecond
)

// Sender transmits `total` segments on a flow. In self-clocked mode,
// transmissions are driven by Start and arriving ACKs; in paced mode an
// external pacer pulls segments one at a time via PacedSendOne.
type Sender struct {
	env   *EngineEnv
	flow  int
	total int64

	nextSeq int64 // next segment index to transmit
	ackedTo int64 // cumulative segments acknowledged
	cwnd    int64 // congestion window, segments
	paced   bool
	started bool

	// Counters.
	SegmentsSent int64
	AcksSeen     int64
	// MaxBurst is the largest number of segments transmitted in response
	// to a single ACK (big-ACK burstiness, Appendix A).
	MaxBurst int64

	burst []*netstack.Packet // scratch transmit buffer, reused per pump
	one   [1]*netstack.Packet
}

// NewSender creates a sender of total segments on flow. paced selects
// rate-based clocking: the sender will not self-clock, and transmissions
// happen only through PacedSendOne.
func NewSender(env *EngineEnv, flow int, total int64, paced bool) *Sender {
	if total < 0 {
		panic("tcp: negative transfer size")
	}
	return &Sender{env: env, flow: flow, total: total, cwnd: initialCwnd, paced: paced}
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
	w.Gauge("cwnd", s.cwnd)
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
	if s.paced {
		return
	}
	s.pump()
}

// pump transmits every currently-eligible segment (self-clocked mode).
func (s *Sender) pump() {
	s.burst = s.burst[:0]
	for s.nextSeq < s.total && s.nextSeq-s.ackedTo < s.cwnd {
		s.burst = append(s.burst, s.makeSegment())
	}
	s.send(s.burst)
	for i := range s.burst {
		s.burst[i] = nil
	}
	s.burst = s.burst[:0]
}

func (s *Sender) makeSegment() *netstack.Packet {
	p := &netstack.Packet{
		Flow:    s.flow,
		Kind:    netstack.Data,
		Seq:     s.nextSeq,
		Size:    netstack.MSS + netstack.HeaderBytes,
		Payload: netstack.MSS,
		SentAt:  s.env.Now(),
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
	s.env.Transmit(burst)
}

// HandleAck processes a cumulative acknowledgment. A self-clocked sender
// grows its window by one segment per ACK (slow start: the paper's
// transfers never reach a threshold) and transmits newly eligible
// segments.
func (s *Sender) HandleAck(p *netstack.Packet) {
	s.AcksSeen++
	if p.AckSeq > s.ackedTo {
		s.ackedTo = p.AckSeq
	}
	if !s.paced {
		s.cwnd++
		s.pump()
	}
}

// PacedSendOne transmits exactly one segment, for use as a pacer transmit
// callback, and reports whether segments remain after this one. Calling it
// on a self-clocked sender panics.
func (s *Sender) PacedSendOne(now sim.Time) (more bool) {
	if !s.paced {
		panic("tcp: PacedSendOne on a self-clocked sender")
	}
	if s.nextSeq >= s.total {
		return false
	}
	s.one[0] = s.makeSegment()
	s.send(s.one[:])
	s.one[0] = nil
	return s.nextSeq < s.total
}

// Receiver consumes data segments in order and generates delayed ACKs: an
// immediate ACK every ackEvery segments, otherwise one when the delayed-ACK
// timer expires — the behaviour whose interaction with slow start produces
// the paper's 200 ms stalls on small transfers (Table 6).
type Receiver struct {
	env  *EngineEnv
	flow int

	received int64     // cumulative in-order segments
	ackedTo  int64     // cumulative segments covered by sent ACKs
	delack   sim.Event // the delayed-ACK timer
	delackFn func()    // its handler, bound once

	// Expected, when positive, makes OnComplete fire once that many
	// segments have arrived.
	Expected   int64
	OnComplete func(now sim.Time)

	// Counters.
	AcksSent int64
	// BigAcks counts ACKs covering more than 3 segments (Appendix A.3's
	// definition of a big ACK).
	BigAcks int64
	// DelAckFires counts ACKs produced by the delayed-ACK timer.
	DelAckFires int64

	one [1]*netstack.Packet // scratch transmit buffer
}

// NewReceiver creates a receiver for flow.
func NewReceiver(env *EngineEnv, flow int) *Receiver {
	r := &Receiver{env: env, flow: flow}
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
	if r.received-r.ackedTo >= ackEvery {
		r.sendAck()
	} else if !r.delack.Pending() {
		r.delack = r.env.Eng.After(delAckTimeout, r.delackFn)
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
	r.one[0] = &netstack.Packet{
		Flow:   r.flow,
		Kind:   netstack.Ack,
		AckSeq: r.ackedTo,
		Size:   netstack.HeaderBytes,
		SentAt: r.env.Now(),
	}
	r.env.Transmit(r.one[:])
	r.one[0] = nil
}
