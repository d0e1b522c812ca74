// Package httpserv models the web servers of the paper's evaluation —
// Apache-1.3.3 (multi-process) and Flash (event-driven) — serving a fixed
// 6 KB file to saturating clients over a LAN, on top of the simulated
// kernel and NIC. It drives the experiments behind Figures 2–3 and
// Tables 1–3 and 8.
//
// The LAN request/response exchange is scripted at packet granularity
// (SYN/SYNACK, request, data segments, FIN) rather than run through the
// full TCP machinery in package tcp: FreeBSD's TCP does not slow-start on
// a LAN, so every response goes out as one burst and the experiments
// measure CPU cost, not window dynamics (see DESIGN.md). Response data can
// be transmitted three ways, mirroring Section 5.6's comparison: the
// normal in-syscall burst, rate-based clocking via soft timers (one packet
// per trigger state), or rate-based clocking via a hardware interval
// timer.
package httpserv

import (
	"fmt"

	"softtimers/internal/core"
	"softtimers/internal/flowtrace"
	"softtimers/internal/kernel"
	"softtimers/internal/netstack"
	"softtimers/internal/nic"
	"softtimers/internal/sim"
	"softtimers/internal/stats"
)

// Kind selects the server model.
type Kind int

const (
	// Apache is the multi-process server.
	Apache Kind = iota
	// Flash is the single-process event-driven server.
	Flash
)

// String names the kind.
func (k Kind) String() string {
	if k == Apache {
		return "Apache"
	}
	return "Flash"
}

// TxMode selects how response data packets are transmitted.
type TxMode int

const (
	// TxBurst is conventional: all segments leave in one TCP output loop
	// inside the send syscall.
	TxBurst TxMode = iota
	// TxSoftPaced is rate-based clocking with soft timers: one segment
	// per soft-timer event, the event firing at every trigger state
	// (Section 5.6's soft-timer configuration).
	TxSoftPaced
	// TxHWPaced is rate-based clocking with a hardware interval timer:
	// each timer interrupt dispatches a software-interrupt thread that
	// transmits one pending segment.
	TxHWPaced
	// TxPacerPaced is rate-based clocking through the Section 4.1 adaptive
	// pacer (core.Pacer): packets are spaced at PacerInterval, falling
	// back to PacerBurstInterval whenever the achieved rate lags the
	// target. Unlike TxSoftPaced's always-due event (one packet per
	// trigger state, as fast as trigger states arrive), the pacer holds a
	// deliberate rate — the discipline emulation mode uses to pace real
	// socket writes.
	TxPacerPaced
)

// Config configures a Server.
type Config struct {
	Kind   Kind
	Script Script // zero value: chosen by Kind
	// Workers is the process count (Apache default 16, Flash always 1).
	Workers int
	// FileBytes is the response size (default 6144, the paper's 6 KB).
	FileBytes int
	// MSS and HeaderBytes shape packets (defaults 1448/52).
	MSS, HeaderBytes int
	// TxMode selects the transmission discipline for response data.
	TxMode TxMode
	// HWPacerPeriod is the hardware timer period in TxHWPaced mode
	// (default 20 µs — the paper's 50 KHz).
	HWPacerPeriod sim.Time
	// PacerInterval is the target packet spacing in TxPacerPaced mode
	// (default 100 µs, 10k packets/s).
	PacerInterval sim.Time
	// PacerBurstInterval is the TxPacerPaced catch-up spacing — the
	// tightest gap allowed when the achieved rate falls behind the target
	// (default 20 µs).
	PacerBurstInterval sim.Time
	// PacedExtraWork is the additional per-packet cost of transmitting
	// from a timer event rather than the in-syscall output loop (scattered
	// code path, per-event bookkeeping).
	PacedExtraWork sim.Time
	// Persistent enables P-HTTP: connections carry many requests and
	// connection setup/teardown is amortized away.
	Persistent bool
}

func (c *Config) setDefaults() {
	if c.Script.SendSyscall.Work == 0 {
		if c.Kind == Apache {
			c.Script = ApacheScript()
		} else {
			c.Script = FlashScript()
		}
	}
	if c.Workers == 0 {
		if c.Kind == Apache {
			c.Workers = 16
		} else {
			c.Workers = 1
		}
	}
	if c.Kind == Flash {
		c.Workers = 1
	}
	if c.FileBytes == 0 {
		c.FileBytes = 6144
	}
	if c.MSS == 0 {
		c.MSS = 1448
	}
	if c.HeaderBytes == 0 {
		c.HeaderBytes = 52
	}
	if c.HWPacerPeriod == 0 {
		c.HWPacerPeriod = 20 * sim.Microsecond
	}
	if c.PacerInterval == 0 {
		c.PacerInterval = 100 * sim.Microsecond
	}
	if c.PacerBurstInterval == 0 {
		c.PacerBurstInterval = 20 * sim.Microsecond
	}
	if c.PacedExtraWork == 0 {
		c.PacedExtraWork = sim.Micros(2.5)
	}
}

// conn is the server-side connection state. Records recycle through the
// server's free list when the client's FIN closes them, unless a request
// on them is still queued or being served.
type conn struct {
	flow    int
	peer    netstack.Addr // client host address, for switched topologies
	fresh   bool          // no request served yet on this connection
	pending bool          // a request is waiting for a worker
	serving bool          // a worker holds it until the response is built
	traced  bool          // the client's SYN carried a trace span
	next    *conn         // free-list link
}

// Server is the simulated web server.
type Server struct {
	k    *kernel.Kernel
	f    *core.Facility
	nics []*nic.NIC
	cfg  Config

	// Addr is the server's host address, stamped as Src on every reply so
	// switches can forward by address. Zero (the default) leaves packets
	// unaddressed — correct for the point-to-point testbed links.
	Addr netstack.Addr

	// FlowTrace, when set, allocates spans for replies on connections whose
	// SYN carried a span — the server inherits the client's per-flow
	// sampling decision, so both directions of a traced flow are recorded
	// without a second RNG draw.
	FlowTrace *flowtrace.Sampler

	conns    map[int]*conn
	connFree *conn
	reqQ     fifo[*conn]
	workerWQ kernel.WaitQueue

	// arena is the packet pool replies are acquired from (the NICs' pool,
	// topology-wired; nil falls back to heap literals). respBuf is the
	// response-assembly scratch, reused per send — safe because both
	// transmit disciplines copy the packet pointers out synchronously.
	arena   *netstack.Arena
	respBuf []*netstack.Packet

	// freshScript is ConnStart + PreSend, concatenated once at build so
	// fresh non-persistent requests don't rebuild it per connection.
	freshScript []ReqStep

	// Paced-transmission state. The soft-timer handler and the HW-paced
	// softirq step are bound once at construction: at most one of each is
	// in flight (softEvUp, hwInFlight), so arming them allocates nothing.
	txQ        fifo[*netstack.Packet]
	softEvUp   bool
	softPaceFn core.Handler
	pacer      *core.Pacer // TxPacerPaced transmission clock
	pit        *kernel.PIT
	hwStep     []kernel.ChainStep
	lastPaced  sim.Time
	pacedCount int64
	backlogged bool // the previous paced send left packets waiting
	hwInFlight bool // a HW-paced transmission thread is still running

	// Completed counts fully-transmitted responses.
	Completed int64
	// PacedIntervals records inter-transmission gaps in µs for the
	// paced modes (Table 3's "Avg xmit intvl" row).
	PacedIntervals *stats.Online

	rng interface{ Float64() float64 }
}

// NewServer builds a server on kernel k using NIC n. The facility f is
// required for TxSoftPaced mode.
func NewServer(k *kernel.Kernel, f *core.Facility, n *nic.NIC, cfg Config) *Server {
	return NewServerMulti(k, f, []*nic.NIC{n}, cfg)
}

// NewServerMulti builds a server with several network interfaces;
// connections are distributed across them by flow id (the paper's Table 8
// machine had four Fast Ethernet NICs, one client machine on each).
func NewServerMulti(k *kernel.Kernel, f *core.Facility, nics []*nic.NIC, cfg Config) *Server {
	cfg.setDefaults()
	if (cfg.TxMode == TxSoftPaced || cfg.TxMode == TxPacerPaced) && f == nil {
		panic("httpserv: soft-timer paced modes require a facility")
	}
	if len(nics) == 0 {
		panic("httpserv: server needs at least one NIC")
	}
	s := &Server{
		k: k, f: f, nics: nics, cfg: cfg,
		arena:          nics[0].Arena(),
		conns:          make(map[int]*conn),
		PacedIntervals: &stats.Online{},
		rng:            k.Engine().Rand().Fork(),
	}
	s.freshScript = append(append([]ReqStep{}, cfg.Script.ConnStart...), cfg.Script.PreSend...)
	for _, n := range nics {
		n.RxHandler = s.handleRx
	}
	for i := 0; i < cfg.Workers; i++ {
		name := fmt.Sprintf("%s-worker-%d", cfg.Kind, i)
		w := k.Spawn(name, s.workerLoop)
		w.PollutionFactor = cfg.Script.PollutionFactor
	}
	switch cfg.TxMode {
	case TxSoftPaced:
		s.softPaceFn = s.softPace
	case TxHWPaced:
		s.pit = k.NewPIT(cfg.HWPacerPeriod, sim.Microsecond, s.hwPacerTick)
		s.hwStep = []kernel.ChainStep{{
			Work: nics[0].Cfg().Costs.TxWork + cfg.PacedExtraWork,
			Src:  kernel.SrcIPOutput,
			Fn:   s.hwTransmit,
		}}
	case TxPacerPaced:
		s.pacer = core.NewPacer(f, cfg.PacerInterval, cfg.PacerBurstInterval,
			func(now sim.Time) (sim.Time, bool) {
				cost := s.sendPacedOne()
				return cost, s.txQ.len() > 0
			})
	}
	return s
}

// Pacer returns the adaptive transmission pacer (TxPacerPaced mode only;
// nil otherwise). Emulation rigs read its train/fire counters.
func (s *Server) Pacer() *core.Pacer { return s.pacer }

// Start arms auxiliary machinery (the HW pacer timer). Call after
// kernel.Start.
func (s *Server) Start() {
	if s.pit != nil {
		s.pit.Start()
	}
}

// Config returns the effective configuration.
func (s *Server) Config() Config { return s.cfg }

// nicFor returns the interface serving a connection (flows are pinned to
// NICs by id, as the paper pinned one client machine per interface).
func (s *Server) nicFor(flow int) *nic.NIC {
	if flow < 0 {
		flow = -flow
	}
	return s.nics[flow%len(s.nics)]
}

// segments returns the number of data segments in a response: the HTTP
// header packet (Apache-1.3 sent response headers in their own segment)
// plus the file body.
func (s *Server) segments() int {
	return 1 + (s.cfg.FileBytes+s.cfg.MSS-1)/s.cfg.MSS
}

// Segments exposes the per-response data-segment count for clients that
// must know when a response is complete.
func (s *Server) Segments() int { return s.segments() }

// newPkt acquires an addressed reply packet on flow toward dst.
func (s *Server) newPkt(flow int, dst netstack.Addr, kind netstack.Kind, size int) *netstack.Packet {
	p := s.arena.Get()
	p.Flow, p.Src, p.Dst, p.Kind, p.Size = flow, s.Addr, dst, kind, size
	return p
}

// handleRx is the protocol-input handler, running in kernel rx context.
func (s *Server) handleRx(p *netstack.Packet) {
	switch p.Kind {
	case netstack.Syn:
		c := s.openConn(p, true)
		s.nicFor(p.Flow).TxFromKernel(s.tracePkt(c, s.newPkt(p.Flow, p.Src, netstack.SynAck, s.cfg.HeaderBytes)))
	case netstack.Request:
		c := s.conns[p.Flow]
		if c == nil {
			// Persistent connections may predate the server (warm
			// start); adopt them.
			c = s.openConn(p, false)
		}
		if c.pending {
			return
		}
		c.pending = true
		s.reqQ.push(c)
		// ACK the request segment (TCP acks data carrying a push).
		s.nicFor(p.Flow).TxFromKernel(s.tracePkt(c, s.newPkt(p.Flow, c.peer, netstack.Ack, s.cfg.HeaderBytes)))
		s.workerWQ.WakeOne()
	case netstack.Ack:
		// Window bookkeeping only; cost charged in the rx path.
	case netstack.Fin:
		ack := s.newPkt(p.Flow, p.Src, netstack.Ack, s.cfg.HeaderBytes)
		if p.Trace != nil && s.FlowTrace != nil {
			ack.Trace = s.FlowTrace.StartSpan()
		}
		s.nicFor(p.Flow).TxFromKernel(ack)
		if c := s.conns[p.Flow]; c != nil {
			delete(s.conns, p.Flow)
			if !c.pending && !c.serving {
				c.next, s.connFree = s.connFree, c
			}
		}
	}
}

// openConn registers the connection p opens, reusing a closed record when
// one is free.
func (s *Server) openConn(p *netstack.Packet, fresh bool) *conn {
	c := s.connFree
	if c != nil {
		s.connFree = c.next
	} else {
		c = &conn{}
	}
	*c = conn{flow: p.Flow, peer: p.Src, fresh: fresh, traced: p.Trace != nil}
	s.conns[p.Flow] = c
	return c
}

// tracePkt attaches a span to a reply on a traced connection.
func (s *Server) tracePkt(c *conn, p *netstack.Packet) *netstack.Packet {
	if c.traced && s.FlowTrace != nil {
		p.Trace = s.FlowTrace.StartSpan()
	}
	return p
}

// worker is one server process's request state: the connection being
// served, the request-script cursor and the continuation to run when the
// script runs out. Each workerLoop call builds one (Flash has one process,
// Apache 16), and its continuations are method values bound once there,
// so serving a request allocates nothing per script step.
type worker struct {
	s *Server
	p *kernel.Proc
	c *conn

	steps []ReqStep // script steps not yet reached
	then  func()    // runs once steps is exhausted

	stepFn, nextFn, sendFn, sentFn, doneFn, endFn func()
}

// workerLoop is the per-process server loop: take a pending request, run
// the request script, transmit the response, close if HTTP.
func (s *Server) workerLoop(p *kernel.Proc) {
	w := &worker{s: s, p: p}
	w.stepFn, w.nextFn, w.sendFn = w.step, w.next, w.send
	w.sentFn, w.doneFn, w.endFn = w.sent, w.done, w.end
	w.next()
}

// next takes the oldest pending request and runs the pre-send script
// (preceded by the connection-setup script on a fresh HTTP connection),
// or sleeps until a request arrives.
func (w *worker) next() {
	s := w.s
	if s.reqQ.len() == 0 {
		w.p.Sleep(&s.workerWQ, w.nextFn)
		return
	}
	c := s.reqQ.pop()
	c.pending, c.serving = false, true
	start := s.cfg.Script.PreSend
	if c.fresh && !s.cfg.Persistent {
		start = s.freshScript
	}
	c.fresh = false
	w.c = c
	w.run(start, w.sendFn)
}

// run executes script steps in order, then then.
func (w *worker) run(steps []ReqStep, then func()) {
	w.steps, w.then = steps, then
	w.step()
}

// step starts the next script step that occurs — a probabilistic step
// draws from the server's RNG when it is reached — or, once none remain,
// runs the continuation.
func (w *worker) step() {
	for len(w.steps) > 0 {
		st := &w.steps[0]
		w.steps = w.steps[1:]
		if st.Prob > 0 && w.s.rng.Float64() >= st.Prob {
			continue
		}
		switch st.Kind {
		case StepSyscall:
			w.p.Syscall(st.Name, st.Work, w.stepFn)
		case StepTrap:
			w.p.Trap(st.Name, st.Work, w.stepFn)
		default:
			w.p.Compute(st.Work, w.stepFn)
		}
		return
	}
	w.then()
}

// send performs the send syscall that hands the response to TCP.
func (w *worker) send() {
	sy := &w.s.cfg.Script.SendSyscall
	w.p.Syscall(sy.Name, sy.Work, w.sentFn)
}

// sent transmits the response data according to the configured TxMode,
// then runs the post-send script. The worker does not wait for paced
// transmission (socket-buffer semantics): pacing hardware/soft events
// drain the queue while the worker moves on.
func (w *worker) sent() {
	s := w.s
	// Built here, inside the syscall continuation, so the scratch buffer
	// is consumed before any other worker can reuse it.
	c := w.c
	pkts := s.responsePackets(c)
	c.serving, w.c = false, nil
	if s.cfg.TxMode == TxBurst {
		// Completion is the final segment leaving ip-output — the same
		// instant the chain completes.
		w.p.ChainC(s.nicFor(c.flow).TxChainOf(pkts...), w.doneFn)
		return
	}
	s.enqueuePaced(pkts)
	w.post()
}

// done counts a burst-transmitted response once its output chain ends.
func (w *worker) done() {
	w.s.Completed++
	w.post()
}

// post runs the post-send script (logging and the like).
func (w *worker) post() { w.run(w.s.cfg.Script.PostSend, w.endFn) }

// end closes an HTTP connection (the connection-teardown script) before
// taking the next request; a persistent connection goes straight on.
func (w *worker) end() {
	if w.s.cfg.Persistent {
		w.next()
		return
	}
	w.run(w.s.cfg.Script.ConnEnd, w.nextFn)
}

// responsePackets builds the data segments (the last carries the FIN for
// non-persistent connections, as BSD piggybacks close on the final
// segment; we keep FIN separate for packet accounting clarity). The
// returned slice is the server's reusable scratch: callers must copy the
// pointers out before yielding the CPU.
func (s *Server) responsePackets(c *conn) []*netstack.Packet {
	nseg := s.segments()
	pkts := s.respBuf[:0]
	hdr := s.newPkt(c.flow, c.peer, netstack.Data, 290+s.cfg.HeaderBytes) // HTTP response headers
	hdr.Payload = 290
	pkts = append(pkts, hdr)
	remaining := s.cfg.FileBytes
	for i := 1; i < nseg; i++ {
		payload := s.cfg.MSS
		if remaining < payload {
			payload = remaining
		}
		remaining -= payload
		seg := s.newPkt(c.flow, c.peer, netstack.Data, payload+s.cfg.HeaderBytes)
		seg.Seq = int64(i)
		seg.Payload = payload
		pkts = append(pkts, seg)
	}
	if !s.cfg.Persistent {
		pkts = append(pkts, s.newPkt(c.flow, c.peer, netstack.Fin, s.cfg.HeaderBytes))
	}
	if c.traced && s.FlowTrace != nil {
		// Spans attach after Seq/Payload are final; every segment of a
		// traced flow gets one, in response order.
		for _, pkt := range pkts {
			pkt.Trace = s.FlowTrace.StartSpan()
		}
	}
	s.respBuf = pkts
	return pkts
}

// enqueuePaced queues response packets for timer-driven transmission,
// marking the train's last packet so its send counts a completion.
func (s *Server) enqueuePaced(pkts []*netstack.Packet) {
	pkts[len(pkts)-1].Mark = true
	s.txQ.push(pkts...)
	switch s.cfg.TxMode {
	case TxSoftPaced:
		s.armSoftPacer()
	case TxPacerPaced:
		s.pacer.Start() // idempotent while a train is running
	}
}

// popPaced removes the head of the paced queue, recording the interval
// since the previous send — but only when the packet was already waiting
// then (a backlogged interval, the quantity Table 3 reports) — and
// counting response completions.
func (s *Server) popPaced() *netstack.Packet {
	if s.txQ.len() == 0 {
		s.backlogged = false
		return nil
	}
	pkt := s.txQ.pop()
	now := s.k.Now()
	if s.backlogged {
		s.PacedIntervals.Add((now - s.lastPaced).Micros())
	}
	s.pacedCount++
	s.lastPaced = now
	// The next interval is back-to-back only if more packets wait now.
	s.backlogged = s.txQ.len() > 0
	if pkt.Mark {
		s.Completed++
	}
	return pkt
}

// sendPacedOne transmits the head of the paced queue. Returns the CPU cost
// of the transmission.
func (s *Server) sendPacedOne() sim.Time {
	pkt := s.popPaced()
	if pkt == nil {
		return 0
	}
	return s.nicFor(pkt.Flow).TransmitNow(pkt) + s.cfg.PacedExtraWork
}

// armSoftPacer schedules the always-due soft event that transmits one
// packet per trigger state while the queue is non-empty. The event record
// comes from the facility's pool and recycles as it fires.
func (s *Server) armSoftPacer() {
	if s.softEvUp || s.txQ.len() == 0 {
		return
	}
	s.softEvUp = true
	s.f.ScheduleSoftEventFree(0, s.softPaceFn)
}

// softPace is the TxSoftPaced handler (bound once as softPaceFn): send one
// packet and re-arm while more wait.
func (s *Server) softPace(now sim.Time) sim.Time {
	s.softEvUp = false
	cost := s.sendPacedOne()
	s.armSoftPacer()
	return cost
}

// hwPacerTick is the hardware timer handler for TxHWPaced: dispatch a
// software-interrupt thread that transmits one pending packet. Ticks that
// arrive while the previous transmission's thread is still in flight are
// lost, reproducing the paper's observation that hardware-timer pacing
// falls short of its programmed rate ("some timer interrupts are lost
// during periods when interrupts are disabled in FreeBSD"). The one-step
// chain is built once: hwInFlight keeps a single post outstanding.
func (s *Server) hwPacerTick() {
	if s.txQ.len() == 0 || s.hwInFlight {
		return
	}
	s.hwInFlight = true
	s.k.PostSoftIRQ(s.hwStep...)
}

// hwTransmit is the HW-paced chain step's side effect. Its cost is charged
// by the step's Work, so it transmits without re-charging.
func (s *Server) hwTransmit() {
	s.hwInFlight = false
	if pkt := s.popPaced(); pkt != nil {
		s.nicFor(pkt.Flow).TransmitRaw(pkt)
	}
}

// fifo is a head-indexed queue: popping advances a cursor, draining resets
// the slice to [:0], and a push that would outgrow the backing array first
// slides the live entries to its front — so steady-state traffic reuses one
// array instead of reallocating after every front reslice.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

func (q *fifo[T]) push(vs ...T) {
	if q.head > 0 && len(q.buf)+len(vs) > cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, vs...)
}

// pop removes and returns the oldest entry; the queue must be non-empty.
func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}
