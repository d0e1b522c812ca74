package httpserv

import (
	"fmt"

	"softtimers/internal/flowtrace"
	"softtimers/internal/host"
	"softtimers/internal/kernel"
	"softtimers/internal/netstack"
	"softtimers/internal/nic"
	"softtimers/internal/sim"
	"softtimers/internal/stats"
)

// ClientHost is a client machine with a real kernel: unlike ClientGen
// (zero-cost request slots driven straight off the engine, for rigs where
// only the server CPU is under study), its requests are issued by kernel
// processes — connect/send/recv syscalls, receive interrupts, protocol
// softirqs — so the client side produces trigger states and soft-timer
// activity of its own. The fleet-scale experiment runs up to 64 of these
// against one server to show the facility's per-host delay bound holds on
// every kernel in a topology, not just the saturated one.
//
// Connections are plain HTTP (connect, one request, response, teardown),
// the paper's non-persistent case; each slot is one kernel process cycling
// through that script.
type ClientHost struct {
	// H is the underlying machine; N the interface toward the server.
	H *host.Host
	N *nic.NIC

	cfg ClientHostConfig

	// Responses counts completed responses; ResponseTimes records their
	// latencies in milliseconds (client view, syscall to last segment).
	Responses     int64
	ResponseTimes *stats.Online
	// Churns counts slot dormancy periods taken (connection churn).
	Churns int64

	// FlowTrace, when set (before the kernel starts), samples flows for
	// span tracing: one SampleFlow decision per connection, spans attached
	// to every packet of a traced flow. TTFB records, per traced flow, the
	// virtual time from the request sendto syscall to the first response
	// data segment's arrival in protocol context.
	FlowTrace *flowtrace.Sampler
	TTFB      map[int]sim.Time

	arena    *netstack.Arena
	rng      *sim.RNG
	slots    []*chSlot
	nextFlow int
}

// ClientHostConfig configures a ClientHost.
type ClientHostConfig struct {
	// Concurrency is the number of request processes (default 4).
	Concurrency int
	// FlowBase offsets this host's flow ids so they are unique across a
	// fleet (host i typically uses i*1_000_000).
	FlowBase int
	// Segments is the expected data-segment count per response (use
	// Server.Segments()).
	Segments int
	// Addr and ServerAddr stamp Src/Dst so switches can forward.
	Addr, ServerAddr netstack.Addr
	// StartDelay holds every slot's first connect back by this much.
	// Large fleets stagger it per host: a thousand machines connecting in
	// the same microsecond is a SYN storm that pins the server in
	// interrupt context for milliseconds — an overload artifact of the
	// synchronized start, not a property of the workload under study.
	StartDelay sim.Time
	// ChurnEvery, when > 0, makes each slot go dormant after every N
	// completed responses — connection churn: clients leave the fleet and
	// rejoin later (after churnOff plus a random draw), so the server's
	// connection table turns over instead of serving a fixed population. 0
	// disables churn.
	ChurnEvery int
}

// The client machines' fixed parameters.
const (
	// thinkTime is a client's gap before it reuses a slot.
	thinkTime = 200 * sim.Microsecond
	// connectWork, sendWork and recvWork are the syscall service times of
	// a client host's socket calls.
	connectWork = 15 * sim.Microsecond
	sendWork    = 10 * sim.Microsecond
	recvWork    = 10 * sim.Microsecond
	// churnOff is the dormancy base period of a churning slot; the actual
	// gap adds an exponential draw from the host's private RNG stream,
	// which depends only on (seed, host name) — shard-count invariant.
	churnOff = sim.Millisecond
)

// chSlot is one request process's connection state.
type chSlot struct {
	c         *ClientHost
	flow      int
	got       int // data segments received this response
	resp      int // responses completed since the last churn
	unacked   int
	started   bool // StartDelay consumed
	connected bool // SYNACK arrived
	done      bool // response fully received
	traced    bool // this connection's flow is span-traced
	reqStart  sim.Time
	wq        kernel.WaitQueue
}

// NewClientHost builds the client on host h, issuing requests through n
// (one of h's NICs). It installs itself as n's receive handler.
func NewClientHost(h *host.Host, n *nic.NIC, cfg ClientHostConfig) *ClientHost {
	if cfg.Concurrency == 0 {
		cfg.Concurrency = 4
	}
	if cfg.Segments <= 0 {
		panic("httpserv: client host needs the response segment count")
	}
	c := &ClientHost{
		H: h, N: n, cfg: cfg, ResponseTimes: &stats.Online{},
		arena: h.Arena(), rng: h.Rand(),
		TTFB: make(map[int]sim.Time),
	}
	n.RxHandler = c.handleRx
	for i := 0; i < cfg.Concurrency; i++ {
		s := &chSlot{c: c}
		c.slots = append(c.slots, s)
		name := fmt.Sprintf("%s-client-%d", h.Name, i)
		h.K.Spawn(name, s.run)
	}
	return c
}

// pkt acquires an addressed control packet for the slot's flow, attaching
// a trace span when the connection is sampled.
func (s *chSlot) pkt(kind netstack.Kind, size int) *netstack.Packet {
	p := s.c.arena.Get()
	p.Flow, p.Src, p.Dst = s.flow, s.c.cfg.Addr, s.c.cfg.ServerAddr
	p.Kind, p.Size = kind, size
	if s.traced {
		p.Trace = s.c.FlowTrace.StartSpan()
	}
	return p
}

// run is the slot's process body: open a connection, fetch once, tear
// down, think, repeat. Each network send goes through the kernel transmit
// chain (ip-output trigger states on this client's kernel).
func (s *chSlot) run(p *kernel.Proc) {
	c := s.c
	if !s.started {
		s.started = true
		if d := c.cfg.StartDelay; d > 0 {
			c.H.Engine().After(d, func() { s.wq.WakeOne() })
			p.Sleep(&s.wq, func() { s.run(p) })
			return
		}
	}
	c.nextFlow++
	s.flow = c.cfg.FlowBase + c.nextFlow
	s.got, s.unacked = 0, 0
	s.connected, s.done = false, false
	// One sampling decision per connection, in host-local flow-open order
	// — the draw sequence is invariant under sharding and worker count.
	s.traced = c.FlowTrace.SampleFlow()
	p.Syscall("connect", connectWork, func() {
		p.Chain(c.N.TxChainOf(s.pkt(netstack.Syn, netstack.HeaderBytes)), func() {
			s.awaitConnected(p)
		})
	})
}

// awaitConnected sleeps until the SYNACK arrives, then sends the request.
func (s *chSlot) awaitConnected(p *kernel.Proc) {
	if !s.connected {
		p.Sleep(&s.wq, func() { s.awaitConnected(p) })
		return
	}
	c := s.c
	s.reqStart = c.H.K.Now()
	p.Syscall("sendto", sendWork, func() {
		p.Chain(c.N.TxChainOf(s.pkt(netstack.Request, netstack.HeaderBytes+250)), func() {
			s.awaitResponse(p)
		})
	})
}

// awaitResponse sleeps until the whole response has arrived, then runs the
// recv syscall, records the response, and thinks before reconnecting.
func (s *chSlot) awaitResponse(p *kernel.Proc) {
	if !s.done {
		p.Sleep(&s.wq, func() { s.awaitResponse(p) })
		return
	}
	c := s.c
	p.Syscall("recvfrom", recvWork, func() {
		c.Responses++
		c.ResponseTimes.Add((c.H.K.Now() - s.reqStart).Millis())
		// Think time: sleep, woken by an engine timer (the CPU may halt).
		// At a churn point the slot instead goes dormant for the base-off
		// period plus an exponential draw — the client "leaves" and
		// reconnects later with a fresh flow.
		gap := thinkTime
		if c.cfg.ChurnEvery > 0 {
			s.resp++
			if s.resp >= c.cfg.ChurnEvery {
				s.resp = 0
				c.Churns++
				gap = churnOff + c.rng.ExpTime(churnOff)
			}
		}
		c.H.Engine().After(gap, func() { s.wq.WakeOne() })
		p.Sleep(&s.wq, func() { s.run(p) })
	})
}

// handleRx demultiplexes packets from the server to slots, in kernel
// protocol context. ACKs and the FIN handshake are generated here, as a
// real TCP input path would.
func (c *ClientHost) handleRx(p *netstack.Packet) {
	var slot *chSlot
	for _, s := range c.slots {
		if s.flow == p.Flow {
			slot = s
			break
		}
	}
	if slot == nil {
		return // late packet for a finished connection
	}
	switch p.Kind {
	case netstack.SynAck:
		slot.connected = true
		slot.wq.WakeOne()
	case netstack.Data:
		slot.got++
		if slot.got == 1 && slot.traced {
			c.TTFB[slot.flow] = c.H.K.Now() - slot.reqStart
		}
		slot.unacked++
		if slot.unacked >= 2 || slot.got >= c.cfg.Segments {
			slot.unacked = 0
			ack := slot.pkt(netstack.Ack, netstack.HeaderBytes)
			ack.AckSeq = int64(slot.got)
			c.N.TxFromKernel(ack)
		}
		if slot.got >= c.cfg.Segments && !slot.done {
			slot.done = true
			slot.wq.WakeOne()
		}
	case netstack.Fin:
		// Four-way teardown: ACK the server's FIN and close our side.
		c.N.TxFromKernel(
			slot.pkt(netstack.Ack, netstack.HeaderBytes),
			slot.pkt(netstack.Fin, netstack.HeaderBytes),
		)
	}
}
