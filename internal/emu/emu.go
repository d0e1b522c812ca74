// Package emu binds the simulated soft-timer netstack to real OS sockets —
// the repo's real-time emulation mode. A simulated host (kernel, soft-timer
// facility, NIC, and the httpserv Flash/Apache server model) runs under a
// sim.RealTimeClock driver, so its virtual clock advances 1:1 with the wall
// clock; a real TCP listener feeds accepted connections into the model as
// Syn/Request packets, and the response packets the model transmits —
// paced by the Section 4.1 soft-timer Pacer — are written back to the
// socket as real HTTP bytes.
//
// This closes the loop on the paper's headline claim: trigger-interval and
// pacing measurements taken here come from real syscall returns and real
// elapsed time, directly comparable with Table 1, instead of from the
// virtual-time model. Determinism ends at this package's boundary — see
// DESIGN.md "Clock drivers & emulation mode".
//
// Concurrency model: exactly one goroutine runs the engine (Serve).
// Socket-owning goroutines (accept loop, per-connection readers) never
// touch the simulation directly; every crossing goes through
// RealTimeClock.Inject, which runs the closure on the engine goroutine at
// the wall-mapped virtual instant. The reverse direction — the model
// writing to sockets — happens inline on the engine goroutine via the
// socket bridge endpoint (loopback writes of ≤1448-byte segments do not
// block meaningfully).
package emu

import (
	"fmt"
	"net"
	"sync"
	"time"

	"softtimers/internal/cpu"
	"softtimers/internal/host"
	"softtimers/internal/httpserv"
	"softtimers/internal/kernel"
	"softtimers/internal/netstack"
	"softtimers/internal/nic"
	"softtimers/internal/sim"
	"softtimers/internal/stats"
	"softtimers/internal/topology"
)

// Config configures an emulation server.
type Config struct {
	// Addr is the TCP listen address (default "127.0.0.1:0" — loopback,
	// kernel-assigned port; read the bound address from Server.Addr).
	Addr string
	// Seed seeds the simulated host (default 1).
	Seed uint64
	// Kind selects the server model (default Flash — single-process
	// event-driven, the paper's fast path).
	Kind httpserv.Kind
	// FileBytes is the response body size (default 6144, the paper's 6 KB).
	FileBytes int
	// PacerInterval and PacerBurstInterval configure the soft-timer Pacer
	// clocking response transmission (defaults 100 µs / 20 µs).
	PacerInterval      sim.Time
	PacerBurstInterval sim.Time
	// Slice bounds each engine run between stop-checks (default 50 ms).
	Slice sim.Time
}

func (c *Config) setDefaults() {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.FileBytes == 0 {
		c.FileBytes = 6144
	}
	if c.Slice == 0 {
		c.Slice = 50 * sim.Millisecond
	}
}

// Server is one emulated soft-timer web server bound to a real listener.
type Server struct {
	cfg  Config
	top  *topology.Topology
	hst  *host.Host
	nic  *nic.NIC
	srv  *httpserv.Server
	clk  *sim.RealTimeClock
	prb  *triggerProbe
	ln   net.Listener
	body []byte // response-body filler, sliced per segment

	// conns is engine-goroutine state: flow id → live socket.
	conns map[int]net.Conn

	mu       sync.Mutex // guards nextFlow (accept goroutine) and closed
	nextFlow int
	closed   bool

	stop chan struct{}
	done chan struct{}
}

// New builds the emulated server and binds its listener (so the bound
// address is known before Serve). The simulated host is assembled through
// topology.Build with Clock: ClockRealTime — the same driver-selection
// path stbench uses — which installs the RealTimeClock on the engine and
// hands its wall-mapped time source to the soft-timer facility.
func New(cfg Config) (*Server, error) {
	cfg.setDefaults()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("emu: listen %s: %w", cfg.Addr, err)
	}

	top := topology.Build(topology.Spec{
		Seed:  cfg.Seed,
		Clock: sim.ClockRealTime,
		Hosts: []topology.HostSpec{{
			Name:    "server",
			Profile: cpu.PentiumII300(),
			// IdleLoop stays off: a real process has no busy idle loop to
			// harvest trigger states from; hardclock and the packet path
			// provide them, as on a loaded machine.
		}},
	})
	s := &Server{
		cfg:   cfg,
		top:   top,
		hst:   top.Host("server"),
		clk:   top.RealClock(),
		ln:    ln,
		conns: make(map[int]net.Conn),
		body:  make([]byte, 2048),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for i := range s.body {
		s.body[i] = 'a' + byte(i%26)
	}

	// The NIC transmits straight into the socket bridge: no simulated
	// link in between, so pacing gaps observed on the wire are the
	// pacer's, not a link model's.
	s.nic = s.hst.AddNIC(nic.Config{Name: "emu0"}, netstack.EndpointFunc(s.bridgeDeliver))

	s.srv = httpserv.NewServerMulti(s.hst.K, s.hst.F, []*nic.NIC{s.nic}, httpserv.Config{
		Kind:               cfg.Kind,
		FileBytes:          cfg.FileBytes,
		TxMode:             httpserv.TxPacerPaced,
		PacerInterval:      cfg.PacerInterval,
		PacerBurstInterval: cfg.PacerBurstInterval,
	})

	// Interpose the trigger probe between the kernel and the facility:
	// every trigger state's wall-clock timestamp lands in the interval
	// histogram before the facility's check runs.
	s.prb = newTriggerProbe(s.hst.F)
	s.hst.K.SetTriggerSink(s.prb)

	// Emulation telemetry joins the host registry so snapshots carry it.
	r := s.hst.Metrics()
	r.Adopt("clock.lag_us", s.clk.LagHist)
	r.Adopt("emu.trigger_interval_us", s.prb.hist)
	r.CounterFunc("clock.bursts", s.clk.Bursts)
	r.CounterFunc("clock.injected", s.clk.Injected)
	r.CounterFunc("clock.waits", s.clk.Waits)
	return s, nil
}

// Addr returns the listener's bound address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Host exposes the simulated machine (metrics, facility).
func (s *Server) Host() *host.Host { return s.hst }

// Clock exposes the wall-slaved clock driver (lag accounting).
func (s *Server) Clock() *sim.RealTimeClock { return s.clk }

// Completed returns the number of fully paced-out responses.
func (s *Server) Completed() int64 { return s.srv.Completed }

// TriggerIntervals returns the wall-clock trigger-interval sample (µs),
// the emulation-mode measurement Table 1 reports for real kernels.
func (s *Server) TriggerIntervals() *stats.Sample { return s.prb.sample }

// TriggerHist returns the trigger-interval histogram (µs buckets).
func (s *Server) TriggerHist() *stats.Histogram { return s.prb.hist }

// Serve runs the emulation until Stop: the accept loop on its own
// goroutine, the engine loop here. The engine runs in bounded slices; with
// the RealTimeClock installed each slice sleeps as needed, so an idle
// server consumes no CPU between hardclock ticks.
func (s *Server) Serve() {
	defer close(s.done)
	s.hst.Start()
	s.srv.Start()
	go s.acceptLoop()
	for {
		select {
		case <-s.stop:
			return
		default:
			s.top.RunFor(s.cfg.Slice)
		}
	}
}

// Stop shuts the emulation down: closes the listener (unblocking accept),
// stops the engine loop after its current slice, and waits for it.
func (s *Server) Stop() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.ln.Close()
	close(s.stop)
	// Wake the engine if it is mid-sleep inside the current slice.
	s.clk.Inject(func() {})
	<-s.done
}

// acceptLoop owns the listener: each accepted socket gets a flow id and a
// reader goroutine. Runs until the listener closes.
func (s *Server) acceptLoop() {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		s.nextFlow++
		flow := s.nextFlow
		s.mu.Unlock()
		go s.readLoop(flow, c)
	}
}

// readLoop owns one socket's read side. It injects the connection into the
// model as a Syn, then each request (bytes up to a blank line) as a
// Request packet, and on EOF a Fin — so the model's connection table never
// leaks. All packet construction happens inside injected closures, on the
// engine goroutine, because arenas are single-goroutine.
func (s *Server) readLoop(flow int, c net.Conn) {
	s.clk.Inject(func() {
		s.conns[flow] = c
		s.inject(flow, netstack.Syn, 52, 0)
	})
	buf := make([]byte, 4096)
	pending := 0 // request bytes seen since the last blank line
	var hdr headerEnd
	for {
		n, err := c.Read(buf)
		if n > 0 {
			pending += n
			if hdr.scan(buf[:n]) {
				size := pending
				pending = 0
				s.clk.Inject(func() { s.inject(flow, netstack.Request, size, 0) })
			}
		}
		if err != nil {
			s.clk.Inject(func() {
				s.inject(flow, netstack.Fin, 52, 0)
				// The model acked the Fin and dropped the connection; the
				// socket may already be closed by the bridge (server Fin).
				if ec := s.conns[flow]; ec != nil {
					ec.Close()
					delete(s.conns, flow)
				}
			})
			return
		}
	}
}

// inject delivers one client packet to the NIC (engine goroutine only).
func (s *Server) inject(flow int, kind netstack.Kind, size, payload int) {
	p := s.hst.Arena().Get()
	p.Flow, p.Kind, p.Size, p.Payload = flow, kind, size, payload
	s.nic.Deliver(p)
}

// headerEnd finds HTTP header terminators ("\r\n\r\n") in a byte stream
// that arrives in arbitrary pieces. It carries a partial match from one
// read to the next, so a terminator split across reads is still seen.
type headerEnd struct {
	matched int // bytes of "\r\n\r\n" matched at the end of the stream so far
}

// scan consumes the next piece of the stream and reports whether a
// terminator ended inside it.
func (h *headerEnd) scan(b []byte) bool {
	found := false
	for _, c := range b {
		switch {
		case c == '\r' && h.matched == 2:
			h.matched = 3
		case c == '\r':
			h.matched = 1
		case c == '\n' && (h.matched == 1 || h.matched == 3):
			h.matched++
			if h.matched == 4 {
				found, h.matched = true, 0
			}
		default:
			h.matched = 0
		}
	}
	return found
}

// bridgeDeliver is the socket bridge: the endpoint the simulated NIC
// transmits into, translating model packets to socket bytes. It runs on
// the engine goroutine during paced transmission events; per the endpoint
// contract it owns and releases every delivered packet.
func (s *Server) bridgeDeliver(p *netstack.Packet) {
	defer s.hst.Arena().Release(p)
	c := s.conns[p.Flow]
	if c == nil {
		return // teardown race: model reply after the socket went away
	}
	switch p.Kind {
	case netstack.Data:
		if p.Seq == 0 {
			// The header segment becomes a real HTTP response header so
			// ordinary clients (curl, net/http) understand the stream.
			fmt.Fprintf(c, "HTTP/1.0 200 OK\r\nContent-Length: %d\r\nConnection: close\r\n\r\n", s.cfg.FileBytes)
			return
		}
		// Body segments carry filler at the model's paced cadence.
		b := s.body
		for n := p.Payload; n > 0; n -= len(b) {
			if n < len(b) {
				b = b[:n]
			}
			if _, err := c.Write(b); err != nil {
				return
			}
		}
	case netstack.Fin:
		c.Close()
		delete(s.conns, p.Flow)
	}
	// SynAck and Ack segments are pure model bookkeeping: TCP handshake
	// and acknowledgment are the real kernel's job out here.
}

// triggerProbe interposes on the kernel's trigger sink, timestamping every
// trigger state with the wall clock and recording the interval since the
// previous one — the paper's Table 1 measurement, taken from real syscall
// returns and interrupt exits (as emulated by the model's schedule) rather
// than from virtual time.
type triggerProbe struct {
	sink   kernel.TriggerSink
	nowFn  func() time.Time
	last   time.Time
	hist   *stats.Histogram // µs buckets
	sample *stats.Sample
}

func newTriggerProbe(sink kernel.TriggerSink) *triggerProbe {
	return &triggerProbe{
		sink:   sink,
		nowFn:  time.Now,
		hist:   stats.NewHistogram(1, 2000),
		sample: &stats.Sample{},
	}
}

// Trigger implements kernel.TriggerSink.
func (tp *triggerProbe) Trigger(src kernel.Source, now sim.Time) sim.Time {
	w := tp.nowFn()
	if !tp.last.IsZero() {
		us := float64(w.Sub(tp.last)) / float64(time.Microsecond)
		tp.hist.Add(us)
		tp.sample.Add(us)
	}
	tp.last = w
	return tp.sink.Trigger(src, now)
}
