// Package emu binds the simulated soft-timer netstack to real OS sockets —
// the repo's real-time emulation mode. A simulated host (kernel, soft-timer
// facility, NIC, and the httpserv Flash/Apache server model) runs paced by
// a Clock, so its virtual clock advances 1:1 with the wall clock; a real
// TCP listener feeds accepted connections into the model as Syn/Request
// packets, and the response packets the model transmits — paced by the
// Section 4.1 soft-timer Pacer — are written back to the socket as real
// HTTP bytes.
//
// This closes the loop on the paper's headline claim: trigger-interval and
// pacing measurements taken here come from real syscall returns and real
// elapsed time, directly comparable with Table 1, instead of from the
// virtual-time model. Determinism ends at this package's boundary — see
// DESIGN.md "Emulation clock".
//
// Concurrency model: exactly one goroutine runs the engine (Serve).
// Socket-owning goroutines (accept loop, per-connection readers) never
// touch the simulation directly; every crossing goes through Clock.Inject,
// which runs the closure on the engine goroutine at the wall-mapped
// virtual instant. The reverse direction — the model writing to sockets —
// happens inline on the engine goroutine via the socket bridge endpoint
// (loopback writes of ≤1448-byte segments do not block meaningfully).
package emu

import (
	"fmt"
	"net"
	"sync"
	"time"

	"softtimers/internal/core"
	"softtimers/internal/cpu"
	"softtimers/internal/host"
	"softtimers/internal/httpserv"
	"softtimers/internal/kernel"
	"softtimers/internal/metrics"
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
}

// Server is one emulated soft-timer web server bound to a real listener.
type Server struct {
	cfg  Config
	top  *topology.Topology
	hst  *host.Host
	nic  *nic.NIC
	srv  *httpserv.Server
	clk  *Clock
	prb  *triggerProbe
	ln   net.Listener
	body []byte // response-body filler, sliced per segment

	// conns is engine-goroutine state: flow id → live socket.
	conns map[int]net.Conn

	// mu guards the socket side: the flow counter, every accepted socket
	// still open (so Stop can close it), and the serving and closed flags.
	mu       sync.Mutex
	nextFlow int
	accepted map[net.Conn]struct{}
	serving  bool
	closed   bool

	stop  chan struct{}
	done  chan struct{}
	socks sync.WaitGroup // the accept loop and every reader
}

// New builds the emulated server and binds its listener (so the bound
// address is known before Serve). The simulated host is an ordinary
// one-host topology whose soft-timer facility measures on the Clock's
// wall-mapped time.
func New(cfg Config) (*Server, error) {
	cfg.setDefaults()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("emu: listen %s: %w", cfg.Addr, err)
	}

	clk := newClock(time.Now, wallSleep)
	top := topology.Build(topology.Spec{
		Seed: cfg.Seed,
		Hosts: []topology.HostSpec{{
			Name:     "server",
			Profile:  cpu.PentiumII300(),
			Facility: core.Options{TimeSource: clk.VirtualNow},
			// IdleLoop stays off: a real process has no busy idle loop to
			// harvest trigger states from; hardclock and the packet path
			// provide them, as on a loaded machine.
		}},
	})
	s := &Server{
		cfg:      cfg,
		top:      top,
		hst:      top.Host("server"),
		clk:      clk,
		ln:       ln,
		conns:    make(map[int]net.Conn),
		accepted: make(map[net.Conn]struct{}),
		body:     make([]byte, 2048),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
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
	s.prb = &triggerProbe{sink: s.hst.F, intervals: Intervals{hist: stats.NewHistogram(1, 20_000)}}
	s.hst.K.SetTriggerSink(s.prb)

	// Emulation telemetry joins the host registry so snapshots carry it.
	r := s.hst.Metrics()
	r.Adopt("clock.lag_us", s.clk.LagHist)
	r.Adopt("emu.trigger_interval_us", s.prb.intervals.hist)
	r.Register(s)
	return s, nil
}

// Report implements metrics.Reporter: the clock's pacing counters.
func (s *Server) Report(w metrics.Writer) {
	w.Counter("clock.bursts", s.clk.Bursts())
	w.Counter("clock.injected", s.clk.Injected())
	w.Counter("clock.waits", s.clk.Waits())
}

// Addr returns the listener's bound address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Host exposes the simulated machine (metrics, facility).
func (s *Server) Host() *host.Host { return s.hst }

// Clock exposes the wall clock pacing the engine (lag accounting).
func (s *Server) Clock() *Clock { return s.clk }

// Completed returns the number of fully paced-out responses.
func (s *Server) Completed() int64 { return s.srv.Completed }

// TriggerIntervals returns the wall-clock trigger-interval distribution
// (µs), the emulation-mode measurement Table 1 reports for real kernels.
func (s *Server) TriggerIntervals() *Intervals { return &s.prb.intervals }

// Serve runs the emulation until Stop: the accept loop on its own
// goroutine, the engine here, paced by the Clock, which sleeps between
// events, so an idle server consumes no CPU between hardclock ticks.
// After Stop it returns at once, without starting the engine.
func (s *Server) Serve() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.serving = true
	s.mu.Unlock()
	defer close(s.done)
	s.hst.Start()
	s.srv.Start()
	s.socks.Add(1)
	go s.acceptLoop()
	s.clk.run(s.top.Eng, s.stop)
}

// Stop shuts the emulation down: closes the listener (unblocking accept)
// and every accepted socket (unblocking its reader), stops the engine
// loop after its current pass, and waits for the engine loop, the accept
// loop and every reader to return. On a server that was never served it
// only closes the listener.
func (s *Server) Stop() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	serving := s.serving
	for c := range s.accepted {
		c.Close()
	}
	s.mu.Unlock()
	s.ln.Close()
	if !serving {
		return
	}
	close(s.stop)
	s.clk.poke() // the engine may be asleep
	<-s.done
	s.socks.Wait()
}

// acceptLoop owns the listener: each accepted socket gets a flow id and a
// reader goroutine. Runs until the listener closes; a socket accepted
// after Stop is closed at once.
func (s *Server) acceptLoop() {
	defer s.socks.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.nextFlow++
		flow := s.nextFlow
		s.accepted[c] = struct{}{}
		s.mu.Unlock()
		s.socks.Add(1)
		go s.readLoop(flow, c)
	}
}

// readLoop owns one socket's read side. It injects the connection into the
// model as a Syn, then each request (bytes up to a blank line) as a
// Request packet, and on EOF a Fin — so the model's connection table never
// leaks. All packet construction happens inside injected closures, on the
// engine goroutine, because arenas are single-goroutine.
func (s *Server) readLoop(flow int, c net.Conn) {
	defer s.socks.Done()
	s.clk.Inject(func() {
		s.conns[flow] = c
		s.inject(flow, netstack.Syn, netstack.HeaderBytes, 0)
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
			s.mu.Lock()
			delete(s.accepted, c)
			s.mu.Unlock()
			s.clk.Inject(func() {
				s.inject(flow, netstack.Fin, netstack.HeaderBytes, 0)
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
	defer p.Release()
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
	sink      kernel.TriggerSink
	last      time.Time
	intervals Intervals
}

// Trigger implements kernel.TriggerSink.
func (tp *triggerProbe) Trigger(src kernel.Source, now sim.Time) sim.Time {
	w := time.Now()
	if !tp.last.IsZero() {
		tp.intervals.add(float64(w.Sub(tp.last)) / float64(time.Microsecond))
	}
	tp.last = w
	return tp.sink.Trigger(src, now)
}

// Intervals is the trigger-interval distribution in µs: a histogram of
// 1 µs buckets up to 20 ms, which allocates buckets only as far as the
// values reach, and the exact maximum. Its size does not grow with the
// run's length.
type Intervals struct {
	hist *stats.Histogram
	max  float64
}

func (d *Intervals) add(us float64) {
	d.hist.Add(us)
	d.max = max(d.max, us)
}

// N returns the number of intervals recorded.
func (d *Intervals) N() int64 { return d.hist.N() }

// Mean returns the exact mean interval.
func (d *Intervals) Mean() float64 { return d.hist.Mean() }

// Median returns Percentile(50).
func (d *Intervals) Median() float64 { return d.Percentile(50) }

// Percentile returns the p-th percentile, p in [0, 100], interpolated
// within its 1 µs bucket and capped at the maximum; Percentile(100) is
// the exact maximum.
func (d *Intervals) Percentile(p float64) float64 {
	if p >= 100 {
		return d.max
	}
	return min(d.hist.Quantile(p/100), d.max)
}
