// Package netstack models the network between hosts: packets, links with
// bandwidth and propagation delay, FIFO queues, and a store-and-forward
// router used as the paper's laboratory "WAN emulator" — an intermediate
// machine that delays each forwarded packet so as to emulate a WAN with a
// given delay and bottleneck bandwidth (Section 5.8).
//
// Everything is event-driven on a sim.Engine; there are no real sockets.
package netstack

import (
	"softtimers/internal/faults"
	"softtimers/internal/flowtrace"
	"softtimers/internal/metrics"
	"softtimers/internal/sim"
)

// Kind classifies packets for the protocol layers above.
type Kind int

const (
	// Data carries payload segments.
	Data Kind = iota
	// Ack is a pure acknowledgment.
	Ack
	// Syn, SynAck and Fin mark connection control packets.
	Syn
	SynAck
	Fin
	// Request is an application request (e.g. an HTTP GET).
	Request
)

var kindNames = [...]string{"data", "ack", "syn", "synack", "fin", "request"}

// String names the kind.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return "unknown"
	}
	return kindNames[k]
}

// Addr is a host address on the simulated network. Topologies assign
// addresses in host-creation order starting at 1; the zero value means
// "unaddressed" and is what single-host rigs (which never consult
// addresses) leave in place. A switch receiving a packet for an unknown
// address — including 0 — counts a miss and drops it.
type Addr int

// The paper's LAN: 1448-byte TCP segments behind 52 bytes of headers, on
// 100 Mbps switched Ethernet with a 30 µs one-way wire delay.
const (
	// MSS is the TCP payload bytes per segment.
	MSS = 1448
	// HeaderBytes is every packet's TCP/IP and framing overhead.
	HeaderBytes = 52
	// LANBps is a LAN wire's bandwidth in bits per second.
	LANBps = 100_000_000
	// LANDelay is a LAN wire's one-way propagation delay.
	LANDelay = 30 * sim.Microsecond
)

// Packet is a network packet. Sequence numbers are in whole segments, the
// unit the paper's tables use (packets of MSS payload bytes).
type Packet struct {
	Flow     int  // connection identifier
	Src, Dst Addr // host addresses, for switched (multi-node) topologies
	Kind     Kind
	Seq      int64 // segment index for Data; meaningless otherwise
	AckSeq   int64 // cumulative segments acknowledged, for Ack
	Size     int   // wire size in bytes (payload + headers)
	Payload  int   // payload bytes
	SentAt   sim.Time

	// Mark flags the last packet of a paced response train (protocol
	// bookkeeping kept in a value field, so the hot path allocates
	// nothing).
	Mark bool

	// Trace is the packet's flowtrace span, nil unless the flow was
	// sampled. The span rides the packet everywhere — across shards with
	// it through the Courier (the round-barrier conduit flush orders the
	// hand-off) — and every hop site is a nil-receiver method
	// call, so untraced packets pay one pointer test per hop. The arena
	// that carved the packet finishes the span when the packet is
	// released; dup-fault clones are untraced (Clone clears the field).
	Trace *flowtrace.Span

	// Arena bookkeeping (see arena.go). Zero for literal packets; home is
	// the arena that carved the packet, the one Release returns it to; ref
	// is 1 while the packet is handed out; gen counts its releases.
	home *Arena
	ref  int32
	gen  uint32
	next *Packet
}

// Endpoint receives packets: a host's input path or the next hop.
type Endpoint interface {
	Deliver(p *Packet)
}

// EndpointFunc adapts a function to the Endpoint interface.
type EndpointFunc func(p *Packet)

// Deliver implements Endpoint.
func (f EndpointFunc) Deliver(p *Packet) { f(p) }

// Courier ships packet deliveries whose receiving endpoint lives on
// another simulation shard. Ship examines p at transmit time; if its
// delivery belongs elsewhere it arranges execution there at time at (the
// full arrival instant, serialization plus propagation — so the link's
// propagation delay is the channel's lookahead), under the same
// (conduit, seq) arrival-band key the link would have used locally, and
// returns true. A false return leaves delivery on the local engine.
// Topologies above one shard install one per cross-capable link;
// one-shard rigs leave it nil and pay one pointer test.
type Courier interface {
	Ship(p *Packet, at sim.Time, conduit int32, seq uint64) bool
}

// Link is a one-way link with finite bandwidth and fixed propagation delay,
// feeding an Endpoint (the receiving host or the next link in a path). A
// packet that arrives while earlier packets are still serializing queues
// behind them (store-and-forward); an optional queue limit drops the tail.
type Link struct {
	Name string

	// Courier, when set, gets first claim on each delivery at transmit
	// time (sharded topologies route cross-shard arrivals through it).
	// It is only consulted on links with an ArrivalConduit.
	Courier Courier

	// ArrivalConduit, when non-negative, routes this link's deliveries
	// through the engine's arrival band: each arrival is keyed (time,
	// conduit, seq) and fires after every ordinarily scheduled event at
	// the same instant, wherever the receiver lives. Topologies assign
	// conduit ids in assembly order, so the key — and with it the order of
	// same-instant arrivals — is identical at any shard count, which is
	// what makes sharded runs replay the one-shard event history
	// exactly. NewLink sets -1: plain engine-event delivery.
	ArrivalConduit int32

	// TraceLoc is this link's flowtrace location id (0 = unregistered);
	// topologies assign ids in assembly order when flow tracing is on.
	TraceLoc int32

	eng   *sim.Engine
	bps   int64
	delay sim.Time
	dst   Endpoint

	// MaxQueue bounds the number of packets queued for serialization
	// (0 = unbounded, the default — the paper's WAN runs are loss-free).
	MaxQueue int

	// Faults, when set, is this link's fault-injection channel: packets
	// may be dropped after serialization, duplicated, or held back by a
	// bounded extra delay so later packets overtake them. Nil injects
	// nothing (one pointer test on the send path).
	Faults *faults.LinkPlan

	busyUntil  sim.Time
	queued     int
	arrivalSeq uint64 // per-conduit send counter, drawn at transmit time

	// arena, when set, is the pool dup clones come from. Nil clones to
	// heap literals.
	arena *Arena

	// Pooled delivery records and precomputed labels keep the per-packet
	// send path allocation-free: each in-flight delivery borrows a record
	// whose closure was bound once, and recycles it when it fires.
	freeDel *delivery
	relFn   func() // bound once: the sender-side serialization-slot release
	label   string // "link:<name>"
	labLost string
	labDup  string

	// Counters.
	Sent    int64
	Dropped int64
	Bytes   int64
	// Lost, Duplicated and Reordered count injected faults (distinct from
	// Dropped, which counts queue-limit tail drops).
	Lost       int64
	Duplicated int64
	Reordered  int64
	// MaxQueued tracks the high-water mark of the serialization queue.
	MaxQueued int
}

// NewLink creates a link of bps bits/second and the given one-way
// propagation delay, delivering into dst.
func NewLink(eng *sim.Engine, name string, bps int64, delay sim.Time, dst Endpoint) *Link {
	if bps <= 0 {
		panic("netstack: link bandwidth must be positive")
	}
	if dst == nil {
		panic("netstack: link needs a destination")
	}
	l := &Link{Name: name, eng: eng, bps: bps, delay: delay, dst: dst, ArrivalConduit: -1}
	l.label = "link:" + name
	l.labLost = l.label + ":lost"
	l.labDup = l.label + ":dup"
	l.relFn = func() { l.queued-- }
	return l
}

// SetArena attaches the packet arena dup faults clone from. Topologies
// wire the link's engine-local arena here.
func (l *Link) SetArena(a *Arena) { l.arena = a }

// delivery is one in-flight packet arrival: a pooled record whose run
// closure was bound at creation, so scheduling an arrival allocates
// nothing. A record is busy from scheduling until its event fires, then
// recycles itself before delivering (safe: delivery can trigger nested
// sends on other links, never a synchronous reuse of this record's
// pending event).
type delivery struct {
	l       *Link
	p       *Packet
	release bool
	next    *delivery
	fn      func()
}

func (l *Link) getDelivery(p *Packet, release bool) *delivery {
	d := l.freeDel
	if d == nil {
		d = &delivery{l: l}
		d.fn = d.run
	} else {
		l.freeDel = d.next
	}
	d.p = p
	d.release = release
	return d
}

func (d *delivery) run() {
	l, p, rel := d.l, d.p, d.release
	d.p = nil
	d.next = l.freeDel
	l.freeDel = d
	if rel {
		l.queued--
	}
	p.Trace.Hop(flowtrace.HopLinkRx, l.TraceLoc, l.eng.Now())
	l.dst.Deliver(p)
}

// RegisterMetrics registers the link on a telemetry registry, which then
// reports its counters under link.<Name>. (Report). Call once per link.
func (l *Link) RegisterMetrics(r *metrics.Registry) { r.Register(l) }

// Report implements metrics.Reporter.
func (l *Link) Report(w metrics.Writer) {
	w = w.In("link." + l.Name + ".")
	w.Counter("sent", l.Sent)
	w.Counter("dropped", l.Dropped)
	w.Counter("bytes", l.Bytes)
	w.Counter("lost", l.Lost)
	w.Counter("duplicated", l.Duplicated)
	w.Counter("reordered", l.Reordered)
	w.Gauge("queue_hwm", int64(l.MaxQueued))
}

// Delay returns the one-way propagation delay.
func (l *Link) Delay() sim.Time { return l.delay }

// TxTime returns the serialization time of a packet of n bytes.
func (l *Link) TxTime(n int) sim.Time {
	return sim.Time(int64(n) * 8 * int64(sim.Second) / l.bps)
}

// Send enqueues p for transmission, consuming it: ownership passes to
// the link, which releases the packet on any drop and otherwise hands it
// to the destination endpoint at arrival time. It returns false if the
// queue limit dropped the packet.
func (l *Link) Send(p *Packet) bool {
	if l.MaxQueue > 0 && l.queued >= l.MaxQueue {
		l.Dropped++
		p.Release()
		return false
	}
	now := l.eng.Now()
	start := l.busyUntil
	if start < now {
		start = now
	}
	done := start + l.TxTime(p.Size)
	l.busyUntil = done
	l.queued++
	if l.queued > l.MaxQueued {
		l.MaxQueued = l.queued
	}
	l.Sent++
	l.Bytes += int64(p.Size)
	p.Trace.Hop(flowtrace.HopLinkTx, l.TraceLoc, start)
	if l.Faults != nil {
		// Draw order is fixed (drop, then duplicate, then reorder) so a
		// link's fault sequence depends only on its own packet order.
		if l.Faults.Drop() {
			// The packet consumed wire time but never arrives; the slot
			// still frees when serialization would have finished.
			l.Lost++
			l.eng.AtLabeled(done, l.labLost, l.relFn)
			p.Release()
			return true
		}
		dup := l.Faults.Duplicate()
		extra := l.Faults.ReorderDelay()
		if extra > 0 {
			l.Reordered++
		}
		l.deliver(p, done+l.delay+extra, l.label, true)
		if dup {
			// The copy takes the undelayed path, arriving with (or ahead
			// of) the original. It is a distinct packet — cloned through
			// the arena, never a struct copy that would alias pool state —
			// and the receiver releases it like any other arrival.
			l.Duplicated++
			l.deliver(l.arena.Clone(p), done+l.delay, l.labDup, false)
		}
		return true
	}
	l.deliver(p, done+l.delay, l.label, true)
	return true
}

// deliver schedules p's arrival at time at; release frees the packet's
// serialization slot then. On a conduit-assigned link the arrival itself
// goes into the engine's arrival band under the (conduit, seq) key — or
// across shards via the courier, which injects it into the destination
// engine under the same key — and the slot release stays an ordinary
// sender-side event; either way the delivery is one arrival event on the
// receiver's engine plus at most one release event on the sender's, so
// event totals and same-instant ordering match the one-shard path
// exactly. Conduit-less links keep the plain one-event path.
func (l *Link) deliver(p *Packet, at sim.Time, label string, release bool) {
	if l.ArrivalConduit >= 0 {
		// The seq draw happens at transmit time in link send order, which
		// is sender-local and therefore identical at any shard count.
		l.arrivalSeq++
		seq := l.arrivalSeq
		if l.Courier == nil || !l.Courier.Ship(p, at, l.ArrivalConduit, seq) {
			d := l.getDelivery(p, false)
			l.eng.AtArrival(at, l.ArrivalConduit, seq, label, d.fn)
		}
		if release {
			l.eng.AtLabeled(at, label, l.relFn)
		}
		return
	}
	d := l.getDelivery(p, release)
	l.eng.AtLabeled(at, label, d.fn)
}

// Deliver implements Endpoint so links can be chained into paths: a packet
// delivered to a link is forwarded (store-and-forward) onto it.
func (l *Link) Deliver(p *Packet) { l.Send(p) }

// Path is a convenience for a chain of links; sending on the path sends on
// the first link, which forwards through the rest.
type Path struct {
	links []*Link
}

// NewPath chains links head-to-tail: each link's destination must already
// be the next link (or the final endpoint).
func NewPath(links ...*Link) *Path {
	if len(links) == 0 {
		panic("netstack: empty path")
	}
	return &Path{links: links}
}

// RegisterMetrics registers every link on the path with r.
func (p *Path) RegisterMetrics(r *metrics.Registry) {
	for _, l := range p.links {
		l.RegisterMetrics(r)
	}
}

// InstallFaults attaches a fault channel — named after each link — to every
// link on the path. A nil plan installs nothing.
func (p *Path) InstallFaults(plan *faults.Plan) {
	if plan == nil {
		return
	}
	for _, l := range p.links {
		l.Faults = plan.Link(l.Name)
	}
}

// Hops returns the number of links on the path.
func (p *Path) Hops() int { return len(p.links) }

// Hop returns the i-th link (0 = first hop). Faulting a single hop keeps
// the end-to-end loss rate equal to the per-link rate instead of
// compounding across hops.
func (p *Path) Hop(i int) *Link { return p.links[i] }

// Send transmits on the path's first link.
func (p *Path) Send(pkt *Packet) bool { return p.links[0].Send(pkt) }

// Deliver implements Endpoint.
func (p *Path) Deliver(pkt *Packet) { p.Send(pkt) }

// WANEmulator builds the paper's laboratory WAN: a duplex path between two
// endpoints through an emulated bottleneck router. Each direction is a
// 100 Mbps access link into the router followed by a bottleneck link of the
// configured bandwidth carrying half the round-trip delay.
type WANEmulator struct {
	// AtoB and BtoA are the directional paths.
	AtoB, BtoA *Path
}

// NewWANEmulator wires endpoints a and b through an emulated WAN with the
// given bottleneck bandwidth and total round-trip propagation delay.
// accessBps is the LAN speed of the end hosts' links into the emulator
// (the paper used 100 Mbps Ethernet).
func NewWANEmulator(eng *sim.Engine, accessBps, bottleneckBps int64, rtt sim.Time, a, b Endpoint) *WANEmulator {
	half := rtt / 2
	mkDir := func(name string, dst Endpoint) *Path {
		bottleneck := NewLink(eng, name+"-wan", bottleneckBps, half, dst)
		access := NewLink(eng, name+"-lan", accessBps, 30*sim.Microsecond, bottleneck)
		return NewPath(access, bottleneck)
	}
	return &WANEmulator{
		AtoB: mkDir("a2b", b),
		BtoA: mkDir("b2a", a),
	}
}

// InstallFaults attaches fault channels to every link in both directions.
func (w *WANEmulator) InstallFaults(plan *faults.Plan) {
	w.AtoB.InstallFaults(plan)
	w.BtoA.InstallFaults(plan)
}
