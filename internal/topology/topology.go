// Package topology assembles multi-node networks of simulated hosts on a
// deterministic sim.ShardGroup: named hosts (package host), duplex links
// with finite bandwidth and delay, and switches forwarding by destination
// address. The paper's Section 5.8 "WAN emulator" intermediate is
// netstack.WANEmulator.
//
// The paper's testbed is inherently multi-machine — server and client
// fleet are full FreeBSD hosts — so soft-timer behaviour is measurable on
// both ends of a flow: every host has its own kernel, trigger states,
// soft-timer facility, fault plan, and telemetry namespace. The group has
// one shard unless asked for more; at any shard count the merged event
// history, and so every result, is the one-shard history.
//
// Assembly comes in two forms: the imperative primitives here (AddHost,
// AttachNIC, Join) used where exact wiring order matters, and the
// declarative Spec/Build layer in spec.go for N-node topologies
// (server + K client hosts).
package topology

import (
	"fmt"
	"io"

	"softtimers/internal/flowtrace"
	"softtimers/internal/host"
	"softtimers/internal/metrics"
	"softtimers/internal/netstack"
	"softtimers/internal/nic"
	"softtimers/internal/sim"
	"softtimers/internal/trace"
)

// Topology is one multi-node network on a sim.ShardGroup, with one
// engine per shard and hosts distributed across them.
type Topology struct {
	// Eng is shard 0's engine, seeded exactly as a bare NewEngine(seed),
	// which the single-host paper rigs drive directly. A one-shard group's
	// clock follows it (sim.ShardGroup.Now).
	Eng *sim.Engine

	group     *sim.ShardGroup
	seed      uint64
	place     map[string]int // Build's forced fabric placement; others round-robin
	shardOf   []int          // per host, in add (address) order
	conduits  int32          // arrival-band conduit ids, allocated in join order
	finalized bool
	arenas    []*netstack.Arena // one packet pool per shard

	hosts    []*host.Host
	byName   map[string]*host.Host
	addrs    map[string]netstack.Addr
	ports    map[string][]*Port
	switches []*Switch
	fabrics  []*Fabric
	tracers  []*trace.Buffer // per host, when tracing is enabled

	flow      *FlowTrace   // flow-span tracing, when enabled
	series    []*seriesRec // per-host series, when enabled
	seriesIvl sim.Time

	totals *metrics.Registry // the topology's own reporter (Report)
}

// New creates an empty topology on g. seed derives every host's private
// RNG streams (with the host name, never from an engine), which is what
// keeps results identical at any shard count.
func New(g *sim.ShardGroup, seed uint64) *Topology {
	t := &Topology{
		Eng:    g.Engine(0),
		group:  g,
		seed:   seed,
		arenas: make([]*netstack.Arena, g.N()),
		byName: make(map[string]*host.Host),
		addrs:  make(map[string]netstack.Addr),
		ports:  make(map[string][]*Port),
	}
	for i := range t.arenas {
		t.arenas[i] = netstack.NewArena()
	}
	t.totals = metrics.NewRegistry()
	t.totals.Register(t)
	return t
}

// Group returns the shard group the topology runs on.
func (t *Topology) Group() *sim.ShardGroup { return t.group }

// sharded reports whether hosts are spread over more than one engine.
// Only then does a switch hop need couriers, shard views and its
// address-to-shard map; a one-shard topology runs the local packet path.
func (t *Topology) sharded() bool { return t.group.N() > 1 }

// Arena returns the packet pool for a shard. Every host, link and switch
// assembled on that shard's engine shares it, so the steady-state packet
// path allocates nothing.
func (t *Topology) Arena(shard int) *netstack.Arena { return t.arenas[shard] }

// HostShard returns the shard the named host runs on (0 for unknown
// names).
func (t *Topology) HostShard(name string) int {
	a := t.addrs[name]
	if a == 0 {
		return 0
	}
	return t.shardOf[int(a)-1]
}

// AddHost builds a named host and assigns it the next address (1-based,
// in add order — deterministic for a fixed assembly sequence). Hosts go
// round-robin over the shards by add index, except fabric members, which
// Build places on their leaf's shard. Duplicate or empty names panic:
// addresses and metrics namespaces key on them.
func (t *Topology) AddHost(cfg host.Config) *host.Host {
	if cfg.Name == "" {
		panic("topology: host needs a name")
	}
	if _, dup := t.byName[cfg.Name]; dup {
		panic(fmt.Sprintf("topology: duplicate host %q", cfg.Name))
	}
	shard, ok := t.place[cfg.Name]
	if !ok {
		shard = len(t.hosts) % t.group.N()
	}
	if cfg.Seed == 0 {
		// Per-host RNG streams derive from (topology seed, name) — never
		// from an engine's stream — so they are identical on whichever
		// shard the host runs.
		cfg.Seed = t.seed
	}
	h := host.New(t.group.Engine(shard), cfg)
	h.SetArena(t.Arena(shard))
	t.hosts = append(t.hosts, h)
	t.shardOf = append(t.shardOf, shard)
	t.byName[cfg.Name] = h
	t.addrs[cfg.Name] = netstack.Addr(len(t.hosts))
	return h
}

// Host returns the named host, or nil.
func (t *Topology) Host(name string) *host.Host { return t.byName[name] }

// Hosts returns every host in add order.
func (t *Topology) Hosts() []*host.Host { return t.hosts }

// Addr returns the named host's address (0 if unknown).
func (t *Topology) Addr(name string) netstack.Addr { return t.addrs[name] }

// Port is one host interface plus its duplex wiring: Down carries the
// host's transmissions toward the peer, Up delivers the peer's packets into
// the NIC.
type Port struct {
	NIC  *nic.NIC
	Down *netstack.Link
	Up   *netstack.Link
}

// Ports returns a host's ports in attach order.
func (t *Topology) Ports(h *host.Host) []*Port { return t.ports[h.Name] }

// WireSpec describes one duplex attachment: its link rate (default
// netstack.LANBps; every wire has netstack.LANDelay's one-way delay) and
// the two link names, which key the host fault plan's link.<name> channels
// and the link metrics on the host registry.
type WireSpec struct {
	Bps int64
	// DownName/UpName name the transmit/receive links. Empty names default
	// to <host>.<nic>.down / .up.
	DownName, UpName string
}

// AttachNIC wires a new interface on h to peer with a duplex link pair, in
// the exact order the single-server testbed always used (down link, NIC,
// up link — construction order is part of the determinism contract).
func (t *Topology) AttachNIC(h *host.Host, nicCfg nic.Config, peer netstack.Endpoint, w WireSpec) *Port {
	if w.Bps == 0 {
		w.Bps = netstack.LANBps
	}
	if w.DownName == "" {
		w.DownName = h.Name + "." + nicCfg.Name + ".down"
	}
	if w.UpName == "" {
		w.UpName = h.Name + "." + nicCfg.Name + ".up"
	}
	plan, reg := h.Faults(), h.Metrics()
	// Links live on the owning host's engine.
	eng := h.Engine()
	down := netstack.NewLink(eng, w.DownName, w.Bps, netstack.LANDelay, peer)
	if plan != nil {
		down.Faults = plan.Link("link." + w.DownName)
	}
	down.SetArena(h.Arena())
	down.RegisterMetrics(reg)
	n := h.AddNIC(nicCfg, down)
	up := netstack.NewLink(eng, w.UpName, w.Bps, netstack.LANDelay, n)
	if plan != nil {
		up.Faults = plan.Link("link." + w.UpName)
	}
	up.SetArena(h.Arena())
	up.RegisterMetrics(reg)
	p := &Port{NIC: n, Down: down, Up: up}
	t.ports[h.Name] = append(t.ports[h.Name], p)
	return p
}

// AddSwitch creates a named switch on the topology.
func (t *Topology) AddSwitch(name string) *Switch {
	sw := NewSwitch(name)
	if t.sharded() {
		sw.shardOf = make(map[netstack.Addr]int)
	}
	t.switches = append(t.switches, sw)
	return sw
}

// Join connects a host to a switch: a duplex link pair plus a forwarding
// entry so packets addressed to the host are switched onto its receive
// link. Link names default to <switch>.<host>.up/.down.
func (t *Topology) Join(sw *Switch, h *host.Host, nicCfg nic.Config, w WireSpec) *Port {
	if w.DownName == "" {
		w.DownName = sw.Name + "." + h.Name + ".up" // host → switch (uplink)
	}
	if w.UpName == "" {
		w.UpName = sw.Name + "." + h.Name + ".down" // switch → host
	}
	var peer netstack.Endpoint = sw
	shard := t.HostShard(h.Name)
	if t.sharded() {
		// Same-shard forwards stay on the local path, tagged with this
		// shard for the ownership check.
		peer = shardView{sw: sw, shard: shard}
	}
	p := t.AttachNIC(h, nicCfg, peer, w)
	sw.Connect(t.addrs[h.Name], p.Up)
	// The switch hop rides the engine's arrival band: conduit ids are
	// allocated here, in join order — an assembly-order invariant — so
	// same-instant arrivals at a port sort the same way at any shard
	// count.
	t.conduits++
	p.Down.ArrivalConduit = t.conduits
	sw.members = append(sw.members, switchMember{shard: shard, delay: p.Down.Delay()})
	if t.sharded() {
		// Cross-shard arrivals leave through this courier, keeping the
		// conduit key they would have carried locally.
		sw.shardOf[t.addrs[h.Name]] = shard
		p.Down.Courier = &courier{
			sw:  sw,
			src: shard,
			con: t.group.NewConduit(shard, t.conduits),
		}
	}
	return p
}

// courier ships a down link's cross-shard deliveries: route lookup at
// transmit time, execution (count + forward onto the destination host's
// receive link) on the destination shard at the arrival instant. The
// link's propagation delay is the shipping lookahead.
//
// Each shipment borrows a pooled handoff record whose run closure was
// bound once, so a cross-shard hop allocates nothing, and the record
// returns to this courier's free list when it runs on the destination
// shard. Like a packet's return home, that push from another shard needs
// no lock only because every shard runs inline on the goroutine that
// calls sim.ShardGroup.Run (DESIGN.md, "Inline rounds").
type courier struct {
	sw  *Switch
	src int
	con *sim.Conduit
	// loc is the shipping down link's flowtrace location id, so the
	// cross-shard path records the same LinkRx + SwitchFwd hop pair the
	// local delivery path would (handoff.run bypasses delivery.run and
	// Switch.deliverOn).
	loc  int32
	free *handoff
}

// handoff is one cross-shard delivery in flight: the packet, the switch
// port it leaves by, and its arrival instant.
type handoff struct {
	c    *courier
	p    *netstack.Packet
	port netstack.Endpoint
	at   sim.Time
	next *handoff
	fn   func() // bound once to run
}

// Ship implements netstack.Courier.
func (c *courier) Ship(p *netstack.Packet, at sim.Time, conduit int32, seq uint64) bool {
	port, ok := c.sw.table[p.Dst]
	if !ok {
		return false // miss: counted on the local path
	}
	dst := c.sw.shardOf[p.Dst]
	if dst == c.src {
		return false
	}
	h := c.free
	if h == nil {
		h = &handoff{c: c}
		h.fn = h.run
	} else {
		c.free = h.next
	}
	h.p, h.port, h.at = p, port, at
	c.con.Send(dst, at, seq, h.fn)
	return true
}

// run executes the hand-off on the destination shard. Like delivery.run,
// it recycles the record before forwarding, having read what it needs.
func (h *handoff) run() {
	c, p, port, at := h.c, h.p, h.port, h.at
	h.p, h.port = nil, nil
	h.next = c.free
	c.free = h
	p.Trace.Hop(flowtrace.HopLinkRx, c.loc, at)
	p.Trace.HopHere(flowtrace.HopSwitch, c.sw.TraceLoc)
	c.sw.fwd++
	port.Deliver(p)
}

// finalize derives the group's lookahead matrix from the assembled
// wiring: for every switch, a member can reach any co-member on another
// shard no earlier than its own down-link propagation delay past its
// clock, so that delay bounds the channel. Called once from Start.
func (t *Topology) finalize() {
	if t.finalized {
		return
	}
	t.finalized = true
	for _, sw := range t.switches {
		for _, m := range sw.members {
			for _, m2 := range sw.members {
				if m.shard != m2.shard {
					t.group.SetLookahead(m.shard, m2.shard, m.delay)
				}
			}
		}
	}
}

// Start spins up every host in add order. Call after assembly, before
// running the topology. It also freezes the wiring into the group's
// lookahead matrix.
func (t *Topology) Start() {
	t.finalize()
	for _, h := range t.hosts {
		h.Start()
	}
	t.startSeries()
}

// RunFor advances the whole topology by d under conservative sync.
func (t *Topology) RunFor(d sim.Time) { t.group.RunFor(d) }

// Now returns the topology's clock.
func (t *Topology) Now() sim.Time { return t.group.Now() }

// Fired returns total events fired across the topology's engines — the
// same shard-count-invariant sum Snapshot reports as sim.events_fired.
func (t *Topology) Fired() uint64 { return t.group.TotalFired() }

// EnableTracing attaches an execution trace buffer of the given capacity
// to every host, in add order. Call before Start.
func (t *Topology) EnableTracing(capacity int) {
	if t.tracers != nil {
		return
	}
	for _, h := range t.hosts {
		tb := trace.New(capacity)
		tb.Enable(true)
		h.K.SetTracer(tb)
		t.tracers = append(t.tracers, tb)
	}
}

// WriteChrome merges every host's trace into one Chrome trace-event file:
// one process per host, pid = host address, in add order. Host-local
// event order is identical at any shard count, so the merged trace is
// too.
func (t *Topology) WriteChrome(w io.Writer) error {
	if t.tracers == nil {
		return fmt.Errorf("topology: tracing not enabled")
	}
	procs := make([]trace.Proc, len(t.hosts))
	for i, h := range t.hosts {
		procs[i] = trace.Proc{Name: "host." + h.Name, PID: i + 1, Buf: t.tracers[i]}
	}
	var flows []trace.FlowEvent
	if t.flow != nil {
		// Overlay traced packet journeys as flow arrows between host rows.
		flows = t.flow.FlowEvents()
	}
	return trace.WriteChromeProcsFlows(w, procs, flows)
}

// Snapshot captures every host's telemetry under a host.<name>. prefix and
// the topology's own totals (Report) in one deterministic snapshot — the
// per-host metrics namespace for multi-node experiments. Each host's
// registry writes straight into it (metrics.Registry.SnapshotInto).
func (t *Topology) Snapshot() *metrics.Snapshot {
	out := metrics.NewSnapshot()
	if n := len(t.hosts); n > 0 {
		// Hosts report about as many names as the first: room for all of
		// them spares the maps' growth.
		one := t.hosts[0].Snapshot()
		out = metrics.NewSnapshotSized(n*len(one.Counters), n*len(one.Gauges), n*len(one.Histograms))
	}
	for _, h := range t.hosts {
		h.Metrics().SnapshotInto(out, "host."+h.Name+".", "sim.")
	}
	t.totals.SnapshotInto(out, "", "")
	return out
}

// Report implements metrics.Reporter: the topology-level totals, every
// switch's counters, the fabric trunks' traffic and the flow tracer's
// counts.
//
// Per-host sim.* values are left out of Snapshot and replaced with these
// totals: the per-host versions read whichever engine the host runs on
// (the whole fleet's on one shard, its shard's otherwise), so they
// describe the execution substrate, not the host. The totals are
// shard-count-invariant — every one-shard event maps to exactly one shard
// event (a cross-shard delivery is one arrival-band event on the
// destination engine, as it would be on one engine), so summed
// fired/pending counts match byte-for-byte. The heap depth high-water
// mark has no shard-count-invariant meaning and is omitted.
func (t *Topology) Report(w metrics.Writer) {
	w.Counter("sim.events_fired", int64(t.group.TotalFired()))
	w.Gauge("sim.events_pending", int64(t.group.TotalPending()))
	for _, sw := range t.switches {
		w.Counter("switch."+sw.Name+".forwarded", sw.Forwarded())
		w.Counter("switch."+sw.Name+".misses", sw.Misses())
	}
	for _, f := range t.fabrics {
		for j := range f.Up {
			w.Counter("link."+f.Up[j].Name+".sent", f.Up[j].Sent)
			w.Counter("link."+f.Up[j].Name+".bytes", f.Up[j].Bytes)
			w.Counter("link."+f.Down[j].Name+".sent", f.Down[j].Sent)
			w.Counter("link."+f.Down[j].Name+".bytes", f.Down[j].Bytes)
		}
	}
	if t.flow != nil {
		// Shard-summed, so shard-count-invariant like the rest.
		w.Counter("flowtrace.spans_started", t.flow.Started())
		w.Counter("flowtrace.spans_finished", t.flow.Finished())
		w.Counter("flowtrace.hops", t.flow.HopCount())
		w.Counter("flowtrace.dropped_hops", t.flow.DroppedHops())
		w.Counter("flowtrace.sampled_flows", t.flow.SampledFlows())
	}
}
