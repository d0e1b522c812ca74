// Package topology assembles multi-node networks of simulated hosts on one
// shared deterministic event engine: named hosts (package host), duplex
// links with finite bandwidth and delay, switches forwarding by destination
// address, and the paper's Section 5.8 "WAN emulator" intermediate as just
// another host that routes between its interfaces.
//
// The paper's testbed is inherently multi-machine — server, client fleet,
// and the WAN-emulator router are all full FreeBSD hosts — so soft-timer
// behaviour is measurable on both ends of a flow: every host has its own
// kernel, trigger states, soft-timer facility, fault plan, and telemetry
// namespace, while all of them share a single sim.Engine and therefore a
// single replayable event order.
//
// Assembly comes in two forms: the imperative primitives here (AddHost,
// AttachNIC, Join) used where exact wiring order matters, and the
// declarative Spec/Build layer in spec.go for N-node topologies
// (server + K client hosts + optional intermediate).
package topology

import (
	"fmt"
	"io"

	"softtimers/internal/faults"
	"softtimers/internal/flowtrace"
	"softtimers/internal/host"
	"softtimers/internal/metrics"
	"softtimers/internal/netstack"
	"softtimers/internal/nic"
	"softtimers/internal/sim"
	"softtimers/internal/trace"
)

// Topology is one multi-node network on a shared engine, or — under
// sharded execution — on a sim.ShardGroup with one engine per shard and
// hosts distributed across them.
type Topology struct {
	// Eng is the shared event engine all hosts run on. In a sharded
	// topology it is shard 0's engine (seeded identically to the legacy
	// shared engine, so shard-0 construction-time RNG draws replay).
	Eng *sim.Engine

	// Assign maps (host add-index, name) to a shard; consulted only in
	// sharded topologies, before the first AddHost. Nil defaults to
	// round-robin. The assignment is a performance knob, not a semantic
	// one: results are identical for any placement.
	Assign func(i int, name string) int

	group     *sim.ShardGroup
	seed      uint64
	shardOf   []int // per host, in add (address) order
	conduits  int32 // arrival-band conduit ids, allocated in join order
	finalized bool
	arenas    []*netstack.Arena // one packet pool per shard (slot 0 single-engine)

	hosts    []*host.Host
	byName   map[string]*host.Host
	addrs    map[string]netstack.Addr
	ports    map[string][]*Port
	switches []*Switch
	routers  []*Router
	fabrics  []*Fabric
	tracers  []*trace.Buffer // per host, when tracing is enabled

	flow      *FlowTrace   // flow-span tracing, when enabled
	series    []*seriesRec // per-host series, when enabled
	seriesIvl sim.Time

	// clock is the wall-slaved driver installed by Build when
	// Spec.Clock == ClockRealTime; nil in sim mode.
	clock *sim.RealTimeClock
}

// New creates an empty topology on eng.
func New(eng *sim.Engine) *Topology {
	return &Topology{
		Eng:    eng,
		byName: make(map[string]*host.Host),
		addrs:  make(map[string]netstack.Addr),
		ports:  make(map[string][]*Port),
	}
}

// NewSharded creates an empty topology running on g's engines under
// conservative time sync. seed must be the seed the equivalent legacy
// topology would use — it derives per-host RNG streams, which is what
// keeps sharded and single-engine runs byte-identical.
func NewSharded(g *sim.ShardGroup, seed uint64) *Topology {
	t := New(g.Engine(0))
	t.group = g
	t.seed = seed
	return t
}

// SetSeed sets the seed per-host RNG streams derive from. Build and
// NewSharded set it; imperative single-engine assemblies that need
// sharded-run equivalence must set the same value on both variants.
func (t *Topology) SetSeed(seed uint64) { t.seed = seed }

// Group returns the shard group, or nil for single-engine topologies.
func (t *Topology) Group() *sim.ShardGroup { return t.group }

// RealClock returns the wall-slaved clock driver installed by
// Build(Spec{Clock: ClockRealTime}), or nil in sim mode. Emulation rigs use
// it to inject socket work into the engine and to read lag accounting.
func (t *Topology) RealClock() *sim.RealTimeClock { return t.clock }

// Clock reports which clock driver the topology runs under.
func (t *Topology) Clock() sim.ClockKind {
	if t.clock == nil {
		return sim.ClockSim
	}
	return sim.ClockRealTime
}

// Arena returns the packet pool for a shard (use 0 on single-engine
// topologies). Every host, link and switch assembled on that shard's
// engine shares it, so the steady-state packet path allocates nothing.
func (t *Topology) Arena(shard int) *netstack.Arena {
	if t.arenas == nil {
		n := 1
		if t.group != nil {
			n = t.group.N()
		}
		t.arenas = make([]*netstack.Arena, n)
		for i := range t.arenas {
			t.arenas[i] = netstack.NewArena()
		}
	}
	return t.arenas[shard]
}

// HostShard returns the shard the named host runs on (0 in single-engine
// topologies).
func (t *Topology) HostShard(name string) int {
	if t.group == nil {
		return 0
	}
	a := t.addrs[name]
	if a == 0 {
		return 0
	}
	return t.shardOf[int(a)-1]
}

// AddHost builds a named host on the shared engine and assigns it the next
// address (1-based, in add order — deterministic for a fixed assembly
// sequence). Duplicate or empty names panic: addresses and metrics
// namespaces key on them.
func (t *Topology) AddHost(cfg host.Config) *host.Host {
	if cfg.Name == "" {
		panic("topology: host needs a name")
	}
	if _, dup := t.byName[cfg.Name]; dup {
		panic(fmt.Sprintf("topology: duplicate host %q", cfg.Name))
	}
	eng := t.Eng
	shard := 0
	if t.group != nil {
		if t.Assign != nil {
			shard = t.Assign(len(t.hosts), cfg.Name)
		} else {
			shard = len(t.hosts) % t.group.N()
		}
		if shard < 0 || shard >= t.group.N() {
			panic(fmt.Sprintf("topology: host %q assigned to shard %d of %d", cfg.Name, shard, t.group.N()))
		}
		eng = t.group.Engine(shard)
	}
	if cfg.Seed == 0 {
		// Per-host RNG streams derive from (topology seed, name) — never
		// from an engine's stream — so they are identical whether the host
		// shares one engine with the fleet or owns a shard.
		cfg.Seed = t.seed
	}
	h := host.New(eng, cfg)
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

// WireSpec describes one duplex attachment: link rate and one-way delay,
// the two link names (they key fault channels link.<name> and metric
// prefixes), and optionally a fault plan and registry overriding the
// host's own.
type WireSpec struct {
	Bps   int64
	Delay sim.Time
	// DownName/UpName name the transmit/receive links. Empty names default
	// to <host>.<nic>.down / .up.
	DownName, UpName string
	// Faults overrides the host's plan for both links (nil: host plan).
	Faults *faults.Plan
	// Registry overrides where link counters register (nil: host registry).
	Registry *metrics.Registry
}

// AttachNIC wires a new interface on h to peer with a duplex link pair, in
// the exact order the single-server testbed always used (down link, NIC,
// up link — construction order is part of the determinism contract).
func (t *Topology) AttachNIC(h *host.Host, nicCfg nic.Config, peer netstack.Endpoint, w WireSpec) *Port {
	if w.Bps == 0 {
		w.Bps = 100_000_000
	}
	if w.Delay == 0 {
		w.Delay = 30 * sim.Microsecond
	}
	if w.DownName == "" {
		w.DownName = h.Name + "." + nicCfg.Name + ".down"
	}
	if w.UpName == "" {
		w.UpName = h.Name + "." + nicCfg.Name + ".up"
	}
	plan := w.Faults
	if plan == nil {
		plan = h.Faults()
	}
	reg := w.Registry
	if reg == nil {
		reg = h.Metrics()
	}
	// Links live on the owning host's engine: identical to t.Eng on a
	// single-engine topology, the host's shard engine otherwise.
	eng := h.Engine()
	down := netstack.NewLink(eng, w.DownName, w.Bps, w.Delay, peer)
	down.Faults = plan.Link("link." + w.DownName)
	down.SetArena(h.Arena())
	down.RegisterMetrics(reg)
	if nicCfg.Faults == nil {
		nicCfg.Faults = plan.Link("nic." + nicCfg.Name + ".rx")
	}
	n := h.AddNIC(nicCfg, down)
	up := netstack.NewLink(eng, w.UpName, w.Bps, w.Delay, n)
	up.Faults = plan.Link("link." + w.UpName)
	up.SetArena(h.Arena())
	up.RegisterMetrics(reg)
	p := &Port{NIC: n, Down: down, Up: up}
	t.ports[h.Name] = append(t.ports[h.Name], p)
	return p
}

// AddSwitch creates a named switch on the topology.
func (t *Topology) AddSwitch(name string) *Switch {
	sw := NewSwitch(name)
	if t.group != nil {
		sw.setShards()
	}
	t.Arena(0) // ensure the per-shard pools exist
	sw.arenas = t.arenas
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
	if t.group != nil {
		// Same-shard forwards stay on the local path, tagged with this
		// shard for the ownership check and the miss arena.
		peer = shardView{sw: sw, shard: shard}
	}
	p := t.AttachNIC(h, nicCfg, peer, w)
	sw.Connect(t.addrs[h.Name], p.Up)
	// The switch hop rides the engine's arrival band: conduit ids are
	// allocated here, in join order — an assembly-order invariant — so
	// same-instant arrivals at a port sort the same way at any shard
	// count, single-engine topologies included.
	t.conduits++
	p.Down.ArrivalConduit = t.conduits
	if t.group != nil {
		// Cross-shard arrivals leave through this courier, keeping the
		// conduit key they would have carried locally.
		sw.bind(t.addrs[h.Name], shard)
		p.Down.Courier = &courier{
			sw:  sw,
			src: shard,
			con: t.group.NewConduit(shard, t.conduits),
		}
		sw.members = append(sw.members, switchMember{shard: shard, delay: p.Down.Delay()})
	}
	return p
}

// courier ships a down link's cross-shard deliveries: route lookup at
// transmit time, execution (count + forward onto the destination host's
// receive link) on the destination shard at the arrival instant. The
// link's propagation delay is the shipping lookahead.
type courier struct {
	sw  *Switch
	src int
	con *sim.Conduit
	// loc is the shipping down link's flowtrace location id, so the
	// cross-shard path records the same LinkRx + SwitchFwd hop pair the
	// local delivery path would (the closure bypasses delivery.run and
	// Switch.deliverOn).
	loc int32
}

// Ship implements netstack.Courier.
func (c *courier) Ship(p *netstack.Packet, at sim.Time, conduit int32, seq uint64) bool {
	port, ok := c.sw.table[p.Dst]
	if !ok {
		return false // miss: counted on the local path, like legacy
	}
	dst := c.sw.shardOf[p.Dst]
	if dst == c.src {
		return false
	}
	sw := c.sw
	loc := c.loc
	c.con.Send(dst, at, seq, func() {
		p.Trace.Hop(flowtrace.HopLinkRx, loc, at)
		p.Trace.HopHere(flowtrace.HopSwitch, sw.TraceLoc)
		sw.fwd++
		port.Deliver(p)
	})
	return true
}

// finalize derives the group's lookahead matrix from the assembled
// wiring: for every switch, a member can reach any co-member on another
// shard no earlier than its own down-link propagation delay past its
// clock, so that delay bounds the channel. Called once from Start.
func (t *Topology) finalize() {
	if t.group == nil || t.finalized {
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
// running the engine. On a sharded topology it also freezes the wiring
// into the group's lookahead matrix.
func (t *Topology) Start() {
	t.finalize()
	for _, h := range t.hosts {
		h.Start()
	}
	t.startSeries()
}

// RunFor advances the whole topology by d: the shard group under
// conservative sync when sharded, the shared engine otherwise.
func (t *Topology) RunFor(d sim.Time) {
	if t.group != nil {
		t.group.RunFor(d)
		return
	}
	t.Eng.RunFor(d)
}

// Now returns the topology's clock.
func (t *Topology) Now() sim.Time {
	if t.group != nil {
		return t.group.Now()
	}
	return t.Eng.Now()
}

// Fired returns total events fired across the topology's engines — the
// same mode-invariant sum Snapshot reports as sim.events_fired.
func (t *Topology) Fired() uint64 {
	if t.group != nil {
		return t.group.TotalFired()
	}
	return t.Eng.Fired
}

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

// Tracer returns host i's trace buffer (nil unless EnableTracing ran).
func (t *Topology) Tracer(i int) *trace.Buffer {
	if t.tracers == nil {
		return nil
	}
	return t.tracers[i]
}

// WriteChrome merges every host's trace into one Chrome trace-event file:
// one process per host, pid = host address, in add order. Host-local
// event order is identical under legacy and sharded execution, so the
// merged trace is too.
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
// every switch's and router's counters, merged into one deterministic
// snapshot — the per-host metrics namespace for multi-node experiments.
//
// Per-host sim.* instruments are dropped and replaced with topology-level
// totals: the per-host versions read whichever engine the host runs on
// (the whole fleet's on the legacy shared engine, one shard's otherwise),
// so they describe the execution substrate, not the host. The totals are
// mode-independent — every legacy engine event maps to exactly one shard
// event (a cross-shard delivery is one arrival-band event on the
// destination engine, as it would be on the single engine), so summed
// fired/pending counts match byte-for-byte. The heap depth high-water
// mark has no mode-independent meaning and is omitted.
func (t *Topology) Snapshot() *metrics.Snapshot {
	out := metrics.NewSnapshot()
	for _, h := range t.hosts {
		hs := h.Snapshot()
		hs.DropPrefix("sim.")
		out.Merge(hs.Prefixed("host." + h.Name + "."))
	}
	if t.group != nil {
		out.Counters["sim.events_fired"] = int64(t.group.TotalFired())
		p := int64(t.group.TotalPending())
		out.Gauges["sim.events_pending"] = metrics.GaugeSnapshot{Value: p, Max: p}
	} else {
		out.Counters["sim.events_fired"] = int64(t.Eng.Fired)
		p := int64(t.Eng.Pending())
		out.Gauges["sim.events_pending"] = metrics.GaugeSnapshot{Value: p, Max: p}
	}
	for _, sw := range t.switches {
		out.Counters["switch."+sw.Name+".forwarded"] = sw.Forwarded()
		out.Counters["switch."+sw.Name+".misses"] = sw.Misses()
	}
	for _, r := range t.routers {
		out.Counters["router."+r.H.Name+".forwarded"] = r.Forwarded
		out.Counters["router."+r.H.Name+".misses"] = r.Misses
	}
	for _, f := range t.fabrics {
		for j := range f.Up {
			out.Counters["link."+f.Up[j].Name+".sent"] = f.Up[j].Sent
			out.Counters["link."+f.Up[j].Name+".bytes"] = f.Up[j].Bytes
			out.Counters["link."+f.Down[j].Name+".sent"] = f.Down[j].Sent
			out.Counters["link."+f.Down[j].Name+".bytes"] = f.Down[j].Bytes
		}
	}
	if t.flow != nil {
		// Shard-summed, so mode-invariant like the rest of the snapshot.
		out.Counters["flowtrace.spans_started"] = t.flow.Started()
		out.Counters["flowtrace.spans_finished"] = t.flow.Finished()
		out.Counters["flowtrace.hops"] = t.flow.HopCount()
		out.Counters["flowtrace.dropped_hops"] = t.flow.DroppedHops()
		out.Counters["flowtrace.sampled_flows"] = t.flow.SampledFlows()
	}
	return out
}

// SyncSnapshot exports the shard group's conservative-sync telemetry
// (sim.SyncStats) as sync.* instruments: round and message totals, the
// grant-width/mined-gain/round-width histograms, per-shard utilization
// counters, and which inbound channel bound each shard's grants. It is
// deliberately a separate snapshot from Snapshot(): workload telemetry is
// byte-identical across shard counts by contract, while sync telemetry
// describes the execution substrate and exists only when sharded — it is
// still a pure function of virtual state, so for a fixed shard count it
// is identical on every run. Returns nil on single-engine topologies.
func (t *Topology) SyncSnapshot() *metrics.Snapshot {
	if t.group == nil {
		return nil
	}
	st := t.group.SyncStats()
	reg := metrics.NewRegistry()
	reg.CounterFunc("sync.rounds", func() int64 { return st.Rounds })
	reg.CounterFunc("sync.messages", func() int64 { return st.Messages })
	reg.CounterFunc("sync.active_shard_rounds", func() int64 { return st.ActiveShardRounds })
	if t.group.MiningEnabled() {
		reg.CounterFunc("sync.mining", func() int64 { return 1 })
	}
	reg.Adopt("sync.grant_width_us", st.GrantWidthUS)
	reg.Adopt("sync.mined_gain_us", st.MinedGainUS)
	reg.Adopt("sync.round_width", st.RoundWidth)
	for i := range st.Shards {
		ss := &st.Shards[i]
		p := fmt.Sprintf("sync.shard%02d.", i)
		reg.CounterFunc(p+"rounds", func() int64 { return ss.Rounds })
		reg.CounterFunc(p+"granted_ns", func() int64 { return ss.GrantedNS })
		reg.CounterFunc(p+"reached_ns", func() int64 { return ss.ReachedNS })
		reg.CounterFunc(p+"mined_gain_ns", func() int64 { return ss.MinedGainNS })
		reg.CounterFunc(p+"idle_rounds", func() int64 { return ss.IdleRounds })
		reg.CounterFunc(p+"horizon_bound", func() int64 { return ss.HorizonBound })
	}
	for src := range st.Binding {
		for dst, count := range st.Binding[src] {
			if count == 0 {
				continue // only channels that ever bound a grant get a key
			}
			c := count
			reg.CounterFunc(fmt.Sprintf("sync.binding.s%02d_to_s%02d", src, dst), func() int64 { return c })
		}
	}
	return reg.Snapshot()
}
