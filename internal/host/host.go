// Package host bundles one simulated machine: a kernel with its CPU
// profile, the soft-timer facility installed as the kernel's trigger sink,
// and the machine's network interfaces — the unit the paper calls "a
// machine" (server, client, or the Section 5.8 WAN emulator are all full
// hosts in its testbed).
//
// Before this package, every rig hand-wired kernel+facility+NICs itself
// (httpserv.Testbed, the degradation rigs, the examples). Host is the one
// shared constructor: multi-node topologies (package topology) assemble N
// hosts on a single shared sim.Engine, each with its own kernel, trigger
// states, soft-timer wheel, fault plan, and telemetry registry, so
// soft-timer behaviour is measurable on both ends of a flow.
package host

import (
	"softtimers/internal/core"
	"softtimers/internal/cpu"
	"softtimers/internal/faults"
	"softtimers/internal/kernel"
	"softtimers/internal/metrics"
	"softtimers/internal/netstack"
	"softtimers/internal/nic"
	"softtimers/internal/sim"
)

// Config configures one host. The zero value is a plain Pentium-II/300
// machine with default kernel and facility options and no faults.
type Config struct {
	// Name identifies the host in topologies and metrics namespaces.
	Name string
	// Profile is the CPU cost model (zero Name: PentiumII300).
	Profile cpu.Profile
	// Kernel options are passed through verbatim (note IdleLoop's zero
	// value halts the CPU when idle; saturating rigs usually want true).
	Kernel kernel.Options
	// Facility configures the soft-timer facility.
	Facility core.Options
	// Faults, when set, is this host's fault-injection plan: it is
	// installed on the kernel (trigger starvation, interrupt jitter,
	// CPU-cost noise) and is the default plan for links and NIC receive
	// rings attached via AddNIC/topology wiring. Per-host plans let one
	// node misbehave while its peers stay clean.
	Faults *faults.Plan
	// Seed salts the host's private RNG stream (mixed with the name, so
	// equally-seeded hosts still draw independently). Workload code that
	// draws from Rand instead of the engine's streams keeps its draw
	// sequence invariant under sharding, where hosts no longer share one
	// engine. Zero derives the stream from the name alone.
	Seed uint64
}

// Host is one simulated machine on an engine it may share with others.
type Host struct {
	// Name is the host's topology name ("" for single-host rigs).
	Name string
	// K is the machine's kernel; its metrics registry is the host's
	// telemetry namespace.
	K *kernel.Kernel
	// F is the soft-timer facility installed on K.
	F *core.Facility
	// NICs are the machine's interfaces in attach order.
	NICs []*nic.NIC

	plan     *faults.Plan
	rng      *sim.RNG
	traceRNG *sim.RNG
	arena    *netstack.Arena
	started  bool
}

// New builds a host on eng: kernel first, then the facility installed as
// its trigger sink — the same order every rig used by hand, so existing
// seeded runs replay byte-identically through this constructor.
func New(eng *sim.Engine, cfg Config) *Host {
	if cfg.Profile.Name == "" {
		cfg.Profile = cpu.PentiumII300()
	}
	kOpts := cfg.Kernel
	if cfg.Faults != nil {
		kOpts.Faults = cfg.Faults
	}
	h := &Host{Name: cfg.Name, plan: cfg.Faults}
	h.rng = sim.NewRNG(cfg.Seed ^ sim.HashName(cfg.Name))
	// A second private stream for observability decisions (flowtrace
	// sampling): same (Seed, Name) derivation with an extra salt, so
	// enabling tracing never advances — or is advanced by — any workload
	// draw, and sampling decisions are placement-invariant too.
	h.traceRNG = sim.NewRNG(cfg.Seed ^ sim.HashName(cfg.Name) ^ 0xf10317ace5a17e3d)
	h.K = kernel.New(eng, cfg.Profile, kOpts)
	h.F = core.New(h.K, cfg.Facility)
	return h
}

// Rand returns the host's private RNG stream. Its draw sequence depends
// only on (Config.Seed, Config.Name) — never on which engine the host runs
// on — so workloads seeded through it replay identically whether the
// topology runs on one engine or sharded across several.
func (h *Host) Rand() *sim.RNG { return h.rng }

// TraceRand returns the host's private observability RNG stream, disjoint
// from Rand's by construction. Flowtrace samplers draw from it, so
// turning tracing on or off cannot perturb workload randomness.
func (h *Host) TraceRand() *sim.RNG { return h.traceRNG }

// Arena returns the host's packet arena, creating a private one lazily.
// Topologies install a shared engine-local (per-shard) arena with SetArena
// before any NIC attaches, so co-resident hosts recycle one pool.
func (h *Host) Arena() *netstack.Arena {
	if h.arena == nil {
		h.arena = netstack.NewArena()
	}
	return h.arena
}

// SetArena installs the packet arena the host's NICs and protocol layers
// acquire packets from. Must be called before AddNIC; arenas are
// single-goroutine, so the arena must belong to the engine the host runs
// on.
func (h *Host) SetArena(a *netstack.Arena) { h.arena = a }

// AddNIC creates an interface on the host transmitting into out (the wire
// toward the peer). On a host with a fault plan, the receive ring's fault
// channel comes from the plan under nic.<name>.rx unless cfg.Faults is set.
func (h *Host) AddNIC(cfg nic.Config, out netstack.Endpoint) *nic.NIC {
	if cfg.Faults == nil && h.plan != nil {
		cfg.Faults = h.plan.Link("nic." + cfg.Name + ".rx")
	}
	n := nic.New(h.K, h.F, cfg, out)
	n.SetArena(h.Arena())
	h.NICs = append(h.NICs, n)
	return n
}

// Start spins up the kernel and then each NIC, in attach order. Idempotent.
func (h *Host) Start() {
	if h.started {
		return
	}
	h.started = true
	h.K.Start()
	for _, n := range h.NICs {
		n.Start()
	}
}

// Engine returns the shared simulation engine.
func (h *Host) Engine() *sim.Engine { return h.K.Engine() }

// Metrics returns the host's telemetry registry (the kernel's).
func (h *Host) Metrics() *metrics.Registry { return h.K.Metrics() }

// Snapshot captures the host's telemetry.
func (h *Host) Snapshot() *metrics.Snapshot { return h.K.Metrics().Snapshot() }

// Faults returns the host's fault plan (nil on a clean host).
func (h *Host) Faults() *faults.Plan { return h.plan }
