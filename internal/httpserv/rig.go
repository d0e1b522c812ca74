package httpserv

import (
	"fmt"

	"softtimers/internal/core"
	"softtimers/internal/cpu"
	"softtimers/internal/faults"
	"softtimers/internal/host"
	"softtimers/internal/kernel"
	"softtimers/internal/metrics"
	"softtimers/internal/netstack"
	"softtimers/internal/nic"
	"softtimers/internal/sim"
	"softtimers/internal/topology"
)

// Testbed assembles the paper's LAN experiment setup: a server machine
// (simulated kernel + soft-timer facility + one or more NICs) and client
// machines connected by switched 100 Mbps Ethernet, with a saturating
// request load. Flows are pinned to NICs by id, one client group per
// interface, as in the paper's four-NIC Table 8 machine.
//
// Testbed is now a thin wrapper over the host/topology layer: the server
// machine is a host.Host and the per-NIC duplex links are topology ports,
// assembled in the exact order the old hand-wiring used so existing seeded
// scenarios replay byte-identically. The clients remain the synthetic
// ClientGen (their CPUs are not under study here); experiments that need
// real client kernels build a multi-host topology instead (see the
// fleet-scale experiment).
type Testbed struct {
	Eng     *sim.Engine
	K       *kernel.Kernel
	F       *core.Facility
	NIC     *nic.NIC // the first interface (convenience for 1-NIC rigs)
	NICs    []*nic.NIC
	Server  *Server
	Clients *ClientGen

	// Net and ServerHost expose the underlying topology and server
	// machine for callers composing beyond the classic single-server rig.
	Net        *topology.Topology
	ServerHost *host.Host

	started bool
}

// TestbedConfig configures testbed assembly.
type TestbedConfig struct {
	Seed     uint64
	Profile  cpu.Profile    // zero Name: PentiumII300
	Kernel   kernel.Options // IdleLoop defaults true
	Facility core.Options   // soft-timer facility options
	NIC      nic.Config
	Server   Config
	// Concurrency is the number of simultaneous client connections
	// (default 32 — enough to saturate).
	Concurrency int
	// LinkBps is each LAN segment's bandwidth (default netstack.LANBps);
	// every segment has netstack.LANDelay's one-way delay.
	LinkBps int64
	// NICCount is the number of server network interfaces, each with its
	// own duplex link (default 1; the paper's Table 8 machine had 4).
	NICCount int
	// Faults, when set, threads the fault plan through the rig: it is
	// installed on the kernel (trigger starvation, interrupt jitter,
	// CPU-cost noise), on every LAN link (drop/dup/reorder), and on each
	// NIC's receive ring, and its counters join the rig's registry.
	Faults *faults.Plan
}

// NewTestbed wires everything together. Call Run to execute.
func NewTestbed(cfg TestbedConfig) *Testbed {
	if cfg.Concurrency == 0 {
		cfg.Concurrency = 32
	}
	kOpts := cfg.Kernel
	if !kOpts.IdleLoop {
		kOpts.IdleLoop = true
	}
	if cfg.NICCount == 0 {
		cfg.NICCount = 1
	}

	// One host, so one shard: Eng is its engine, and drivers may run it
	// directly or through Net — the group's clock follows the engine.
	seed := cfg.Seed + 1
	tb := &Testbed{Net: topology.New(sim.NewShardGroup(1, seed), seed)}
	tb.Eng = tb.Net.Eng
	tb.ServerHost = tb.Net.AddHost(host.Config{
		Name:     "server",
		Profile:  cfg.Profile,
		Kernel:   kOpts,
		Facility: cfg.Facility,
		Faults:   cfg.Faults,
	})
	tb.K = tb.ServerHost.K
	tb.F = tb.ServerHost.F

	// Client side and links: one duplex link pair per NIC; flows are
	// pinned to interfaces by id, matching the server's routing. The
	// generator is created lazily because the server→client links need
	// the client endpoint and vice versa.
	var clients *ClientGen
	clientSide := netstack.EndpointFunc(func(p *netstack.Packet) { clients.Deliver(p) })
	upLinks := make([]*netstack.Link, cfg.NICCount)
	for i := 0; i < cfg.NICCount; i++ {
		name := fmt.Sprintf("%d", i)
		nicCfg := cfg.NIC
		nicCfg.Name = "nic" + name
		port := tb.Net.AttachNIC(tb.ServerHost, nicCfg, clientSide, topology.WireSpec{
			Bps:      cfg.LinkBps,
			DownName: "down" + name,
			UpName:   "up" + name,
		})
		upLinks[i] = port.Up
	}
	tb.NICs = tb.ServerHost.NICs
	tb.NIC = tb.NICs[0]

	tb.Server = NewServerMulti(tb.K, tb.F, tb.NICs, cfg.Server)
	segs := tb.Server.segments()
	toServer := netstack.EndpointFunc(func(p *netstack.Packet) {
		flow := p.Flow
		if flow < 0 {
			flow = -flow
		}
		upLinks[flow%len(upLinks)].Send(p)
	})
	clients = NewClientGen(tb.Eng, toServer, cfg.Concurrency, segs, cfg.Server.Persistent)
	clients.arena = tb.Net.Arena(0)
	tb.Clients = clients
	return tb
}

// Result summarizes one testbed run.
type Result struct {
	// Throughput is completed responses per second over the measurement
	// window (the paper's conn/s for HTTP, req/s for P-HTTP).
	Throughput float64
	// Completed is the raw response count in the window.
	Completed int64
	// BusyFrac is the server CPU's non-idle fraction over the window.
	BusyFrac float64
	// MeanTriggerUS is the mean trigger-state interval in µs over the
	// whole run (warmup included; intervals are stationary).
	MeanTriggerUS float64
}

// Metrics snapshots the testbed's telemetry registry (the server kernel's —
// every layer of the rig reports there).
func (tb *Testbed) Metrics() *metrics.Snapshot {
	return tb.K.Metrics().Snapshot()
}

// Start spins up the kernel, NIC, server and clients. Run calls it
// automatically; call it directly when other machinery (e.g. an extra
// hardware timer) must start before the measurement window.
func (tb *Testbed) Start() {
	if tb.started {
		return
	}
	tb.started = true
	tb.ServerHost.Start()
	tb.Server.Start()
	tb.Clients.Start()
}

// Run starts everything, runs warmup (discarded), then measures for the
// given duration.
func (tb *Testbed) Run(warmup, measure sim.Time) Result {
	tb.Start()
	tb.Net.RunFor(warmup)
	c0 := tb.Server.Completed
	a0 := tb.K.Accounting()
	t0 := tb.Net.Now()
	tb.Net.RunFor(measure)
	c1 := tb.Server.Completed
	a1 := tb.K.Accounting()
	elapsed := tb.Net.Now() - t0
	res := Result{
		Completed:     c1 - c0,
		Throughput:    float64(c1-c0) / elapsed.Seconds(),
		BusyFrac:      float64(a1.Busy()-a0.Busy()) / float64(elapsed),
		MeanTriggerUS: tb.K.Meter().Hist.Mean(),
	}
	return res
}
