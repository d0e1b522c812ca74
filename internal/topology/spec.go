package topology

import (
	"fmt"

	"softtimers/internal/core"
	"softtimers/internal/cpu"
	"softtimers/internal/faults"
	"softtimers/internal/host"
	"softtimers/internal/kernel"
	"softtimers/internal/nic"
	"softtimers/internal/sim"
)

// HostSpec declares one host of a topology.
type HostSpec struct {
	Name     string
	Profile  cpu.Profile
	Kernel   kernel.Options
	Facility core.Options
	// Faults, when set, gives this host its own fault plan, seeded
	// deterministically from (topology seed, host name) — one node can
	// misbehave while its peers stay clean.
	Faults *faults.Spec
}

// SwitchSpec declares one switch and the hosts on it. Every member gets a
// NIC from the (per-member-defaulted) template and a duplex link pair to
// the switch.
type SwitchSpec struct {
	Name    string
	Members []string
	// NIC is the per-member interface template; an empty Name defaults to
	// the switch name (interface names are per-host).
	NIC nic.Config
}

// Spec declares an N-node topology: hosts in address order, then switches
// wiring them together. Assembly order is part of the determinism
// contract — the same Spec and seed always build the same event order.
type Spec struct {
	// Seed seeds every shard's engine and every per-host fault plan.
	Seed     uint64
	Hosts    []HostSpec
	Switches []SwitchSpec
	// Fabrics declares hierarchical leaf–spine fabrics (see FabricSpec),
	// assembled after the flat switches. Build places each fabric member
	// on its leaf's shard (leaf index mod shard count) so every leaf is
	// shard-local and only spine trunks cross shards; every other host
	// goes round-robin by declaration index.
	Fabrics []FabricSpec

	// Shards is the engine count of the topology's conservative-sync
	// shard group: at least 1 (zero means 1), clamped to the host count.
	// Merged telemetry and traces are identical at any shard count.
	Shards int
}

// Validate checks the declaration for assembly errors: empty or duplicate
// host names, switch or fabric members naming unknown hosts, a host listed
// twice on one switch, fabrics without leaves — and, in any spec that
// declares a network at all, hosts attached to nothing (an unattached NIC
// is a host no packet can ever reach; silent isolation makes topology bugs
// look like packet loss). Build runs it and panics on the first error.
func (s Spec) Validate() error {
	known := make(map[string]bool, len(s.Hosts))
	for i, hs := range s.Hosts {
		if hs.Name == "" {
			return fmt.Errorf("topology: host %d has no name", i)
		}
		if known[hs.Name] {
			return fmt.Errorf("topology: duplicate host %q", hs.Name)
		}
		known[hs.Name] = true
	}
	attached := make(map[string]bool)
	for _, ss := range s.Switches {
		seen := make(map[string]bool, len(ss.Members))
		for _, m := range ss.Members {
			if !known[m] {
				return fmt.Errorf("topology: switch %q references unknown host %q", ss.Name, m)
			}
			if seen[m] {
				return fmt.Errorf("topology: switch %q lists host %q twice", ss.Name, m)
			}
			seen[m] = true
			attached[m] = true
		}
	}
	for _, fs := range s.Fabrics {
		if fs.Leaves < 1 {
			return fmt.Errorf("topology: fabric %q needs at least one leaf", fs.Name)
		}
		seen := make(map[string]bool, len(fs.Members))
		for _, m := range fs.Members {
			if !known[m] {
				return fmt.Errorf("topology: fabric %q references unknown host %q", fs.Name, m)
			}
			if seen[m] {
				return fmt.Errorf("topology: fabric %q lists host %q twice", fs.Name, m)
			}
			seen[m] = true
			attached[m] = true
		}
	}
	if len(s.Switches)+len(s.Fabrics) > 0 {
		for _, hs := range s.Hosts {
			if !attached[hs.Name] {
				return fmt.Errorf("topology: host %q is attached to no switch or fabric (unattached NIC)", hs.Name)
			}
		}
	}
	return nil
}

// Build assembles the declared topology on a fresh shard group seeded
// with spec.Seed. Hosts are created in declaration order (fixing
// addresses), then each switch joins its members in listed order, then
// each fabric assembles. Invalid specs (see Validate) panic — they are
// assembly bugs, not runtime conditions.
func Build(spec Spec) *Topology {
	if err := spec.Validate(); err != nil {
		panic(err.Error())
	}
	n := max(spec.Shards, 1)
	if len(spec.Hosts) > 0 && n > len(spec.Hosts) {
		n = len(spec.Hosts)
	}
	t := New(sim.NewShardGroup(n, spec.Seed), spec.Seed)
	// Fabric members share their leaf's shard (leaf index mod shard
	// count), so only the spine hop crosses shards.
	t.place = make(map[string]int)
	for _, fs := range spec.Fabrics {
		for i, m := range fs.Members {
			t.place[m] = fs.leafOf(i) % n
		}
	}
	for _, hs := range spec.Hosts {
		cfg := host.Config{
			Name:     hs.Name,
			Profile:  hs.Profile,
			Kernel:   hs.Kernel,
			Facility: hs.Facility,
		}
		if hs.Faults != nil {
			cfg.Faults = faults.New(spec.Seed^sim.HashName(hs.Name), *hs.Faults)
		}
		t.AddHost(cfg)
	}
	for _, ss := range spec.Switches {
		sw := t.AddSwitch(ss.Name)
		for _, member := range ss.Members {
			h := t.Host(member)
			if h == nil {
				panic("topology: switch " + ss.Name + " references unknown host " + member)
			}
			nicCfg := ss.NIC
			if nicCfg.Name == "" {
				nicCfg.Name = ss.Name
			}
			t.Join(sw, h, nicCfg, WireSpec{})
		}
	}
	for _, fs := range spec.Fabrics {
		t.AddFabric(fs)
	}
	return t
}
