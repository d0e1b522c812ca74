package topology

// Affinity-based shard placement. Spec.Assign (and Topology.Assign) decide
// which shard owns each host; any assignment yields byte-identical results
// — per-host RNG streams derive from (seed, name), never from an engine —
// so placement is purely a wall-clock knob: it decides which traffic
// crosses shards, and so the cross-shard message count and how wide the
// conservative-sync rounds can be.
//
// AutoPlace derives the assignment from observed traffic: build the same
// spec single-engine, drive it briefly, read each host's port counters,
// and spread hosts over shards greedily from the hottest down (classic
// longest-processing-time balancing). The profile pass is itself a
// deterministic simulation, so the derived placement — and therefore the
// sharded run's round schedule — is a pure function of (spec, profile
// window).

import (
	"sort"

	"softtimers/internal/sim"
)

// TrafficByHost returns, per host in add order, the total frames observed
// on the host's ports: transmissions down toward the network plus
// deliveries up into its NICs. It reads the links' Sent counters, so it
// reflects whatever span the topology has run; fault-dropped frames count
// at the sender, which is the side whose shard pays for them anyway.
func (t *Topology) TrafficByHost() []int64 {
	out := make([]int64, len(t.hosts))
	for i, h := range t.hosts {
		var n int64
		for _, p := range t.ports[h.Name] {
			n += p.Down.Sent + p.Up.Sent
		}
		out[i] = n
	}
	return out
}

// PlaceByTraffic builds an Assign func from per-host traffic counts:
// hosts are taken from the hottest down (ties broken by add index, so the
// result is deterministic) and each goes to the currently lightest shard
// (ties to the lowest id). names and traffic run in add order, as
// returned by Hosts and TrafficByHost. Hosts the profile never saw fall
// back to round-robin by index.
func PlaceByTraffic(names []string, traffic []int64, shards int) func(i int, name string) int {
	if shards < 1 {
		panic("topology: PlaceByTraffic needs at least one shard")
	}
	if len(names) != len(traffic) {
		panic("topology: PlaceByTraffic names and traffic lengths differ")
	}
	order := make([]int, len(names))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return traffic[order[a]] > traffic[order[b]]
	})
	load := make([]int64, shards)
	byName := make(map[string]int, len(names))
	for _, i := range order {
		best := 0
		for s := 1; s < shards; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		byName[names[i]] = best
		load[best] += traffic[i]
	}
	return func(i int, name string) int {
		if s, ok := byName[name]; ok {
			return s
		}
		return i % shards
	}
}

// AutoPlace profiles spec on a single engine and returns a traffic-derived
// Assign func for a sharded build of the same spec. The profile build
// forces Shards=0 and ClockSim (a deterministic replica of the real run's
// first profile nanoseconds); drive, when non-nil, must start the
// topology and run whatever workload generates the traffic — callers
// whose load comes from outside the spec (experiment rigs) install it
// there. A nil drive starts the topology and runs it for profile.
func AutoPlace(spec Spec, shards int, profile sim.Time, drive func(*Topology)) func(i int, name string) int {
	spec.Shards = 0
	spec.Clock = sim.ClockSim
	spec.Assign = nil
	t := Build(spec)
	if drive != nil {
		drive(t)
	} else {
		t.Start()
		t.RunFor(profile)
	}
	names := make([]string, len(t.hosts))
	for i, h := range t.hosts {
		names[i] = h.Name
	}
	return PlaceByTraffic(names, t.TrafficByHost(), shards)
}
