package topology

import (
	"fmt"

	"softtimers/internal/netstack"
	"softtimers/internal/nic"
	"softtimers/internal/sim"
)

// FabricSpec declares a two-tier leaf–spine fabric: members spread
// round-robin across Leaves leaf switches (member i on leaf i % Leaves),
// every leaf trunked to one spine switch. Leaf switching is the existing
// cut-through Switch; a leaf's address misses take its Default route up the
// trunk, and the spine forwards down the destination leaf's trunk — so a
// cross-leaf path costs four link traversals (host→leaf, leaf→spine,
// spine→leaf, leaf→host) and an intra-leaf path the usual two.
//
// Above one shard each leaf — switch, members, and both its trunks — lives
// wholly on one shard (Build forces member placement to leaf % shards),
// and only the spine hop crosses shards: the up trunk's courier ships a
// cross-shard packet at its spine-arrival instant, so the trunk
// propagation delay is the shard channel's lookahead. Conduit ids are
// allocated in assembly order exactly as for flat switches, keeping
// merged telemetry and traces byte-identical at any shard count.
type FabricSpec struct {
	Name string
	// Leaves is the leaf-switch count (at least 1).
	Leaves int
	// Members are the host names on the fabric, assigned to leaf i%Leaves
	// in listed order.
	Members []string
	// NIC is the per-member interface template; an empty Name defaults to
	// the fabric name.
	NIC nic.Config
}

// A fabric's trunks. Members reach their leaf over a LAN wire
// (netstack.LANBps, netstack.LANDelay).
const (
	// trunkBps is a leaf trunk's bandwidth: 1 Gbps.
	trunkBps = 1_000_000_000
	// trunkDelay is a leaf trunk's one-way delay. It is the cross-shard
	// lookahead, so a tighter trunk costs more sync rounds.
	trunkDelay = 20 * sim.Microsecond
)

func (fs *FabricSpec) setDefaults() {
	if fs.NIC.Name == "" {
		fs.NIC.Name = fs.Name
	}
}

// leafOf returns the leaf index member i lands on.
func (fs *FabricSpec) leafOf(i int) int { return i % fs.Leaves }

// Fabric is one assembled leaf–spine fabric.
type Fabric struct {
	Spine  *Switch
	Leaves []*Switch
	// Up and Down are the per-leaf trunk links (leaf→spine, spine→leaf).
	Up, Down []*netstack.Link
	// MemberPorts are the member host ports in declaration order.
	MemberPorts []*Port
}

// AddFabric assembles a leaf–spine fabric over already-added hosts. Every
// leaf's members must share one shard (Build forces that placement) — the
// leaf and its trunks then live on that shard's engine.
func (t *Topology) AddFabric(fs FabricSpec) *Fabric {
	fs.setDefaults()
	if fs.Leaves < 1 {
		panic(fmt.Sprintf("topology: fabric %q needs at least one leaf", fs.Name))
	}
	if len(fs.Members) == 0 {
		panic(fmt.Sprintf("topology: fabric %q has no members", fs.Name))
	}
	f := &Fabric{}
	f.Spine = t.AddSwitch(fs.Name + ".spine")
	for j := 0; j < fs.Leaves; j++ {
		f.Leaves = append(f.Leaves, t.AddSwitch(fmt.Sprintf("%s.leaf%d", fs.Name, j)))
	}

	// Join members to their leaves; a leaf's shard is its members' shard.
	leafShard := make([]int, fs.Leaves)
	for j := range leafShard {
		leafShard[j] = -1
	}
	for i, m := range fs.Members {
		h := t.Host(m)
		if h == nil {
			panic(fmt.Sprintf("topology: fabric %q references unknown host %q", fs.Name, m))
		}
		j := fs.leafOf(i)
		shard := t.HostShard(m)
		if leafShard[j] == -1 {
			leafShard[j] = shard
		} else if leafShard[j] != shard {
			panic(fmt.Sprintf("topology: fabric %q leaf %d spans shards %d and %d (host %q); leaf members must share a shard",
				fs.Name, j, leafShard[j], shard, m))
		}
		p := t.Join(f.Leaves[j], h, fs.NIC, WireSpec{})
		f.MemberPorts = append(f.MemberPorts, p)
	}

	// Trunks: one duplex pair per leaf, on the leaf's engine. The up trunk
	// is the leaf's default route; cross-shard spine forwards leave through
	// its courier at the spine-arrival instant.
	for j, leaf := range f.Leaves {
		shard := leafShard[j]
		if shard < 0 {
			shard = 0 // a memberless leaf (more leaves than members)
		}
		eng := t.group.Engine(shard)
		var spinePeer netstack.Endpoint = f.Spine
		var leafPeer netstack.Endpoint = leaf
		if t.sharded() {
			spinePeer = shardView{sw: f.Spine, shard: shard}
			leafPeer = shardView{sw: leaf, shard: shard}
		}
		up := netstack.NewLink(eng, fmt.Sprintf("%s.leaf%d.up", fs.Name, j), trunkBps, trunkDelay, spinePeer)
		up.SetArena(t.Arena(shard))
		t.conduits++
		up.ArrivalConduit = t.conduits
		if t.sharded() {
			up.Courier = &courier{sw: f.Spine, src: shard, con: t.group.NewConduit(shard, t.conduits)}
		}
		leaf.Default = up
		down := netstack.NewLink(eng, fmt.Sprintf("%s.leaf%d.down", fs.Name, j), trunkBps, trunkDelay, leafPeer)
		down.SetArena(t.Arena(shard))
		t.conduits++
		down.ArrivalConduit = t.conduits
		f.Up = append(f.Up, up)
		f.Down = append(f.Down, down)
		// The spine hop is the fabric's only cross-shard channel; its
		// lookahead is the trunk propagation delay.
		f.Spine.members = append(f.Spine.members, switchMember{shard: shard, delay: trunkDelay})
	}

	// Spine forwarding: every member's address routes down its leaf's
	// trunk. Multi-hop Dst routing is built entirely here, at assembly.
	for i, m := range fs.Members {
		j := fs.leafOf(i)
		f.Spine.Connect(t.addrs[m], f.Down[j])
		if t.sharded() {
			f.Spine.shardOf[t.addrs[m]] = leafShard[j]
		}
	}
	t.fabrics = append(t.fabrics, f)
	return f
}

// Fabrics returns the topology's assembled fabrics in add order.
func (t *Topology) Fabrics() []*Fabric { return t.fabrics }
