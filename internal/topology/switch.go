package topology

import (
	"fmt"

	"softtimers/internal/flowtrace"
	"softtimers/internal/netstack"
	"softtimers/internal/sim"
)

// Switch forwards packets by destination address: a LAN switch whose ports
// are the receive links of the hosts joined to it. Switching itself is
// cut-through and free — serialization and propagation costs live on the
// links, as in the single-server testbed — so a host-switch-host path costs
// two link traversals.
//
// A packet whose destination has no forwarding entry (including the zero
// Addr of unaddressed packets) is dropped and counted as a miss; silent
// blackholing would make topology bugs look like congestion.
//
// Above one shard the forwarding table is read-only at run time; a packet
// whose destination lives on another shard never reaches Deliver — the
// sending link's courier ships it at transmit time and the forward
// executes on the destination shard at arrival time, exactly when the
// one-shard path would have counted it.
type Switch struct {
	Name string

	// Default, when set, receives packets whose destination has no
	// forwarding entry instead of dropping them — the leaf switch's route
	// toward the spine in hierarchical fabrics. Default-routed packets
	// count as forwarded, and skip the shard-ownership check (their
	// destination lives behind the trunk, not on a member port).
	Default netstack.Endpoint

	// TraceLoc is the switch's flowtrace location id (0 = unregistered).
	TraceLoc int32

	table   map[netstack.Addr]netstack.Endpoint
	shardOf map[netstack.Addr]int // above one shard only: each address's shard

	// arenas, when wired by a topology, are the per-shard packet pools
	// address-miss drops release into.
	arenas []*netstack.Arena

	// fwd and miss count switched and address-miss packets.
	fwd  int64
	miss int64

	// members records each joined host's shard and down-link propagation
	// delay, the inputs to the group's lookahead matrix.
	members []switchMember
}

type switchMember struct {
	shard int
	delay sim.Time // the member's host→switch propagation delay
}

// NewSwitch creates an empty switch.
func NewSwitch(name string) *Switch {
	return &Switch{
		Name:  name,
		table: make(map[netstack.Addr]netstack.Endpoint),
	}
}

// Connect installs a forwarding entry: packets for addr go to port (the
// link toward that host). Duplicate entries panic — two hosts sharing an
// address is an assembly bug.
func (s *Switch) Connect(addr netstack.Addr, port netstack.Endpoint) {
	if addr == 0 {
		panic("topology: switch entry for the zero address")
	}
	if _, dup := s.table[addr]; dup {
		panic(fmt.Sprintf("topology: switch %q already has an entry for address %d", s.Name, addr))
	}
	s.table[addr] = port
}

// Forwarded returns the number of switched packets.
func (s *Switch) Forwarded() int64 { return s.fwd }

// Misses returns the number of address-miss drops.
func (s *Switch) Misses() int64 { return s.miss }

// Deliver implements netstack.Endpoint: forward by destination address.
// One-shard topologies deliver here directly; above one shard, links
// deliver through a shardView naming the delivering shard.
func (s *Switch) Deliver(p *netstack.Packet) { s.deliverOn(0, p) }

func (s *Switch) deliverOn(shard int, p *netstack.Packet) {
	// Cut-through forwarding runs synchronously inside the link arrival
	// that carried the packet in, so the switch hop shares its instant.
	p.Trace.HopHere(flowtrace.HopSwitch, s.TraceLoc)
	port, ok := s.table[p.Dst]
	if !ok {
		if s.Default != nil {
			s.fwd++
			s.Default.Deliver(p)
			return
		}
		s.miss++
		var a *netstack.Arena
		if s.arenas != nil {
			a = s.arenas[shard]
		}
		a.Release(p)
		return
	}
	if s.shardOf != nil {
		if d := s.shardOf[p.Dst]; d != shard {
			// Cross-shard packets must arrive via the courier; reaching the
			// local path means a link was wired without one.
			panic(fmt.Sprintf("topology: switch %q: packet for address %d (shard %d) on shard %d's local path",
				s.Name, p.Dst, d, shard))
		}
	}
	s.fwd++
	port.Deliver(p)
}

// shardView adapts the switch to one shard's local delivery path: the
// shard names the arena a miss releases into and is checked against the
// destination's owner.
type shardView struct {
	sw    *Switch
	shard int
}

// Deliver implements netstack.Endpoint.
func (v shardView) Deliver(p *netstack.Packet) { v.sw.deliverOn(v.shard, p) }
