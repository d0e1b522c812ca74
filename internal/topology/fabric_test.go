package topology

import (
	"strings"
	"testing"

	"softtimers/internal/kernel"
	"softtimers/internal/netstack"
	"softtimers/internal/sim"
)

// fabricSpec is the shared 1-spine / 3-leaf / 7-host declaration the fabric
// tests build at varying shard counts.
func fabricSpec(shards int) Spec {
	hosts := []HostSpec{{Name: "h0", Kernel: kernel.Options{IdleLoop: true}}}
	members := []string{"h0"}
	for _, n := range []string{"h1", "h2", "h3", "h4", "h5", "h6"} {
		hosts = append(hosts, HostSpec{Name: n})
		members = append(members, n)
	}
	return Spec{
		Seed:  777,
		Hosts: hosts,
		Fabrics: []FabricSpec{{
			Name:    "dc",
			Leaves:  3,
			Members: members,
		}},
		Shards: shards,
	}
}

// Cut-through forwarding across the fabric: intra-leaf traffic never rides
// a trunk, cross-leaf traffic rides exactly two (up at the source leaf,
// down at the destination's), and unknown addresses die at the spine.
func TestFabricForwarding(t *testing.T) {
	top := Build(fabricSpec(0))
	rx := map[string]int{}
	for i, name := range []string{"h0", "h1", "h2", "h3", "h4", "h5", "h6"} {
		name := name
		top.Fabrics()[0].MemberPorts[i].NIC.RxHandler = func(*netstack.Packet) { rx[name]++ }
	}
	top.Start()

	h0 := top.Host("h0")
	// h0 is on leaf 0 with h3 and h6 (members round-robin 3 leaves).
	h0.NICs[0].TxFromKernel(
		&netstack.Packet{Flow: 1, Src: top.Addr("h0"), Dst: top.Addr("h3"), Kind: netstack.Data, Size: 400}, // intra-leaf
		&netstack.Packet{Flow: 2, Src: top.Addr("h0"), Dst: top.Addr("h1"), Kind: netstack.Data, Size: 400}, // cross-leaf (leaf 1)
		&netstack.Packet{Flow: 3, Src: top.Addr("h0"), Dst: top.Addr("h5"), Kind: netstack.Data, Size: 400}, // cross-leaf (leaf 2)
		&netstack.Packet{Flow: 4, Src: top.Addr("h0"), Dst: 99, Kind: netstack.Data, Size: 400},             // unroutable
	)
	top.RunFor(5 * sim.Millisecond)

	for name, want := range map[string]int{"h3": 1, "h1": 1, "h5": 1} {
		if rx[name] != want {
			t.Errorf("%s received %d packets, want %d", name, rx[name], want)
		}
	}
	f := top.Fabrics()[0]
	if got := f.Up[0].Sent; got != 3 {
		t.Errorf("leaf0 up trunk sent %d, want 3 (two cross-leaf + one unroutable)", got)
	}
	if f.Down[1].Sent != 1 || f.Down[2].Sent != 1 {
		t.Errorf("down trunks sent %d/%d, want 1/1", f.Down[1].Sent, f.Down[2].Sent)
	}
	if f.Down[0].Sent != 0 {
		t.Errorf("leaf0 down trunk sent %d, want 0 (intra-leaf stays on the leaf)", f.Down[0].Sent)
	}
	if got := f.Spine.Misses(); got != 1 {
		t.Errorf("spine misses = %d, want 1", got)
	}
	// The unroutable packet was pooled-released by the spine: the arena got
	// every packet back once the network drained.
	if live := top.Arena(0).Live(); live != 0 {
		t.Errorf("arena has %d live packets after drain, want 0", live)
	}
}

// Spec.Validate rejects assembly mistakes with errors naming the culprit.
func TestSpecValidate(t *testing.T) {
	ok := Spec{
		Hosts:    []HostSpec{{Name: "a"}, {Name: "b"}, {Name: "c"}},
		Switches: []SwitchSpec{{Name: "s", Members: []string{"a", "b"}}},
		Fabrics:  []FabricSpec{{Name: "f", Leaves: 1, Members: []string{"c"}}},
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	// A spec with no network at all is valid (host-only rigs).
	if err := (Spec{Hosts: []HostSpec{{Name: "a"}}}).Validate(); err != nil {
		t.Fatalf("networkless spec rejected: %v", err)
	}
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"duplicate host", Spec{Hosts: []HostSpec{{Name: "a"}, {Name: "a"}}}, `duplicate host "a"`},
		{"empty name", Spec{Hosts: []HostSpec{{Name: ""}}}, "has no name"},
		{"unknown switch member", Spec{
			Hosts:    []HostSpec{{Name: "a"}},
			Switches: []SwitchSpec{{Name: "s", Members: []string{"ghost"}}},
		}, `unknown host "ghost"`},
		{"unknown fabric member", Spec{
			Hosts:   []HostSpec{{Name: "a"}},
			Fabrics: []FabricSpec{{Name: "f", Leaves: 1, Members: []string{"ghost"}}},
		}, `unknown host "ghost"`},
		{"member twice", Spec{
			Hosts:    []HostSpec{{Name: "a"}},
			Switches: []SwitchSpec{{Name: "s", Members: []string{"a", "a"}}},
		}, `lists host "a" twice`},
		{"leafless fabric", Spec{
			Hosts:   []HostSpec{{Name: "a"}},
			Fabrics: []FabricSpec{{Name: "f", Members: []string{"a"}}},
		}, "at least one leaf"},
		{"unattached host", Spec{
			Hosts:    []HostSpec{{Name: "a"}, {Name: "lonely"}},
			Switches: []SwitchSpec{{Name: "s", Members: []string{"a"}}},
		}, `host "lonely" is attached to no switch or fabric`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.spec.Validate()
			if err == nil {
				t.Fatalf("invalid spec accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}
