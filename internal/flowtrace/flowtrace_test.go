package flowtrace

import (
	"testing"

	"softtimers/internal/sim"
)

// Untraced packets carry a nil *Span; every hop site must be a free no-op.
// One measured run of 100 calls counts every allocation (AllocsPerRun
// rounds a per-run mean down).
func TestNilSpanHopsAreNoOps(t *testing.T) {
	var s *Span
	if n := testing.AllocsPerRun(1, func() {
		for range 100 {
			s.Hop(HopLinkTx, 3, 42)
			s.HopHere(HopSwitch, 4)
		}
	}); n != 0 {
		t.Fatalf("100 nil-span hop pairs allocate %.0f times, want 0", n)
	}
}

func TestSpanHopRecordingAndOverflow(t *testing.T) {
	r := NewRecorder()
	samp := NewSampler(r, sim.NewRNG(1), 1, 7<<32, 0)
	if !samp.SampleFlow() {
		t.Fatal("rate-1 sampler rejected a flow")
	}
	s := samp.StartSpan()
	for i := 0; i < MaxHops+5; i++ {
		s.Hop(HopLinkTx, int32(i), sim.Time(i*10))
	}
	hops := s.Hops()
	if len(hops) != MaxHops {
		t.Fatalf("span holds %d hops, want %d", len(hops), MaxHops)
	}
	for i, h := range hops {
		if h.Loc != int32(i) || h.At != sim.Time(i*10) {
			t.Fatalf("hop %d recorded as %+v", i, h)
		}
	}
	r.Finish(s, 9, 2, 1, 3, 4)
	if r.DroppedHops() != 5 {
		t.Fatalf("dropped hops %d, want 5", r.DroppedHops())
	}
	if r.HopCount() != MaxHops {
		t.Fatalf("hop count %d, want %d", r.HopCount(), MaxHops)
	}
}

// HopHere clones the latest hop's instant; on an empty span it must do
// nothing (there is no instant to share yet).
func TestHopHere(t *testing.T) {
	r := NewRecorder()
	s := r.alloc(1)
	s.HopHere(HopSwitch, 5)
	if len(s.Hops()) != 0 {
		t.Fatal("HopHere on an empty span recorded a hop")
	}
	s.Hop(HopLinkRx, 2, 100)
	s.HopHere(HopSwitch, 5)
	hops := s.Hops()
	if len(hops) != 2 || hops[1].At != 100 || hops[1].Kind != HopSwitch {
		t.Fatalf("HopHere recorded %+v", hops)
	}
}

func TestSamplerRatesAndCap(t *testing.T) {
	// Rate 0 disables sampling entirely — and a nil sampler behaves the same.
	off := NewSampler(NewRecorder(), sim.NewRNG(1), 0, 0, 0)
	var nilSamp *Sampler
	for i := 0; i < 100; i++ {
		if off.SampleFlow() || nilSamp.SampleFlow() {
			t.Fatal("disabled sampler accepted a flow")
		}
	}
	if nilSamp.StartSpan() != nil {
		t.Fatal("nil sampler returned a span")
	}

	// Rate 1 traces everything, up to the flow cap.
	all := NewSampler(NewRecorder(), sim.NewRNG(1), 1, 0, 3)
	got := 0
	for i := 0; i < 100; i++ {
		if all.SampleFlow() {
			got++
		}
	}
	if got != 3 || all.SampledFlows() != 3 {
		t.Fatalf("capped rate-1 sampler accepted %d flows, want 3", got)
	}

	// Rate-n sampling draws from the given stream only: equal seeds give
	// equal decision sequences (the determinism that makes traced runs
	// byte-identical across shard placements).
	a := NewSampler(NewRecorder(), sim.NewRNG(7), 4, 0, 0)
	b := NewSampler(NewRecorder(), sim.NewRNG(7), 4, 0, 0)
	any := false
	for i := 0; i < 256; i++ {
		da, db := a.SampleFlow(), b.SampleFlow()
		if da != db {
			t.Fatalf("decision %d diverged between equal-seed samplers", i)
		}
		any = any || da
	}
	if !any {
		t.Fatal("rate-4 sampler accepted nothing in 256 flows")
	}
}

// Span IDs are (base | counter): unique across hosts and allocated in
// host-local order, which is what makes Export's sort mode-invariant.
func TestSamplerSpanIdentity(t *testing.T) {
	r := NewRecorder()
	s := NewSampler(r, sim.NewRNG(1), 1, uint64(3)<<32, 0)
	first, second := s.StartSpan(), s.StartSpan()
	if first.id != 3<<32|1 || second.id != 3<<32|2 {
		t.Fatalf("span ids %#x, %#x", first.id, second.id)
	}
}

func TestExportMergesAndSorts(t *testing.T) {
	loc := NewLocations()
	l1 := loc.Register("link.a", 1)
	l2 := loc.Register("nic.b.eth0", 2)

	ra, rb := NewRecorder(), NewRecorder()
	// Finish spans out of ID order, split across two recorders, as a
	// sharded run would.
	s2 := ra.alloc(2 << 32)
	s2.Hop(HopLinkTx, l1, 10)
	ra.Finish(s2, 20, 1, 0, 2, 1)
	s1 := rb.alloc(1 << 32)
	s1.Hop(HopNICTx, l2, 5)
	s1.Hop(HopLinkTx, 99, 7) // unregistered location resolves to "?"
	rb.Finish(s1, 10, 3, 4, 1, 2)

	out := Export(loc, func(k int) string { return map[int]string{1: "ack", 3: "data"}[k] }, ra, rb, nil)
	if len(out) != 2 {
		t.Fatalf("exported %d spans, want 2", len(out))
	}
	if out[0].ID != 1<<32 || out[1].ID != 2<<32 {
		t.Fatalf("export not sorted by id: %#x, %#x", out[0].ID, out[1].ID)
	}
	d := out[0]
	if d.Flow != 10 || d.Kind != "data" || d.Seq != 4 || d.Src != 1 || d.Dst != 2 {
		t.Fatalf("span identity mangled: %+v", d)
	}
	if d.Hops[0].Loc != "nic.b.eth0" || d.Hops[1].Loc != "?" {
		t.Fatalf("location names mangled: %+v", d.Hops)
	}
	if d.FirstLoc != l2 || d.LastLoc != 99 {
		t.Fatalf("first/last loc ids %d, %d", d.FirstLoc, d.LastLoc)
	}
	if out[1].Kind != "ack" {
		t.Fatalf("kind name %q, want ack", out[1].Kind)
	}

	// Nil kindName falls back to the decimal packet kind.
	raw := Export(loc, nil, ra)
	if raw[0].Kind != "1" {
		t.Fatalf("nil kindName produced %q, want \"1\"", raw[0].Kind)
	}
}

func TestLocationsResolve(t *testing.T) {
	loc := NewLocations()
	id := loc.Register("switch.s0", 0)
	if got := loc.Name(id); got != "switch.s0" {
		t.Fatalf("Name(%d) = %q", id, got)
	}
	if loc.Name(0) != "?" || loc.Name(-1) != "?" || loc.Name(1000) != "?" {
		t.Fatal("out-of-range location ids must resolve to \"?\"")
	}
	var nilLoc *Locations
	if nilLoc.Name(1) != "?" || nilLoc.HostAddr(1) != 0 {
		t.Fatal("nil Locations must resolve to unknown")
	}
	hid := loc.Register("nic.h.eth0", 7)
	if loc.HostAddr(hid) != 7 || loc.HostAddr(id) != 0 {
		t.Fatal("HostAddr mangled")
	}
}

func TestHopKindStrings(t *testing.T) {
	for k := HopKind(0); k < numHopKinds; k++ {
		if k.String() == "" || k.String()[0] == 'h' && k.String() != "hop"+k.String()[3:] {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if got := HopKind(200).String(); got != "hop200" {
		t.Fatalf("unknown kind renders %q", got)
	}
}
