package netstack

import (
	"fmt"
	"strings"
	"testing"

	"softtimers/internal/faults"
	"softtimers/internal/sim"
)

// Handle is a generation-counted weak reference to an arena packet, by
// which the tests assert lifecycle discipline. A handle taken from a live
// packet goes stale the moment the packet is freed (or recycled).
type Handle struct {
	p   *Packet
	gen uint32
}

// HandleOf captures a handle to p's current incarnation.
func HandleOf(p *Packet) Handle { return Handle{p: p, gen: p.gen} }

// Valid reports whether the handle still names a live incarnation.
// Handles to literals are always valid.
func (h Handle) Valid() bool {
	if h.p == nil {
		return false
	}
	if h.p.home == nil {
		return true
	}
	return h.p.gen == h.gen && h.p.ref > 0
}

// Get returns the packet, panicking if the handle is stale — using a
// freed packet is the pooling bug this type exists to catch.
func (h Handle) Get() *Packet {
	if !h.Valid() {
		panic(fmt.Sprintf("netstack: stale packet handle (gen %d, now %d, ref %d)",
			h.gen, h.p.gen, h.p.ref))
	}
	return h.p
}

func mustPanic(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", substr)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %v is not a string", r)
		}
		if !strings.Contains(msg, substr) {
			t.Fatalf("panic %q does not contain %q", msg, substr)
		}
	}()
	fn()
}

func TestArenaExactlyOnceRelease(t *testing.T) {
	a := NewArena()
	pkts := make([]*Packet, 3*arenaChunk)
	for i := range pkts {
		pkts[i] = a.Get()
		pkts[i].Flow = i
	}
	if a.Live() != int64(len(pkts)) {
		t.Fatalf("Live = %d, want %d", a.Live(), len(pkts))
	}
	for _, p := range pkts {
		p.Release()
	}
	if a.Live() != 0 {
		t.Fatalf("Live after release = %d, want 0", a.Live())
	}
	// A second release of an already-freed packet is a lifecycle bug and
	// must panic, not silently corrupt the free list.
	mustPanic(t, "released after free", func() { pkts[0].Release() })
}

func TestArenaStaleHandle(t *testing.T) {
	a := NewArena()
	p := a.Get()
	h := HandleOf(p)
	if !h.Valid() || h.Get() != p {
		t.Fatal("fresh handle should be valid and resolve to its packet")
	}
	p.Release()
	if h.Valid() {
		t.Fatal("handle to a freed packet must be invalid")
	}
	mustPanic(t, "stale packet handle", func() { h.Get() })

	// The handle stays stale across the slot's next incarnation: a new Get
	// reusing the same memory carries a bumped generation.
	q := a.Get()
	if q != p {
		t.Fatalf("LIFO free list should hand the slot back (got %p, want %p)", q, p)
	}
	if h.Valid() {
		t.Fatal("old handle must not validate against the recycled incarnation")
	}
	if !HandleOf(q).Valid() {
		t.Fatal("fresh handle to the recycled incarnation must be valid")
	}
	q.Release()
}

func TestArenaHandleOfLiteral(t *testing.T) {
	p := &Packet{Flow: 7}
	h := HandleOf(p)
	if !h.Valid() || h.Get() != p {
		t.Fatal("handles to non-pooled literals are always valid")
	}
	var none Handle
	if none.Valid() {
		t.Fatal("zero handle must be invalid")
	}
}

func TestArenaCloneIndependence(t *testing.T) {
	a := NewArena()
	src := a.Get()
	src.Flow, src.Seq, src.Size, src.Kind = 42, 9, 1500, Data
	cp := a.Clone(src)
	if cp == src {
		t.Fatal("Clone returned the source packet")
	}
	if cp.Flow != 42 || cp.Seq != 9 || cp.Size != 1500 || cp.Kind != Data {
		t.Fatalf("clone did not copy public fields: %+v", cp)
	}
	cp.Seq = 100
	if src.Seq != 9 {
		t.Fatal("mutating the clone leaked into the source")
	}
	// Each has its own single reference and releases independently.
	cp.Release()
	if !HandleOf(src).Valid() {
		t.Fatal("releasing the clone freed the source")
	}
	src.Release()
	if a.Live() != 0 {
		t.Fatalf("Live = %d, want 0", a.Live())
	}
}

func TestArenaNilFallbacks(t *testing.T) {
	var a *Arena
	p := a.Get()
	if p == nil || p.home != nil {
		t.Fatal("nil-arena Get should return a literal with no home")
	}
	p.Release() // no-op on literals, however often
	p.Release()
	if p.ref != 0 {
		t.Fatal("Release on a literal must leave it untouched")
	}

	// Clone of a pooled source on a nil arena must clear pool bookkeeping
	// so the copy never aliases free-list state.
	real := NewArena()
	src := real.Get()
	cp := a.Clone(src)
	if cp.home != nil {
		t.Fatal("nil-arena clone must not claim a home arena")
	}
	if cp.ref != 0 || cp.gen != 0 || cp.next != nil {
		t.Fatalf("nil-arena clone carries pool state: ref=%d gen=%d next=%p",
			cp.ref, cp.gen, cp.next)
	}
	src.Release()
}

// TestPropertyArenaNoAliasing drives randomized Get/Release/Clone streams
// (the shape a fault plan produces: dup clones, drop releases) and checks the pool invariants after every
// step: no two live packets share a pointer, handles go stale exactly when
// the last reference drops, and Live() matches the tracked live set.
func TestPropertyArenaNoAliasing(t *testing.T) {
	for _, seed := range []uint64{1, 7, 99, 12345} {
		plan := faults.New(seed, faults.Spec{Drop: 0.3, Dup: 0.2})
		rng := plan.Stream("arena-prop")
		a := NewArena()

		type liveRef struct {
			h    Handle
			refs int
		}
		live := map[*Packet]*liveRef{}
		acquire := func(p *Packet) {
			if _, dup := live[p]; dup {
				t.Fatalf("seed %d: arena handed out a pointer that is still live", seed)
			}
			live[p] = &liveRef{h: HandleOf(p), refs: 1}
		}
		var order []*Packet // insertion order, for uniform random picks

		for step := 0; step < 5000; step++ {
			switch op := rng.Intn(10); {
			case op < 4 || len(order) == 0: // Get
				p := a.Get()
				acquire(p)
				order = append(order, p)
			case op < 6: // Clone a random live packet
				src := order[rng.Intn(len(order))]
				cp := a.Clone(src)
				acquire(cp)
				order = append(order, cp)
			default: // Release one reference
				i := rng.Intn(len(order))
				p := order[i]
				lr := live[p]
				p.Release()
				lr.refs--
				if lr.refs > 0 {
					if !lr.h.Valid() {
						t.Fatalf("seed %d: handle stale with %d refs left", seed, lr.refs)
					}
					break
				}
				if lr.h.Valid() {
					t.Fatalf("seed %d: handle survived the final release", seed)
				}
				delete(live, p)
				order[i] = order[len(order)-1]
				order = order[:len(order)-1]
			}
			if int(a.Live()) != len(live) {
				t.Fatalf("seed %d step %d: Live = %d, tracked %d", seed, step, a.Live(), len(live))
			}
		}
		for _, p := range order {
			for live[p].refs > 0 {
				p.Release()
				live[p].refs--
			}
		}
		if a.Live() != 0 {
			t.Fatalf("seed %d: Live = %d after draining", seed, a.Live())
		}
	}
}

// TestPropertyTwoArenasGoHome runs the same kind of stream over two
// arenas, the shape of a two-shard topology: every step runs on a random
// shard, which acquires and clones from its own arena and drops whatever
// references the step picks, wherever the packet came from. Packets go
// home, so after every step neither arena's Live is negative, each equals
// the live packets that arena handed out, and Get or Clone never returns
// a packet the other arena carved.
func TestPropertyTwoArenasGoHome(t *testing.T) {
	for _, seed := range []uint64{3, 17, 2024} {
		rng := sim.NewRNG(seed)
		arenas := [2]*Arena{NewArena(), NewArena()}
		var live [2]int64           // live packets handed out, per arena
		carver := map[*Packet]int{} // the arena that first handed each packet out
		type liveRef struct{ from, refs int }
		refs := map[*Packet]*liveRef{}
		var order []*Packet
		acquire := func(p *Packet, on int) {
			if c, seen := carver[p]; seen && c != on {
				t.Fatalf("seed %d: arena %d handed out a packet arena %d carved", seed, on, c)
			}
			if _, dup := refs[p]; dup {
				t.Fatalf("seed %d: arena %d handed out a pointer that is still live", seed, on)
			}
			carver[p] = on
			refs[p] = &liveRef{from: on, refs: 1}
			live[on]++
			order = append(order, p)
		}

		for step := 0; step < 5000; step++ {
			on := rng.Intn(len(arenas)) // the shard this step runs on
			switch op := rng.Intn(10); {
			case op < 4 || len(order) == 0:
				acquire(arenas[on].Get(), on)
			case op < 6:
				acquire(arenas[on].Clone(order[rng.Intn(len(order))]), on)
			default: // shard on drops one reference
				i := rng.Intn(len(order))
				p := order[i]
				p.Release()
				lr := refs[p]
				if lr.refs--; lr.refs == 0 {
					live[lr.from]--
					delete(refs, p)
					order[i] = order[len(order)-1]
					order = order[:len(order)-1]
				}
			}
			for i, a := range arenas {
				if a.Live() < 0 {
					t.Fatalf("seed %d step %d: arena %d Live = %d", seed, step, i, a.Live())
				}
			}
			for i, a := range arenas {
				if a.Live() != live[i] {
					t.Fatalf("seed %d step %d: arena %d Live = %d, handed out %d", seed, step, i, a.Live(), live[i])
				}
			}
		}
		for _, p := range order {
			for lr := refs[p]; lr.refs > 0; lr.refs-- {
				p.Release()
			}
		}
		for i, a := range arenas {
			if a.Live() != 0 {
				t.Fatalf("seed %d: arena %d Live = %d after draining", seed, i, a.Live())
			}
		}
	}
}

// releasingSink releases each arriving packet after recording it — the
// endpoint contract arena-backed receivers follow.
type releasingSink struct {
	count int
}

func (s *releasingSink) Deliver(p *Packet) {
	if !HandleOf(p).Valid() {
		panic("delivered packet is not live")
	}
	s.count++
	p.Release()
}

// TestLinkOwnershipDupIsDistinctPacket pins the dup-fault ownership rule:
// the duplicate is a distinct arena packet, never a second delivery of the
// same pointer. Under the old aliasing behavior both deliveries would carry
// one *Packet, and the receiver's second Release would blow the refcount.
func TestLinkOwnershipDupIsDistinctPacket(t *testing.T) {
	eng := sim.NewEngine(1)
	a := NewArena()
	var got []*Packet
	l := NewLink(eng, "dup", 100_000_000, 10*sim.Microsecond, EndpointFunc(func(p *Packet) {
		got = append(got, p)
	}))
	l.SetArena(a)
	l.Faults = faults.New(5, faults.Spec{Dup: 1}).Link("dup")

	p := a.Get()
	p.Size, p.Flow = 1500, 3
	l.Send(p)
	eng.Run()

	if len(got) != 2 {
		t.Fatalf("delivered %d packets, want original + duplicate", len(got))
	}
	if got[0] == got[1] {
		t.Fatal("duplicate aliases the original packet")
	}
	for i, q := range got {
		if !HandleOf(q).Valid() {
			t.Fatalf("delivery %d is not a live packet", i)
		}
		if q.Flow != 3 || q.Size != 1500 {
			t.Fatalf("delivery %d lost its fields: %+v", i, q)
		}
		q.Release()
	}
	if l.Duplicated != 1 {
		t.Fatalf("Duplicated = %d, want 1", l.Duplicated)
	}
	if a.Live() != 0 {
		t.Fatalf("Live = %d, want 0", a.Live())
	}
}

// TestLinkOwnershipReleaseOnDrop pins the drop-side ownership rule: both
// queue-limit tail drops and injected losses release the consumed packet
// back to the arena. Under the old behavior dropped packets leaked (or
// worse, stayed referenced by the caller), which Live() exposes.
func TestLinkOwnershipReleaseOnDrop(t *testing.T) {
	eng := sim.NewEngine(1)
	a := NewArena()
	sink := &releasingSink{}

	// Queue-limit drop.
	l := NewLink(eng, "tail", 100_000_000, 0, sink)
	l.SetArena(a)
	l.MaxQueue = 1
	first := a.Get()
	first.Size = 1500
	dropped := a.Get()
	dropped.Size = 1500
	h := HandleOf(dropped)
	l.Send(first)
	if l.Send(dropped) {
		t.Fatal("second send should hit the queue limit")
	}
	if h.Valid() {
		t.Fatal("tail-dropped packet was not released")
	}

	// Injected loss.
	lossy := NewLink(eng, "lossy", 100_000_000, 0, sink)
	lossy.SetArena(a)
	lossy.Faults = faults.New(9, faults.Spec{Drop: 1}).Link("lossy")
	lost := a.Get()
	lost.Size = 1500
	hl := HandleOf(lost)
	if !lossy.Send(lost) {
		t.Fatal("an injected loss still reports the packet as sent")
	}
	if hl.Valid() {
		t.Fatal("lost packet was not released")
	}
	eng.Run()

	if sink.count != 1 {
		t.Fatalf("delivered %d, want only the first packet", sink.count)
	}
	if l.Dropped != 1 || lossy.Lost != 1 {
		t.Fatalf("Dropped = %d, Lost = %d", l.Dropped, lossy.Lost)
	}
	if a.Live() != 0 {
		t.Fatalf("Live = %d, want 0 after drain", a.Live())
	}
}

// TestLinkOwnershipFaultStream soaks the full fault matrix — loss, dup,
// reorder, tail drop — over many arena packets and checks the books
// balance: every delivery is a live packet, deliveries = sent - lost +
// duplicated, and the arena drains to zero afterward.
func TestLinkOwnershipFaultStream(t *testing.T) {
	for _, seed := range []uint64{2, 11, 404} {
		eng := sim.NewEngine(seed)
		a := NewArena()
		sink := &releasingSink{}
		l := NewLink(eng, "soak", 100_000_000, 20*sim.Microsecond, sink)
		l.SetArena(a)
		l.MaxQueue = 8
		l.Faults = faults.New(seed, faults.Spec{
			Drop: 0.2, Dup: 0.3, Reorder: 0.2, ReorderMax: 200 * sim.Microsecond,
		}).Link("soak")

		const n = 500
		for i := 0; i < n; i++ {
			p := a.Get()
			p.Size, p.Seq = 1500, int64(i)
			l.Send(p)
			// Drain in bursts so the queue limit engages sometimes.
			if i%16 == 15 {
				eng.Run()
			}
		}
		eng.Run()

		if l.Lost == 0 || l.Duplicated == 0 || l.Reordered == 0 || l.Dropped == 0 {
			t.Fatalf("seed %d: fault matrix not exercised: lost=%d dup=%d reord=%d dropped=%d",
				seed, l.Lost, l.Duplicated, l.Reordered, l.Dropped)
		}
		want := int(l.Sent - l.Lost + l.Duplicated)
		if sink.count != want {
			t.Fatalf("seed %d: delivered %d, want sent-lost+dup = %d", seed, sink.count, want)
		}
		if a.Live() != 0 {
			t.Fatalf("seed %d: Live = %d after drain", seed, a.Live())
		}
	}
}
