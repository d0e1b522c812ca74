package netstack

import (
	"fmt"

	"softtimers/internal/flowtrace"
)

// Packet pooling. An Arena recycles packets the way sim.Engine recycles
// events: acquisition pops a free list, release pushes the packet back,
// and a generation counter makes stale handles detectable. Arenas are
// strictly single-goroutine — one per engine (per shard, in sharded
// topologies).
//
// Packets go home: every pooled packet records the arena that carved it,
// and Release returns it there, wherever the last reference drops. A
// packet acquired on shard A and freed on shard B lands back on A's free
// list, so each arena's free list holds only its own packets and its
// chunks follow its peak of packets in flight, not the traffic that has
// crossed shards. Pushing onto another shard's arena needs no lock only
// because every shard runs inline on the goroutine that calls
// sim.ShardGroup.Run (DESIGN.md, "Inline rounds"); rounds spread over
// goroutines would need the free list guarded.
//
// Ownership rules (see DESIGN.md "Packet lifecycle & arena"):
//   - the producer acquires (Get) and owns the packet;
//   - Link.Send consumes it: ownership passes to the link, which releases
//     on a queue-limit drop or an injected loss and otherwise hands the
//     packet to its destination endpoint at arrival time;
//   - a Switch forwards (ownership passes to the next link) or releases on
//     an address miss;
//   - a NIC releases on an rx-ring fault drop, and otherwise after the
//     receive handler returns — handlers borrow the packet; a handler that
//     needs it past its own return (e.g. to queue it out another
//     interface) must Retain first;
//   - Release decrements the refcount and only frees at zero, so
//     Retain/Release pairs give multi-hop paths a zero-alloc lifetime.
//
// Packets built as plain literals (&Packet{...}) have no home: Release is
// a no-op for them, so existing rigs and tests keep working unchanged.
// The exactly-once and stale-handle guarantees apply only to
// arena-acquired packets.

// arenaChunk is the packet count carved per allocation when the free list
// runs dry, amortizing allocation the way the engine's event pool does.
const arenaChunk = 64

// Arena is a single-goroutine packet pool.
type Arena struct {
	free *Packet

	// rec, when set, retires the span of any traced packet this arena
	// carved when its refcount drops to zero, on whichever shard that
	// happens — the flowtrace span-finish hook.
	rec *flowtrace.Recorder

	gets   int64 // packets handed out (Get + Clone)
	puts   int64 // packets returned to this arena's free list
	chunks int64 // chunk carves
}

// SetFlowRecorder attaches the shard's flowtrace recorder; traced packets
// this arena carved finish their spans into it. Without one, a traced
// packet's span is silently dropped at release (untraced rigs never hit
// this: samplers are only wired alongside recorders).
func (a *Arena) SetFlowRecorder(r *flowtrace.Recorder) { a.rec = r }

// NewArena creates an empty arena; the first Get carves a chunk.
func NewArena() *Arena { return &Arena{} }

// Get acquires a packet with zeroed public fields and a refcount of one.
// Safe on a nil arena (falls back to a heap literal) so unwired paths
// degrade to the old allocation behavior instead of crashing.
func (a *Arena) Get() *Packet {
	if a == nil {
		return &Packet{}
	}
	p := a.free
	if p == nil {
		chunk := make([]Packet, arenaChunk)
		for i := range chunk {
			c := &chunk[i]
			c.home = a
			c.next = a.free
			a.free = c
		}
		a.chunks++
		p = a.free
	}
	a.free = p.next
	p.next = nil
	p.reset()
	p.ref = 1
	a.gets++
	return p
}

// reset zeroes the public fields, preserving pool bookkeeping.
func (p *Packet) reset() {
	home, gen := p.home, p.gen
	*p = Packet{}
	p.home, p.gen = home, gen
}

// Retain adds a reference: the packet will survive one extra Release.
// No-op for literals. Returns p for call-site convenience.
func (p *Packet) Retain() *Packet {
	if p.home != nil {
		p.ref++
	}
	return p
}

// Release drops one reference and, at zero, returns the packet to the
// free list of the arena that carved it, finishing its flowtrace span
// into that arena's recorder and bumping its generation so stale handles
// notice. Literals are ignored, and over-releasing a pooled packet panics
// — that is a lifecycle bug, not a runtime condition.
func (p *Packet) Release() {
	a := p.home
	if a == nil {
		return
	}
	p.ref--
	if p.ref > 0 {
		return
	}
	if p.ref < 0 {
		panic(fmt.Sprintf("netstack: packet released after free (flow %d, gen %d)", p.Flow, p.gen))
	}
	if p.Trace != nil {
		a.rec.Finish(p.Trace, p.Flow, int(p.Kind), p.Seq, int32(p.Src), int32(p.Dst))
		p.Trace = nil
	}
	p.gen++
	p.next = a.free
	a.free = p
	a.puts++
}

// Clone acquires a fresh packet carrying src's public fields — the
// dup-fault copy. On a nil arena it falls back to a heap copy with the
// pool bookkeeping cleared, so a struct copy never aliases free-list
// state. The clone is untraced: a span belongs to exactly one packet
// (one release finishes it), so the copy must not alias it.
func (a *Arena) Clone(src *Packet) *Packet {
	if a == nil {
		cp := *src
		cp.home, cp.ref, cp.gen, cp.next = nil, 0, 0, nil
		cp.Trace = nil
		return &cp
	}
	p := a.Get()
	home, ref, gen := p.home, p.ref, p.gen
	*p = *src
	p.home, p.ref, p.gen, p.next = home, ref, gen, nil
	p.Trace = nil
	return p
}

// Live returns the packets this arena has handed out and not yet gotten
// back. Every packet goes home, so at any shard count Live is never
// negative and counts exactly this arena's packets still in flight; a
// drained network has Live() == 0 on every arena.
func (a *Arena) Live() int64 { return a.gets - a.puts }

// Handle is a generation-counted weak reference to an arena packet, for
// tests that assert lifecycle discipline. A handle taken from a live
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
