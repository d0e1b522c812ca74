package sim

// Sharded execution: a ShardGroup owns N engines and advances them in
// rounds under conservative (Chandy-Misra-Bryant style) time
// synchronization. Each shard's clock is only ever granted up to the
// minimum over its inbound channels of the earliest time the sender could
// next act plus that channel's lookahead — the minimum latency any
// cross-shard message on the channel must carry — so no shard can receive
// an event in its past, with no rollback machinery.
//
// Execution proceeds in rounds, all on the goroutine that calls Run. Every
// round first flushes the messages emitted in strictly earlier rounds (or
// during assembly) into their destination engines, then computes each
// shard's grant from the engines' queue heads, then runs each active
// shard up to its grant in shard order and commits its clock. The grant rule guarantees each message is injected
// strictly before its destination's clock reaches the message timestamp.
//
// Rounds are tiny — a fleet shard-round typically fires a handful of
// events — so handing shards to other goroutines each round would cost
// more than it buys: one cross-goroutine round trip per shard per round
// outweighs the round's own work (measurements in DESIGN.md, "Inline
// rounds"). Multi-core use lives one level up, where independent
// experiment rows share no barrier.
//
// Grants are mined: each engine is asked for its earliest pending event
// (Engine.EarliestPending — an O(1) queue peek). A shard cannot execute a
// handler, and therefore cannot emit a message, before the earliest event
// it could ever run; that time is not its own queue head alone, because a
// peer may still deliver work that executes earlier, so each round relaxes
//
//	bound[s] = min(earliestPending(s), min over inbound j of bound[j]+la[j][s])
//
// to a fixpoint and grants dst
//
//	grant[dst] = min over inbound src of (bound[src] + la[src][dst]).
//
// bound[s] >= clock[s] always (own pending events are at or after the
// clock, and every inbound term is at least the previous barrier's grant),
// so a mined grant is never below the classic clock[src]+la[src][dst]
// one, and an idle low-delay link does not serialize the group. Grants
// set round boundaries only — never event order.
//
// A flushed message becomes an ordinary pending event in the destination
// engine's arrival band (Engine.AtArrival): its heap key is (time,
// conduit, seq), where conduit ids are assigned at topology-assembly time
// — identical at any shard count — and seq is the conduit's send counter.
// Arrival-band events fire after every ordinarily scheduled event at the
// same instant, ordered among themselves by (conduit, seq); because a
// one-shard group schedules the same deliveries with the same keys
// through the same band, the merged event history is identical by
// construction: independent of the round schedule and the number of
// shards. A one-shard group has no rounds at all: Run is its engine's
// RunUntil, and its clock is its engine's.
//
// Cross-shard hand-offs therefore add no engine events: the delivery that
// would have been a pending event on one shard is a pending event on
// exactly one shard engine, so per-engine fired/pending totals sum to
// the one-shard values.

import "fmt"

// shardMsg is one cross-shard message: fn runs on the destination shard's
// engine as an arrival-band event keyed (at, conduit, seq).
type shardMsg struct {
	at      Time
	conduit int32
	dst     int32
	seq     uint64
	fn      func()
}

// shard is one engine's slot in a ShardGroup.
type shard struct {
	id    int
	eng   *Engine
	clock Time // committed: the shard has executed everything before clock
	grant Time // this round's horizon

	out []shardMsg // messages emitted this round, flushed at the barrier
}

// ShardGroup owns N engines and runs them under conservative sync.
type ShardGroup struct {
	shards []*shard
	la     [][]Time // la[src][dst]; negative means "no channel declared"
	now    Time

	// Deprecated: ignored. Run executes every round on the calling
	// goroutine.
	Workers int

	// started flips at the first Run and freezes the channel topology:
	// grants are derived from lookaheads mid-round, so changing them with
	// rounds in flight would silently unsound the sync.
	started bool

	rounds   int64
	messages int64
	bound    []Time // per-shard mining bound, scratch reused every round
}

// NewShardGroup creates n engines. Shard 0's engine is seeded exactly
// with seed — a single-shard group replays a bare NewEngine(seed) run
// byte-for-byte — and the rest draw well-separated streams from it.
func NewShardGroup(n int, seed uint64) *ShardGroup {
	if n <= 0 {
		panic("sim: shard group needs at least one shard")
	}
	g := &ShardGroup{
		shards: make([]*shard, n),
		la:     make([][]Time, n),
		bound:  make([]Time, n),
	}
	for i := 0; i < n; i++ {
		g.shards[i] = &shard{
			id:  i,
			eng: NewEngine(seed + uint64(i)*0x9E3779B97F4A7C15),
		}
		g.la[i] = make([]Time, n)
		for j := range g.la[i] {
			g.la[i][j] = -1
		}
	}
	return g
}

// N returns the shard count.
func (g *ShardGroup) N() int { return len(g.shards) }

// Engine returns shard i's engine.
func (g *ShardGroup) Engine(i int) *Engine { return g.shards[i].eng }

// Now returns the group clock: the horizon every shard has reached. A
// one-shard group's clock is its engine's, so callers may drive that
// engine directly between group runs and the group follows.
func (g *ShardGroup) Now() Time {
	if len(g.shards) == 1 {
		return g.shards[0].eng.Now()
	}
	return g.now
}

// TotalFired sums fired events across shard engines. Cross-shard messages
// become arrival-band events on exactly one engine, so the total equals
// the one-shard count.
func (g *ShardGroup) TotalFired() uint64 {
	var n uint64
	for _, s := range g.shards {
		n += s.eng.Fired
	}
	return n
}

// TotalPending sums pending events across shard engines. In-flight
// cross-shard messages are injected into destination heaps at round
// barriers, so between Run calls the total matches the one-shard pending
// count (where an in-flight packet is simply a future event).
func (g *ShardGroup) TotalPending() int {
	var n int
	for _, s := range g.shards {
		n += s.eng.Pending()
	}
	return n
}

// Stats reports synchronization work done so far.
func (g *ShardGroup) Stats() (rounds, messages int64) { return g.rounds, g.messages }

// SetLookahead declares (or tightens) the lookahead of the src→dst
// channel: every message sent on it must be timestamped at least d past
// the sender's clock. d must be positive — a zero-lookahead channel would
// deadlock conservative sync — and the effective lookahead is the minimum
// over all declarations, so callers register each link's propagation
// delay and the channel gets the tightest one. Like the rest of the
// channel topology it is assembly-time only: calling it once the group
// has run panics, because rounds already in flight were granted under the
// old lookaheads.
func (g *ShardGroup) SetLookahead(src, dst int, d Time) {
	if g.started {
		panic("sim: SetLookahead after the shard group has run")
	}
	if src == dst {
		panic("sim: lookahead from a shard to itself")
	}
	if d <= 0 {
		panic(fmt.Sprintf("sim: non-positive lookahead %v for shard channel %d->%d", d, src, dst))
	}
	if cur := g.la[src][dst]; cur < 0 || d < cur {
		g.la[src][dst] = d
	}
}

// Conduit is a sender-owned cross-shard message channel. The id keys the
// arrival-band tie-break, so callers must assign ids during deterministic
// assembly (never mid-run) and reuse the same assignment at any shard
// count — topologies allocate them in join order and give the same id to
// the link's local arrival path.
type Conduit struct {
	g   *ShardGroup
	src int32
	id  int32
}

// NewConduit registers a conduit sending from shard src under the given
// arrival-band conduit id. Ids must be non-negative and should be unique
// per message source (the (conduit, seq) key must be). Conduits are part
// of the assembly-time channel topology, so registering one after the
// group has run panics like SetLookahead.
func (g *ShardGroup) NewConduit(src int, id int32) *Conduit {
	if g.started {
		panic("sim: NewConduit after the shard group has run")
	}
	if src < 0 || src >= len(g.shards) {
		panic(fmt.Sprintf("sim: conduit source shard %d out of range", src))
	}
	if id < 0 {
		panic(fmt.Sprintf("sim: negative conduit id %d", id))
	}
	return &Conduit{g: g, src: int32(src), id: id}
}

// Send schedules fn on shard dst at time at, keyed by the conduit's id
// and the caller's per-conduit seq. It must be called from the source
// shard (during its round, or before the group runs), and at must
// respect the declared src→dst lookahead — violating it means the
// receiver may already have advanced past at, so it panics loudly rather
// than corrupt timestamp order.
func (c *Conduit) Send(dst int, at Time, seq uint64, fn func()) {
	g := c.g
	src := g.shards[c.src]
	la := g.la[c.src][dst]
	if la < 0 {
		panic(fmt.Sprintf("sim: conduit %d send %d->%d with no declared lookahead", c.id, c.src, dst))
	}
	if at < src.eng.Now()+la {
		panic(fmt.Sprintf("sim: conduit %d send %d->%d at %v violates lookahead %v (src clock %v)",
			c.id, c.src, dst, at, la, src.eng.Now()))
	}
	src.out = append(src.out, shardMsg{at: at, conduit: c.id, dst: int32(dst), seq: seq, fn: fn})
}

// computeGrants derives every shard's grant for the next round from the
// run horizon and the mining bounds (see the package comment). It returns
// the number of shards with work to do (clock < grant).
func (g *ShardGroup) computeGrants(until Time) (active int) {
	n := len(g.shards)

	// bound[i]: the earliest virtual time shard i could execute anything
	// from here on — its own queue head, lowered transitively by what
	// peers could still deliver. until stands in for "nothing before the
	// horizon": it only ever produces grants that clamp at until, and it
	// keeps the arithmetic far from overflow.
	for i, s := range g.shards {
		b := until
		if t, ok := s.eng.EarliestPending(); ok && t < until {
			b = t
		}
		g.bound[i] = b
	}
	// Relax to a fixpoint (Bellman-Ford over the channel graph; no
	// negative cycles since lookaheads are positive, so it terminates in
	// at most n sweeps). The naive per-shard rule — grant straight from
	// the sender's queue head — is transitively unsound: an upstream peer
	// can wake an empty-looking sender well before its own head event.
	for changed := true; changed; {
		changed = false
		for d := 0; d < n; d++ {
			for s := 0; s < n; s++ {
				la := g.la[s][d]
				if la < 0 {
					continue
				}
				if b := g.bound[s] + la; b < g.bound[d] {
					g.bound[d] = b
					changed = true
				}
			}
		}
	}

	for _, s := range g.shards {
		grant := until
		for j := 0; j < n; j++ {
			la := g.la[j][s.id]
			if la < 0 {
				continue
			}
			if h := g.bound[j] + la; h < grant {
				grant = h
			}
		}
		s.grant = grant
		if s.clock < s.grant {
			active++
		}
	}
	return active
}

// RunFor advances every shard by d.
func (g *ShardGroup) RunFor(d Time) { g.Run(g.Now() + d) }

// Run advances every shard to exactly until. On return every engine's
// clock is until, every emitted message has been injected into its
// destination engine (ones due later than until are simply future
// events), and the per-shard event histories are those of the same
// workload on one shard.
func (g *ShardGroup) Run(until Time) {
	if until < g.Now() {
		panic("sim: shard group run target before group clock")
	}
	g.started = true
	if len(g.shards) == 1 {
		// A conduit cannot target its own shard (Send demands a lookahead,
		// SetLookahead refuses self-channels), so this is exactly a bare
		// engine run, driven or not.
		g.shards[0].eng.RunUntil(until)
		return
	}
	for {
		// Flush outboxes: every message emitted in the previous round (or
		// during assembly, on the first iteration) becomes an arrival-band
		// event on its destination engine. The grant rule makes this sound:
		// a message emitted by src during round r is timestamped past src's
		// round-(r-1) mining bound plus the channel lookahead, which bounds
		// every other shard's round-r grant — so the destination's clock is
		// still at or below the timestamp here.
		g.flush()

		if g.computeGrants(until) == 0 {
			break
		}
		g.rounds++

		// Run every active shard to its grant and commit its clock. Grants
		// were fixed above from the previous round's bounds, and outboxes
		// filled now are flushed at the top of the next iteration, so no
		// shard's run depends on another's within the round.
		for _, s := range g.shards {
			if s.clock < s.grant {
				s.eng.RunUntil(s.grant)
				s.clock = s.grant
			}
		}
	}

	// The loop only exits with every clock at until (a lagging shard is
	// always active: its grant exceeds the minimum clock by at least one
	// positive lookahead). Mining can land a message timestamped exactly
	// at a receiver's committed horizon — the receiver reached until a
	// round early, then the sender's horizon-stamped message was flushed
	// above after the receiver had already run — so fire those stragglers
	// with one more inclusive pass. Anything a straggler emits is at least
	// a lookahead past until: flush it as an ordinary future event.
	for _, s := range g.shards {
		if t, ok := s.eng.EarliestPending(); ok && t <= until {
			s.eng.RunUntil(until)
		}
	}
	g.flush()
	g.now = until
}

// flush injects every outbox message into its destination engine as an
// arrival-band event and empties the outboxes.
func (g *ShardGroup) flush() {
	for _, s := range g.shards {
		for _, m := range s.out {
			g.shards[m.dst].eng.AtArrival(m.at, m.conduit, m.seq, "", m.fn)
		}
		g.messages += int64(len(s.out))
		s.out = s.out[:0]
	}
}
