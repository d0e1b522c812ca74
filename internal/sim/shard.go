package sim

// Sharded execution: a ShardGroup owns N engines and advances them in
// rounds under conservative (Chandy-Misra-Bryant style) time
// synchronization. Each shard's clock is only ever granted up to the
// minimum over its inbound channels of the sender's committed clock plus
// that channel's lookahead — the minimum latency any cross-shard message
// on the channel must carry — so no shard can receive an event in its
// past, with no rollback machinery.
//
// Execution proceeds in rounds, all on the goroutine that calls Run. Every
// round first flushes the messages emitted in strictly earlier rounds (or
// during assembly) into their destination engines, then computes each
// shard's grant from the clocks committed at the end of the previous
// round, then runs each active shard up to its grant in shard order and
// commits its clock. The grant rule guarantees each message is injected
// strictly before its destination's clock reaches the message timestamp.
//
// Rounds are tiny — a fleet shard-round typically fires a handful of
// events — so handing shards to other goroutines each round would cost
// more than it buys: one cross-goroutine round trip per shard per round
// outweighs the round's own work (measurements in DESIGN.md, "Inline
// rounds"). Multi-core use lives one level up, where independent
// experiment rows share no barrier.
//
// Lookahead mining (on by default, SetMining) raises grants past the
// static rule by asking each engine for its earliest pending event
// (Engine.EarliestPending — an O(1) queue peek). A shard cannot execute a
// handler, and therefore cannot emit a message, before the earliest event
// it could ever run; that time is not its own queue head alone, because a
// peer may still deliver work that executes earlier, so each round relaxes
//
//	bound[s] = min(earliestPending(s), min over inbound j of bound[j]+la[j][s])
//
// to a fixpoint and grants dst
//
//	grant[dst] = min over inbound src of (bound[src] + la[src][dst])
//
// in place of clock[src]+la[src][dst]. bound[s] >= clock[s] always (own
// pending events are at or after the clock, and every inbound term is at
// least the previous barrier's grant), so mined grants dominate static
// ones: rounds with mining are never more numerous, and an idle low-delay
// link no longer serializes the group. Mining changes round boundaries
// only — never event order — so results stay byte-identical with it on or
// off, at any shard count.
//
// A flushed message becomes an ordinary pending event in the destination
// engine's arrival band (Engine.AtArrival): its heap key is (time,
// conduit, seq), where conduit ids are assigned at topology-assembly time
// — identical at any shard count — and seq is the conduit's send counter.
// Arrival-band events fire after every ordinarily scheduled event at the
// same instant, ordered among themselves by (conduit, seq); because the
// single-engine path schedules the same deliveries with the same keys
// through the same band, the merged event history is identical by
// construction: independent of the round schedule and the number of
// shards — including the degenerate count of one engine with no group at
// all.
//
// Cross-shard hand-offs therefore add no engine events: the delivery that
// would have been a pending event on the single engine is a pending event
// on exactly one shard engine, so per-engine fired/pending totals sum to
// the single-engine values.

import (
	"fmt"

	"softtimers/internal/stats"
)

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

	sgrant Time // the static (clock+lookahead) grant, for mined-gain telemetry
	pend   Time // own earliest pending event this round (until-clamped)
	bind   int  // inbound shard binding this round's grant; -1 = the run horizon

	out []shardMsg // messages emitted this round, flushed at the barrier
}

// ShardSyncStats is one shard's slice of the group's grant-utilization
// telemetry. Widths are virtual nanoseconds summed over the shard's
// active rounds.
type ShardSyncStats struct {
	Rounds       int64 // rounds the shard was active (clock < grant)
	GrantedNS    int64 // sum of granted horizon widths (grant − clock)
	ReachedNS    int64 // sum of the executable span covered (grant − first due event; 0 when idle)
	MinedGainNS  int64 // sum of mined − static grant (0 with mining off)
	IdleRounds   int64 // active rounds with nothing due below the grant: pure clock advance
	HorizonBound int64 // rounds where the run horizon, not an inbound channel, bound the grant
}

// SyncStats is the conservative-sync grant-utilization telemetry a
// multi-shard Run accumulates: how wide the rounds were, how much of each
// granted horizon contained executable work, what mining bought, and
// which inbound channel was each shard's binding constraint. Everything
// here is a pure function of virtual state, and is kept out of the
// workload telemetry snapshot, which stays byte-identical across shard
// counts by contract.
type SyncStats struct {
	Rounds            int64 // sync rounds executed
	Messages          int64 // cross-shard messages flushed
	ActiveShardRounds int64 // sum of round widths: one count per (round, active shard)

	Shards []ShardSyncStats

	// Binding[src][dst] counts rounds where the src→dst channel was the
	// binding constraint on dst's grant (lowest src index on ties).
	// Horizon-bound rounds land in Shards[dst].HorizonBound instead.
	Binding [][]int64

	GrantWidthUS *stats.Histogram // granted width per active shard-round, µs
	MinedGainUS  *stats.Histogram // mined − static grant per active shard-round, µs
	RoundWidth   *stats.Histogram // active shards per round
}

// ShardGroup owns N engines and runs them under conservative sync.
type ShardGroup struct {
	shards []*shard
	la     [][]Time // la[src][dst]; negative means "no channel declared"
	now    Time

	// Deprecated: ignored. Run executes every round on the calling
	// goroutine.
	Workers int

	// driver, when non-nil, paces rounds against an external clock
	// (SetClockDriver): each round waits at the barrier until the clock
	// authorizes the round's earliest grant. Shard engines keep nil
	// drivers — each runs a whole grant at a time, ahead of its peers — so
	// emulation granularity under sharding is the round (the lookahead),
	// not the event. Injected work runs at the barrier, between shard
	// runs — and since an injected closure may schedule events anywhere,
	// the round's grants are recomputed in full after any batch runs.
	driver ClockDriver

	// mine enables pacing-aware lookahead mining (see the package comment;
	// on by default). started flips at the first Run and freezes the
	// channel topology: grants are derived from lookaheads mid-round, so
	// changing them with rounds in flight would silently unsound the sync.
	mine    bool
	started bool

	rounds   int64
	messages int64
	bound    []Time // per-shard mining bound, scratch reused every round
	sstats   SyncStats
}

// NewShardGroup creates n engines. Shard 0's engine is seeded exactly
// with seed — a single-shard group replays a legacy NewEngine(seed) run
// byte-for-byte — and the rest draw well-separated streams from it.
func NewShardGroup(n int, seed uint64) *ShardGroup {
	if n <= 0 {
		panic("sim: shard group needs at least one shard")
	}
	g := &ShardGroup{
		shards: make([]*shard, n),
		la:     make([][]Time, n),
		mine:   true,
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
	g.sstats.Shards = make([]ShardSyncStats, n)
	g.sstats.Binding = make([][]int64, n)
	for i := range g.sstats.Binding {
		g.sstats.Binding[i] = make([]int64, n)
	}
	// Grant widths in fleets sit between the minimum link lookahead (tens
	// of µs) and the idle stretches mining unlocks; 5 µs buckets to ~20 ms
	// keep both ends visible without the histogram dominating the group.
	g.sstats.GrantWidthUS = stats.NewHistogram(5, 4096)
	g.sstats.MinedGainUS = stats.NewHistogram(5, 4096)
	g.sstats.RoundWidth = stats.NewHistogram(1, n+2)
	return g
}

// SetClockDriver installs (or removes) the group's clock driver. Must be
// called before the group runs — it panics once the first Run begins. On
// a multi-shard group the driver lives on the group, never on the shard
// engines — Run itself waits at round barriers; a single-shard group
// hands the driver straight to its lone engine, where pacing is
// event-granular.
func (g *ShardGroup) SetClockDriver(d ClockDriver) {
	if g.started {
		panic("sim: SetClockDriver after the shard group has run")
	}
	g.driver = d
	if len(g.shards) == 1 {
		g.shards[0].eng.SetClockDriver(d)
	}
}

// ClockDriver returns the installed driver (nil in sim mode).
func (g *ShardGroup) ClockDriver() ClockDriver { return g.driver }

// SetMining enables or disables pacing-aware lookahead mining (the
// default is on). It never changes results — only round boundaries, wall
// clock, and the SyncStats utilization telemetry — but it must be chosen
// before the group runs: grants from mixed rules would make the mined-gain
// accounting meaningless.
func (g *ShardGroup) SetMining(on bool) {
	if g.started {
		panic("sim: SetMining after the shard group has run")
	}
	g.mine = on
}

// MiningEnabled reports whether lookahead mining is on.
func (g *ShardGroup) MiningEnabled() bool { return g.mine }

// waitForRound blocks until the driver authorizes virtual time at (the
// round's earliest grant), running injected work as it arrives. It runs
// between rounds, when every shard engine is quiescent, so injected
// closures may safely touch any shard's engine — the same
// soundness argument as assembly-time scheduling. It reports whether any
// injected work ran: injected closures can schedule events below the
// round's mined bounds, so the caller must recompute grants before
// releasing the shards. A nil or empty work slice means the wait
// completed (the ClockDriver contract) — only non-empty batches keep
// waiting, so a driver handing back empty slices cannot spin the barrier.
func (g *ShardGroup) waitForRound(at Time) (injected bool) {
	for {
		_, work := g.driver.WaitUntil(at)
		if len(work) == 0 {
			return injected
		}
		injected = true
		for _, fn := range work {
			fn()
		}
	}
}

// N returns the shard count.
func (g *ShardGroup) N() int { return len(g.shards) }

// Engine returns shard i's engine.
func (g *ShardGroup) Engine(i int) *Engine { return g.shards[i].eng }

// Now returns the group clock: the horizon every shard has reached.
func (g *ShardGroup) Now() Time { return g.now }

// TotalFired sums fired events across shard engines. Cross-shard messages
// become arrival-band events on exactly one engine, so the total equals
// the legacy single-engine count.
func (g *ShardGroup) TotalFired() uint64 {
	var n uint64
	for _, s := range g.shards {
		n += s.eng.Fired
	}
	return n
}

// TotalPending sums pending events across shard engines. In-flight
// cross-shard messages are injected into destination heaps at round
// barriers, so between Run calls the total matches the single-engine
// pending count (where an in-flight packet is simply a future event).
func (g *ShardGroup) TotalPending() int {
	var n int
	for _, s := range g.shards {
		n += s.eng.Pending()
	}
	return n
}

// InFlight returns the number of cross-shard messages not yet injected
// into their destination engines. Between Run calls it is always zero —
// every emitted message has become a pending destination event — so it is
// only interesting to tests poking at the machinery.
func (g *ShardGroup) InFlight() int {
	var n int
	for _, s := range g.shards {
		n += len(s.out)
	}
	return n
}

// Stats reports synchronization work done so far.
func (g *ShardGroup) Stats() (rounds, messages int64) { return g.rounds, g.messages }

// SyncStats returns the group's grant-utilization telemetry. The pointer
// shares the group's live accumulator: read it between Run calls and do
// not mutate it. A single-shard group never rounds, so everything stays
// zero there.
func (g *ShardGroup) SyncStats() *SyncStats {
	g.sstats.Rounds = g.rounds
	g.sstats.Messages = g.messages
	return &g.sstats
}

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

// Lookahead returns the effective src→dst lookahead (negative: none).
func (g *ShardGroup) Lookahead(src, dst int) Time { return g.la[src][dst] }

// Conduit is a sender-owned cross-shard message channel. The id keys the
// arrival-band tie-break, so callers must assign ids during deterministic
// assembly (never mid-run) and reuse the same assignment at any shard
// count — topologies allocate them in join order and give the same id to
// the link's single-engine arrival path.
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
// clocks committed at the previous barrier, the run horizon, and — with
// mining on — the engines' earliest pending events. It returns the number
// of shards with work to do (clock < grant).
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
		s.pend = b
		g.bound[i] = b
	}
	if g.mine && n > 1 {
		// Relax to a fixpoint (Bellman-Ford over the channel graph; no
		// negative cycles since lookaheads are positive, so it terminates
		// in at most n sweeps). The naive per-shard rule — grant straight
		// from the sender's queue head — is transitively unsound: an
		// upstream peer can wake an empty-looking sender well before its
		// own head event.
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
	}

	for _, s := range g.shards {
		grant, sgrant := until, until
		bind := -1
		for j := 0; j < n; j++ {
			la := g.la[j][s.id]
			if la < 0 {
				continue
			}
			if h := g.shards[j].clock + la; h < sgrant {
				sgrant = h
			}
			eff := g.shards[j].clock
			if g.mine {
				eff = g.bound[j] // bound >= clock always; mined grants dominate static
			}
			if h := eff + la; h < grant {
				grant = h
				bind = j
			}
		}
		s.grant, s.sgrant, s.bind = grant, sgrant, bind
		if s.clock < s.grant {
			active++
		}
	}
	return active
}

// recordRound folds one about-to-run round into the sync telemetry.
func (g *ShardGroup) recordRound(active int) {
	st := &g.sstats
	st.ActiveShardRounds += int64(active)
	st.RoundWidth.Add(float64(active))
	for _, s := range g.shards {
		if s.clock >= s.grant {
			continue
		}
		ss := &st.Shards[s.id]
		ss.Rounds++
		width := int64(s.grant - s.clock)
		ss.GrantedNS += width
		st.GrantWidthUS.Add(float64(width) / 1e3)
		gain := int64(s.grant - s.sgrant)
		ss.MinedGainNS += gain
		st.MinedGainUS.Add(float64(gain) / 1e3)
		if s.pend <= s.grant {
			ss.ReachedNS += int64(s.grant - s.pend)
		} else {
			ss.IdleRounds++
		}
		if s.bind >= 0 {
			st.Binding[s.bind][s.id]++
		} else {
			ss.HorizonBound++
		}
	}
}

// RunFor advances every shard by d.
func (g *ShardGroup) RunFor(d Time) { g.Run(g.now + d) }

// Run advances every shard to exactly until. On return every engine's
// clock is until, every emitted message has been injected into its
// destination engine (ones due later than until are simply future
// events), and the per-shard event histories are those of the same
// workload on a single engine.
func (g *ShardGroup) Run(until Time) {
	if until < g.now {
		panic("sim: shard group run target before group clock")
	}
	g.started = true
	if len(g.shards) == 1 {
		// Single shard: a conduit cannot target its own shard (Send demands
		// a lookahead, SetLookahead refuses self-channels), so this is
		// exactly a legacy engine run. A group driver is installed on the
		// lone engine itself (SetClockDriver), so pacing there is
		// event-granular, exactly as on a bare driven engine.
		s := g.shards[0]
		s.eng.RunUntil(until)
		s.clock = until
		g.now = until
		return
	}
	if g.driver != nil {
		g.driver.Begin(g.now)
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

		active := g.computeGrants(until)
		if active == 0 {
			break
		}

		// Driver-aware barrier wait: pace the round against the external
		// clock. The round's work spans [clock, grant) across shards; it is
		// released once the clock reaches the earliest active grant, so no
		// shard runs ahead of wall time by more than its round span. If
		// injected work ran at the barrier it may have scheduled events
		// below the grants just computed (mined bounds especially), so loop
		// back: re-flush anything it sent and recompute from the new queue
		// state. Committed clocks never move, so grants only ever tighten
		// toward values that are still sound.
		if g.driver != nil {
			earliest := until
			for _, s := range g.shards {
				if s.clock < s.grant && s.grant < earliest {
					earliest = s.grant
				}
			}
			if g.waitForRound(earliest) {
				continue
			}
		}
		g.rounds++
		g.recordRound(active)

		// Run every active shard to its grant and commit its clock. Grants
		// were fixed above from the previous round's clocks, and outboxes
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
