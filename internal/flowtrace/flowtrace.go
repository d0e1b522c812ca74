// Package flowtrace records sampled per-packet spans: for each traced
// packet, the virtual timestamp of every hop it takes through the
// simulated network — NIC tx, link serialization, cut-through switch
// forwards (leaf-spine trunks included), NIC rx rings, protocol
// handlers, TCP segment/ack processing.
//
// The design contract is zero cost when tracing is off: a span is a
// *Span pointer carried on netstack.Packet, every hop site is a
// nil-receiver method call, and no allocation or RNG draw happens for
// untraced packets. Sampling is decided per flow (not per packet) from a
// dedicated per-host RNG stream derived from (seed, host name), so the
// decision sequence — and therefore the traced-span set — is invariant
// under sharding, placement and worker count, and enabling tracing never
// perturbs workload RNG draws.
//
// Span records are fixed-capacity hop arrays carved from chunks on
// per-shard Recorders, which keep every finished span for export.
// A span migrates across shards with its packet: the ShardGroup round
// barrier that flushes the packet's conduit is the happens-before edge
// for the span too, so cross-shard hops stitch without locks. The span
// finishes when the packet's refcount drops to zero, on whichever shard
// that happens, into the recorder of the arena that carved the packet
// (packets go home; see netstack.Packet.Release). Export merges all
// recorders and sorts by span ID (origin host address | per-host
// origination counter), which is mode-invariant, so exported traces are
// byte-identical at any shard or worker count.
package flowtrace

import (
	"sort"
	"strconv"

	"softtimers/internal/sim"
)

// HopKind classifies one step of a packet's path.
type HopKind uint8

const (
	// HopNICTx: the NIC handed the packet to its outbound link.
	HopNICTx HopKind = iota
	// HopLinkTx: serialization onto a link began.
	HopLinkTx
	// HopLinkRx: the packet arrived at the link's far end.
	HopLinkRx
	// HopSwitch: a cut-through switch forwarded the packet (same instant
	// as the LinkRx that carried it in).
	HopSwitch
	// HopNICRing: the packet landed in a NIC rx ring.
	HopNICRing
	// HopNICRx: a protocol handler picked the packet up (softirq or poll).
	HopNICRx

	numHopKinds
)

var hopKindNames = [numHopKinds]string{
	"nic_tx", "link_tx", "link_rx", "switch_fwd", "nic_ring", "nic_rx",
}

func (k HopKind) String() string {
	if int(k) < len(hopKindNames) {
		return hopKindNames[k]
	}
	return "hop" + strconv.Itoa(int(k))
}

// Hop is one recorded step: what happened, where, and at what virtual time.
type Hop struct {
	Kind HopKind
	Loc  int32 // Locations id; 0 = unknown
	At   sim.Time
}

// MaxHops bounds a span's hop array. A flat switched path records 8 hops
// end to end and a leaf-spine path 12; overflow past the cap is counted,
// not stored.
const MaxHops = 16

// Span is the pooled per-packet trace record. Fields are unexported and
// written only by the owning packet's event path (single goroutine at a
// time; migration between shards is ordered by the conduit flush).
type Span struct {
	id      uint64
	flow    int
	kind    int
	seq     int64
	src     int32
	dst     int32
	n       int32
	dropped int32
	hops    [MaxHops]Hop
}

// Hop appends a hop. Nil-receiver safe: untraced packets pay exactly this
// nil test at every hop site.
func (s *Span) Hop(k HopKind, loc int32, at sim.Time) {
	if s == nil {
		return
	}
	if int(s.n) == len(s.hops) {
		s.dropped++
		return
	}
	s.hops[s.n] = Hop{Kind: k, Loc: loc, At: at}
	s.n++
}

// HopHere appends a hop at the same instant as the span's latest one —
// for sites that run synchronously inside another hop's event and have no
// clock of their own (a cut-through switch forward executes inside the
// link arrival that delivered the packet).
func (s *Span) HopHere(k HopKind, loc int32) {
	if s == nil || s.n == 0 {
		return
	}
	s.Hop(k, loc, s.hops[s.n-1].At)
}

// Hops returns the recorded hops (aliasing the span's array; read-only).
func (s *Span) Hops() []Hop {
	if s == nil {
		return nil
	}
	return s.hops[:s.n]
}

// spanChunk is the pool carve size, mirroring netstack.Arena's chunking.
const spanChunk = 64

// Recorder owns span storage for one shard: chunks that live spans are
// carved from, and a done list of finished ones. All access happens on the
// goroutine that runs every shard inline: a migrant span finishes into
// its packet's home recorder from whichever shard frees the packet.
type Recorder struct {
	chunk    []Span // the current chunk's uncarved tail
	done     []*Span
	started  int64
	finished int64
	hops     int64
	droppedH int64
}

// NewRecorder returns an empty per-shard recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// alloc carves a span and stamps its identity.
func (r *Recorder) alloc(id uint64) *Span {
	if len(r.chunk) == 0 {
		r.chunk = make([]Span, spanChunk)
	}
	s := &r.chunk[0]
	r.chunk = r.chunk[1:]
	s.id = id
	r.started++
	return s
}

// Finish retires a finished span with its packet's identity fields; the
// arena that carved the packet calls this on its own recorder when the
// packet's refcount drops to zero, on whichever shard that happens. Each
// recorder keeps its own counters and done list, and Export merges.
func (r *Recorder) Finish(s *Span, flow, kind int, seq int64, src, dst int32) {
	if r == nil || s == nil {
		return
	}
	s.flow, s.kind, s.seq, s.src, s.dst = flow, kind, seq, src, dst
	r.done = append(r.done, s)
	r.finished++
	r.hops += int64(s.n)
	r.droppedH += int64(s.dropped)
}

// Started returns the spans allocated by this recorder.
func (r *Recorder) Started() int64 { return r.started }

// Finished returns the spans retired on this recorder.
func (r *Recorder) Finished() int64 { return r.finished }

// HopCount returns total hops across this recorder's finished spans.
func (r *Recorder) HopCount() int64 { return r.hops }

// DroppedHops returns hops lost to MaxHops overflow on finished spans.
func (r *Recorder) DroppedHops() int64 { return r.droppedH }

// Sampler makes one host's flow-sampling decisions and allocates span
// identities. The RNG is a private stream (never the host's workload
// stream), so enabling tracing does not perturb any workload draw; the
// base is derived from the host's address, so IDs are globally unique and
// origination order is host-local — both mode-invariant.
type Sampler struct {
	rec      *Recorder
	rng      *sim.RNG
	rate     uint64
	maxFlows int
	sampled  int
	base     uint64
	nextID   uint64
}

// NewSampler builds a sampler tracing 1-in-rate flows (rate 0 disables,
// rate 1 traces all) on rec, capped at maxFlows sampled flows (0 =
// unlimited) to bound span memory on long runs.
func NewSampler(rec *Recorder, rng *sim.RNG, rate uint64, base uint64, maxFlows int) *Sampler {
	return &Sampler{rec: rec, rng: rng, rate: rate, base: base, maxFlows: maxFlows}
}

// SampleFlow decides whether the caller's next flow is traced: at most
// one draw from the private stream per call, in host-local call order.
// Once the flow cap is reached no further draws happen — the cap trips at
// the same call in every execution mode, so determinism holds.
func (s *Sampler) SampleFlow() bool {
	if s == nil || s.rate == 0 {
		return false
	}
	if s.maxFlows > 0 && s.sampled >= s.maxFlows {
		return false
	}
	if s.rate > 1 && s.rng.Uint64()%s.rate != 0 {
		return false
	}
	s.sampled++
	return true
}

// StartSpan allocates a span for one packet of a traced flow. The caller
// attaches it to the packet; identity fields are captured at finish time
// from the packet itself.
func (s *Sampler) StartSpan() *Span {
	if s == nil {
		return nil
	}
	s.nextID++
	return s.rec.alloc(s.base | s.nextID)
}

// SampledFlows returns how many flows this sampler chose to trace.
func (s *Sampler) SampledFlows() int {
	if s == nil {
		return 0
	}
	return s.sampled
}

// Locations is the registry of hop sites (links, NICs, switches), built
// in deterministic assembly order before the simulation starts and
// read-only after. Id 0 is the unknown location.
type Locations struct {
	names []string
	hosts []int32
}

// NewLocations returns a registry holding only the unknown location.
func NewLocations() *Locations {
	return &Locations{names: []string{"?"}, hosts: []int32{0}}
}

// Register adds a hop site and returns its id. hostAddr is the owning
// host's packet address (0 for switch fabric sites); the Chrome flow
// exporter uses it to anchor arrows to host process rows.
func (l *Locations) Register(name string, hostAddr int32) int32 {
	l.names = append(l.names, name)
	l.hosts = append(l.hosts, hostAddr)
	return int32(len(l.names) - 1)
}

// Name resolves a location id (out of range → "?").
func (l *Locations) Name(id int32) string {
	if l == nil || id < 0 || int(id) >= len(l.names) {
		return "?"
	}
	return l.names[id]
}

// HostAddr resolves a location's owning host address (0 = none).
func (l *Locations) HostAddr(id int32) int32 {
	if l == nil || id < 0 || int(id) >= len(l.hosts) {
		return 0
	}
	return l.hosts[id]
}

// HopData is one exported hop.
type HopData struct {
	Kind string `json:"kind"`
	Loc  string `json:"loc"`
	AtNS int64  `json:"at_ns"`
}

// SpanData is one exported span, in deterministic JSON form.
type SpanData struct {
	ID            uint64    `json:"id"`
	Flow          int       `json:"flow"`
	Kind          string    `json:"kind"`
	Seq           int64     `json:"seq"`
	Src           int32     `json:"src"`
	Dst           int32     `json:"dst"`
	Hops          []HopData `json:"hops"`
	TruncatedHops int32     `json:"truncated_hops,omitempty"`

	// The first and last hops' location ids survive for programmatic
	// consumers (the Chrome flow export).
	FirstLoc int32 `json:"-"`
	LastLoc  int32 `json:"-"`
}

// Export merges finished spans from every recorder, resolves names, and
// sorts by span ID — a mode-invariant order, so the result (and its JSON)
// is byte-identical at any shard or worker count. kindName maps the
// packet-kind int to a label (nil → decimal).
func Export(loc *Locations, kindName func(int) string, recs ...*Recorder) []SpanData {
	var out []SpanData
	for _, r := range recs {
		if r == nil {
			continue
		}
		for _, s := range r.done {
			d := SpanData{
				ID: s.id, Flow: s.flow, Seq: s.seq,
				Src: s.src, Dst: s.dst,
				TruncatedHops: s.dropped,
			}
			if kindName != nil {
				d.Kind = kindName(s.kind)
			} else {
				d.Kind = strconv.Itoa(s.kind)
			}
			d.Hops = make([]HopData, s.n)
			for i, h := range s.Hops() {
				d.Hops[i] = HopData{Kind: h.Kind.String(), Loc: loc.Name(h.Loc), AtNS: int64(h.At)}
			}
			if s.n > 0 {
				d.FirstLoc = s.hops[0].Loc
				d.LastLoc = s.hops[s.n-1].Loc
			}
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
