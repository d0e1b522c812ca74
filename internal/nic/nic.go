// Package nic models a network interface on the simulated server: receive
// and transmit paths with per-packet costs, and the two completion-
// notification disciplines the paper compares in Section 5.9 —
// conventional per-packet interrupts versus soft-timer network polling
// with an adaptive poll interval targeting an aggregation quota.
//
// Interrupt mode: each arriving packet raises a hardware interrupt (ip-intr
// trigger at handler end) that enqueues it on the protocol input queue and
// posts a software interrupt; the softirq drains the whole queue in one
// pass (so protocol processing batches under load, which is why the
// paper's Table 2 shows far more ip-intr than tcpip-other trigger states).
// Transmit completions interrupt only with Config.TxComplInterrupts, which
// no rig sets: Interrupt-mode runs charge no completion work.
//
// Polling mode: no interrupts. A self-rescheduling soft-timer event polls
// the interface, processing every waiting receive and transmit completion
// in one handler invocation; the poll interval adapts to find
// AggregationQuota packets per poll on average. Config.IdleInterrupts
// would re-enable interrupts while the CPU idles, so packet processing is
// never delayed unnecessarily (Section 5.9's first practicality argument);
// no rig sets it, so SoftPoll runs poll for every packet.
package nic

import (
	"softtimers/internal/core"
	"softtimers/internal/faults"
	"softtimers/internal/flowtrace"
	"softtimers/internal/kernel"
	"softtimers/internal/metrics"
	"softtimers/internal/netstack"
	"softtimers/internal/sim"
	"softtimers/internal/stats"
)

// Mode selects the completion-notification discipline.
type Mode int

const (
	// Interrupt is conventional per-packet interrupt-driven processing.
	Interrupt Mode = iota
	// SoftPoll is soft-timer based network polling.
	SoftPoll
)

// The network path's per-operation CPU costs, in baseline-CPU work units
// that the kernel's profile scales, calibrated for the paper's P-II 300
// testbed.
const (
	// rxIntrWork is the interrupt handler's work per receive interrupt
	// (ring drain, buffer swap).
	rxIntrWork = 2 * sim.Microsecond
	// rxProtoWork is the protocol (IP+TCP input) work per received
	// packet, spent in the softirq or poll handler.
	rxProtoWork = 7 * sim.Microsecond
	// rxBatchDiscount scales rxProtoWork for the second and subsequent
	// packets processed in one batch — the locality benefit of
	// aggregation (0.55 means 55% cheaper).
	rxBatchDiscount float64 = 0.55
	// TxWork is the IP output work per transmitted packet.
	TxWork = 8 * sim.Microsecond
	// txComplWork is the transmit-completion work per packet (buffer
	// reclaim), done in an interrupt or a poll.
	txComplWork = sim.Microsecond * 22 / 10
	// pollWork is the fixed cost of one poll (status register reads).
	pollWork = sim.Microsecond * 3 / 2
	// softirqTail is the bookkeeping work ending a protocol softirq
	// batch.
	softirqTail = 1 * sim.Microsecond
	// softirqTailTriggerEvery makes every third softirq batch end in a
	// tcpip-other trigger state (the paper added trigger states to
	// *some* network-subsystem loops, e.g. TCP timer processing — not
	// to every protocol-input pass, which is why Table 2's tcpip-other
	// share is a third of ip-intr's).
	softirqTailTriggerEvery = 3
	// minPoll is the floor of the adaptive poll interval.
	minPoll = 10 * sim.Microsecond
)

// Config configures a NIC.
type Config struct {
	Name string
	Mode Mode
	// AggregationQuota is the target packets found per poll (SoftPoll).
	// Default 1.
	AggregationQuota float64
	// MaxPoll caps the adaptive poll interval. Default 1 ms.
	MaxPoll sim.Time
	// TxComplInterrupts enables transmit-completion interrupts in
	// Interrupt mode (conventional drivers), each charging txComplWork
	// per completed packet. The zero value is false and no rig sets it,
	// so an Interrupt-mode run takes no transmit-completion interrupt and
	// charges no completion work: only SoftPoll's polls drain completions.
	TxComplInterrupts bool
	// IdleInterrupts re-enables receive interrupts while the CPU is idle
	// in SoftPoll mode (Section 5.9's first practicality argument). The
	// zero value is false and no rig sets it, so a SoftPoll run picks up
	// every packet in a poll, idle CPU or not.
	IdleInterrupts bool
	// Faults, when set, is the receive ring's fault channel: arriving
	// packets may be dropped before the driver sees them (ring overrun,
	// bad checksum). Nil injects nothing.
	Faults *faults.LinkPlan
}

// NIC is one simulated network interface attached to the server kernel.
type NIC struct {
	k    *kernel.Kernel
	f    *core.Facility // required for SoftPoll
	cfg  Config
	out  netstack.Endpoint
	wire *netstack.Link // optional: models the attached wire's tx serialization

	// RxHandler receives each inbound packet, in kernel protocol context.
	// The packet is a borrow: it is released back to its arena when the
	// handler returns, and the arena may hand it out again. A handler
	// must copy the fields it needs before returning; one that needs the
	// packet itself afterwards (e.g. a router forwarding it out another
	// interface) takes a copy with netstack.Arena.Clone.
	RxHandler func(p *netstack.Packet)

	// arena, when set, is the host's packet pool, which the layers above
	// acquire this interface's transmissions from.
	arena *netstack.Arena

	// TraceLoc is this interface's flowtrace location id (0 =
	// unregistered); topologies assign ids in assembly order when flow
	// tracing is on.
	TraceLoc int32

	rxring  []*netstack.Packet // arrived, not yet taken by intr/poll
	protoq  []*netstack.Packet // taken by interrupts, awaiting softirq
	txdone  int                // transmit completions awaiting reclaim
	intrUp  bool               // rx interrupt raised, handler not yet run
	soft    bool               // protocol softirq posted
	pollEv  *core.Event
	pollIvl sim.Time
	pollMax sim.Time // pollIvl's high-water mark
	foundAv float64  // EWMA of packets found per poll

	// Pre-bound hot-path closures and pooled chains (see Chain in package
	// kernel): scheduling receive drains, protocol batches and transmit
	// softirqs allocates nothing in steady state.
	rxDrainFn func()
	pollFn    func(now sim.Time) sim.Time
	proto     protoChain
	txFree    *txChain

	// Counters.
	RxPackets, TxPackets int64
	RxInterrupts         int64
	TxComplInterrupts    int64
	Polls                int64
	PolledPackets        int64
	// RxDropped counts packets the fault plan discarded at the ring.
	RxDropped int64
	batches   int64
	// tailEvery is softirqTailTriggerEvery; tests set 1 to count one
	// tcpip-other trigger state per batch.
	tailEvery int64
	// batchSize holds the packets per protocol batch (softirq or poll),
	// 1-packet buckets up to 256.
	batchSize *stats.Histogram
}

// New creates a NIC on kernel k. The facility f is required in SoftPoll
// mode (it drives the poll events); out is where transmitted packets go
// (the wire toward the client).
func New(k *kernel.Kernel, f *core.Facility, cfg Config, out netstack.Endpoint) *NIC {
	if cfg.AggregationQuota <= 0 {
		cfg.AggregationQuota = 1
	}
	if cfg.MaxPoll == 0 {
		cfg.MaxPoll = sim.Millisecond
	}
	if cfg.Mode == SoftPoll && f == nil {
		panic("nic: SoftPoll mode requires a soft-timer facility")
	}
	n := &NIC{
		k: k, f: f, cfg: cfg, out: out,
		pollIvl: minPoll * 4, pollMax: minPoll * 4,
		tailEvery: softirqTailTriggerEvery,
		batchSize: stats.NewHistogram(1, 256),
	}
	n.proto.n = n
	n.rxDrainFn = n.rxDrain
	n.pollFn = n.poll
	k.Metrics().Register(n)
	return n
}

// SetArena attaches the host's packet arena (see Arena).
func (n *NIC) SetArena(a *netstack.Arena) { n.arena = a }

// Arena returns the attached packet arena (nil when unwired), for layers
// above that acquire the packets this interface transmits.
func (n *NIC) Arena() *netstack.Arena { return n.arena }

// scope is the interface's metrics namespace, nic.<name>. An unnamed NIC
// takes the bare "nic." namespace, so a kernel with two of them panics at
// its first snapshot: name the interfaces in multi-NIC rigs (the testbed
// does).
func (n *NIC) scope() string {
	if n.cfg.Name == "" {
		return "nic."
	}
	return "nic." + n.cfg.Name + "."
}

// Report implements metrics.Reporter: the interface's packet, interrupt
// and poll counters, its batch sizes and its adaptive poll interval in ns.
func (n *NIC) Report(w metrics.Writer) {
	w = w.In(n.scope())
	w.Counter("rx_packets", n.RxPackets)
	w.Counter("tx_packets", n.TxPackets)
	w.Counter("rx_interrupts", n.RxInterrupts)
	w.Counter("txcompl_interrupts", n.TxComplInterrupts)
	w.Counter("polls", n.Polls)
	w.Counter("polled_packets", n.PolledPackets)
	w.Counter("rx_dropped", n.RxDropped)
	w.Histogram("batch_size", n.batchSize)
	w.GaugeMax("poll_interval_ns", int64(n.pollIvl), int64(n.pollMax))
}

// Start begins polling (SoftPoll mode). Call after kernel.Start.
func (n *NIC) Start() {
	if n.cfg.Mode == SoftPoll {
		n.schedulePoll()
	}
}

// Deliver implements netstack.Endpoint: a packet arrives from the wire.
func (n *NIC) Deliver(p *netstack.Packet) {
	if n.cfg.Faults.Drop() {
		n.RxDropped++
		p.Release()
		return
	}
	n.RxPackets++
	p.Trace.Hop(flowtrace.HopNICRing, n.TraceLoc, n.k.Now())
	n.rxring = append(n.rxring, p)
	switch n.cfg.Mode {
	case Interrupt:
		n.raiseRxInterrupt()
	case SoftPoll:
		// Poll events pick the ring up; but if the CPU is idle,
		// interrupts are enabled so delivery is immediate.
		if n.cfg.IdleInterrupts && n.k.Idle() {
			n.raiseRxInterrupt()
		}
	}
}

// raiseRxInterrupt raises one receive interrupt unless one is already
// pending (packets arriving back-to-back share a ring drain, which is how
// real drivers batch under load).
func (n *NIC) raiseRxInterrupt() {
	if n.intrUp {
		return
	}
	n.intrUp = true
	n.RxInterrupts++
	n.k.RaiseInterrupt(kernel.SrcIPIntr, rxIntrWork, n.rxDrainFn)
}

// rxDrain is the receive interrupt's handler body (bound once): move the
// ring's packets to the protocol queue and post the protocol softirq.
func (n *NIC) rxDrain() {
	n.intrUp = false
	n.protoq = append(n.protoq, n.rxring...)
	for i := range n.rxring {
		n.rxring[i] = nil
	}
	n.rxring = n.rxring[:0]
	n.postProtoSoftirq()
}

// postProtoSoftirq posts the protocol-input software interrupt draining
// protoq, one chain step per packet plus a tail step whose completion is a
// tcpip-other trigger state. The batch is taken when the softirq runs
// (protoChain.Begin), so packets enqueued by interrupts in the meantime
// join the same batch — protocol processing aggregates under load while
// interrupts stay per-packet, matching Table 2's ip-intr ≫ tcpip-other
// ratio.
func (n *NIC) postProtoSoftirq() {
	if n.soft || len(n.protoq) == 0 {
		return
	}
	n.soft = true
	n.k.PostSoftIRQ(&n.proto, 0)
}

// protoChain is the protocol-input batch as a kernel.Chain: steps 0..len-1
// process one received packet each (with the batch-locality discount past
// the first), and the final step is the softirq tail. One instance is
// embedded per NIC — the n.soft guard ensures a single outstanding post,
// and batches double-buffer between the chain and the protocol queue so
// steady state reuses two backing arrays forever.
type protoChain struct {
	n       *NIC
	batch   []*netstack.Packet
	tailSrc kernel.Source
}

func (c *protoChain) Begin() int {
	n := c.n
	c.batch, n.protoq = n.protoq, c.batch[:0]
	n.soft = false
	n.batchSize.Add(float64(len(c.batch)))
	c.tailSrc = kernel.SrcNone
	n.batches++
	if n.batches%n.tailEvery == 0 {
		c.tailSrc = kernel.SrcTCPIPOther
	}
	return len(c.batch) + 1
}

func (c *protoChain) Step(i int) (sim.Time, kernel.Source) {
	if i >= len(c.batch) {
		return softirqTail, c.tailSrc
	}
	w := rxProtoWork
	if i > 0 {
		w = sim.Time(float64(w) * (1 - rxBatchDiscount))
	}
	return w, kernel.SrcNone
}

func (c *protoChain) Run(i int) {
	if i >= len(c.batch) {
		return // tail step: bookkeeping only
	}
	n := c.n
	p := c.batch[i]
	c.batch[i] = nil
	p.Trace.Hop(flowtrace.HopNICRx, n.TraceLoc, n.k.Now())
	if n.RxHandler != nil {
		n.RxHandler(p)
	}
	p.Release()
}

func (c *protoChain) End() { c.batch = c.batch[:0] }

// txChain is one posted transmit softirq as a kernel.Chain: one ip-output
// trigger state per packet. Chains pool on the NIC free list — each post
// gets its own instance (several can be pending at once), so softirq
// boundaries and entry costs stay exactly those of the slice-based form.
type txChain struct {
	n    *NIC
	pkts []*netstack.Packet
	next *txChain
}

func (n *NIC) getTxChain() *txChain {
	c := n.txFree
	if c == nil {
		return &txChain{n: n}
	}
	n.txFree = c.next
	c.next = nil
	return c
}

func (c *txChain) Begin() int { return len(c.pkts) }

func (c *txChain) Step(int) (sim.Time, kernel.Source) {
	return TxWork, kernel.SrcIPOutput
}

func (c *txChain) Run(i int) {
	p := c.pkts[i]
	c.pkts[i] = nil
	c.n.transmit(p)
}

func (c *txChain) End() {
	c.pkts = c.pkts[:0]
	c.next = c.n.txFree
	c.n.txFree = c
}

// TxChainOf takes a pooled transmit chain loaded with pkts, for use with
// Proc.Chain (syscall-context transmission). The chain recycles itself
// when it completes.
func (n *NIC) TxChainOf(pkts ...*netstack.Packet) kernel.Chain {
	c := n.getTxChain()
	c.pkts = append(c.pkts, pkts...)
	return c
}

// TxFromKernel transmits pkts from interrupt/protocol context by posting a
// transmit softirq (e.g. ACKs generated during receive processing).
func (n *NIC) TxFromKernel(pkts ...*netstack.Packet) {
	if len(pkts) == 0 {
		return
	}
	c := n.getTxChain()
	c.pkts = append(c.pkts, pkts...)
	n.k.PostSoftIRQ(c, len(c.pkts))
}

// TransmitNow sends one packet immediately, charging no kernel chain —
// used inside soft-timer handlers (rate-based clocking), where the CPU
// cost is charged through the handler's returned duration and the trigger
// state is the one that invoked the handler. Returns the CPU cost.
func (n *NIC) TransmitNow(p *netstack.Packet) sim.Time {
	n.transmit(p)
	return TxWork
}

// TransmitRaw sends one packet without reporting a cost — for callers that
// already charged the transmission through a chain step's Work.
func (n *NIC) TransmitRaw(p *netstack.Packet) { n.transmit(p) }

// Cfg returns the NIC's effective configuration.
func (n *NIC) Cfg() Config { return n.cfg }

// QueueDepth returns the packets sitting in the rx ring plus the
// protocol input queue — the instantaneous backlog, for time-series
// sampling.
func (n *NIC) QueueDepth() int { return len(n.rxring) + len(n.protoq) }

// transmit puts a packet on the wire and schedules its completion.
func (n *NIC) transmit(p *netstack.Packet) {
	n.TxPackets++
	p.SentAt = n.k.Now()
	p.Trace.Hop(flowtrace.HopNICTx, n.TraceLoc, p.SentAt)
	n.out.Deliver(p)
	n.txdone++
	if n.cfg.Mode == Interrupt && n.cfg.TxComplInterrupts {
		// Completion signaled once the wire accepts it; modeled as an
		// immediate-completion interrupt (wire serialization is in the
		// link model).
		cnt := n.txdone
		n.txdone = 0
		n.TxComplInterrupts++
		n.k.RaiseInterrupt(kernel.SrcIPIntr, txComplWork*sim.Time(cnt), nil)
	}
}

// schedulePoll arms the next soft-timer poll event. The first poll
// schedules the event; every later one re-arms the same handle from
// inside its own handler, so steady-state polling allocates nothing.
func (n *NIC) schedulePoll() {
	if n.pollEv != nil {
		n.pollEv.RearmAfter(n.pollIvl)
		return
	}
	n.pollEv = n.f.ScheduleAfter(n.pollIvl, n.pollFn)
}

// poll is the soft-timer polling handler: drain receive ring and transmit
// completions, process them inline, adapt the interval, re-arm. The two
// queues are walked in place (protocol queue first, then the ring — the
// order the combined batch always had) and reset, so polling reuses their
// backing arrays.
func (n *NIC) poll(now sim.Time) sim.Time {
	n.Polls++
	cost := pollWork
	found := len(n.rxring) + len(n.protoq)
	i := 0
	for _, q := range [2][]*netstack.Packet{n.protoq, n.rxring} {
		for j, p := range q {
			q[j] = nil
			w := rxProtoWork
			if i > 0 {
				w = sim.Time(float64(w) * (1 - rxBatchDiscount))
			}
			i++
			cost += w
			p.Trace.Hop(flowtrace.HopNICRx, n.TraceLoc, n.k.Now())
			if n.RxHandler != nil {
				n.RxHandler(p)
			}
			p.Release()
		}
	}
	n.protoq = n.protoq[:0]
	n.rxring = n.rxring[:0]
	n.PolledPackets += int64(found)
	n.batchSize.Add(float64(found))
	if n.txdone > 0 {
		cost += txComplWork * sim.Time(n.txdone)
		n.txdone = 0
	}
	n.adapt(float64(found))
	n.schedulePoll()
	return cost
}

// adapt steers the poll interval so the EWMA of packets found per poll
// approaches the aggregation quota.
func (n *NIC) adapt(found float64) {
	const alpha = 0.1
	n.foundAv = (1-alpha)*n.foundAv + alpha*found
	switch {
	case n.foundAv > n.cfg.AggregationQuota*1.1:
		n.pollIvl = n.pollIvl * 7 / 8
	case n.foundAv < n.cfg.AggregationQuota*0.9:
		n.pollIvl = n.pollIvl * 9 / 8
	}
	if n.pollIvl < minPoll {
		n.pollIvl = minPoll
	}
	if n.pollIvl > n.cfg.MaxPoll {
		n.pollIvl = n.cfg.MaxPoll
	}
	if n.pollIvl > n.pollMax {
		n.pollMax = n.pollIvl
	}
}
