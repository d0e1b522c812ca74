package faults

import (
	"encoding/json"
	"reflect"
	"testing"

	"softtimers/internal/metrics"
	"softtimers/internal/sim"
)

// clean reports whether s injects no faults at all.
func clean(s Spec) bool {
	return s.Drop == 0 && s.Dup == 0 && s.Reorder == 0 &&
		s.IntrJitterMax == 0 && s.IntrCoalesce == 0 &&
		s.WorkJitter == 0 && s.Starve == 0
}

// hostileSpec is a scenario exercising every fault channel at once.
func hostileSpec() Spec {
	return Spec{
		Drop:          0.05,
		Dup:           0.02,
		Reorder:       0.03,
		ReorderMax:    200 * sim.Microsecond,
		IntrJitterMax: 5 * sim.Microsecond,
		IntrCoalesce:  0.1,
		WorkJitter:    0.25,
		Starve:        0.5,
	}
}

// drive exercises every channel of a plan a fixed number of times and
// returns a digest of all observable outputs.
type digest struct {
	Drops, Dups     []bool
	Reorders        []sim.Time
	Intr, PIT, Work []sim.Time
	Starved         []bool
	Counters        map[string]int64
}

func drive(p *Plan) digest {
	var d digest
	lp := p.Link("net:a->b")
	for i := 0; i < 200; i++ {
		drop := lp.Drop()
		d.Drops = append(d.Drops, drop)
		if !drop {
			d.Dups = append(d.Dups, lp.Duplicate())
			d.Reorders = append(d.Reorders, lp.ReorderDelay())
		}
		d.Intr = append(d.Intr, p.IntrJitter())
		d.PIT = append(d.PIT, p.PITPerturb(sim.Millisecond))
		d.Work = append(d.Work, p.PerturbWork(2*sim.Microsecond))
		d.Starved = append(d.Starved, p.StarveTrigger())
	}
	r := metrics.NewRegistry()
	p.RegisterMetrics(r)
	d.Counters = r.Snapshot().Counters
	return d
}

func TestSameSeedSamePlan(t *testing.T) {
	a := drive(New(42, hostileSpec()))
	b := drive(New(42, hostileSpec()))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different fault sequences")
	}
	c := drive(New(43, hostileSpec()))
	if reflect.DeepEqual(a.Counters, c.Counters) {
		t.Fatalf("different seeds produced identical counters (suspicious)")
	}
}

// TestChannelIndependence verifies the split-seed contract: draws on one
// channel never shift another channel's sequence. A plan that interleaves
// link draws between interrupt draws must still produce the same interrupt
// jitter sequence as one that does not.
func TestChannelIndependence(t *testing.T) {
	spec := hostileSpec()

	pure := New(7, spec)
	var want []sim.Time
	for i := 0; i < 100; i++ {
		want = append(want, pure.IntrJitter())
	}

	mixed := New(7, spec)
	lp := mixed.Link("net:a->b")
	var got []sim.Time
	for i := 0; i < 100; i++ {
		lp.Drop()
		mixed.PerturbWork(sim.Microsecond)
		mixed.StarveTrigger()
		got = append(got, mixed.IntrJitter())
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("interleaved draws on other channels perturbed the intr stream")
	}

	// Two links are independent of each other too.
	p1 := New(7, spec)
	a1 := p1.Link("a")
	var seqA []bool
	for i := 0; i < 100; i++ {
		seqA = append(seqA, a1.Drop())
	}
	p2 := New(7, spec)
	a2, b2 := p2.Link("a"), p2.Link("b")
	var seqA2 []bool
	for i := 0; i < 100; i++ {
		b2.Drop()
		seqA2 = append(seqA2, a2.Drop())
	}
	if !reflect.DeepEqual(seqA, seqA2) {
		t.Fatalf("draws on link b perturbed link a's stream")
	}
}

func TestNilPlanIsInert(t *testing.T) {
	var p *Plan
	if p.StarveTrigger() {
		t.Errorf("nil plan starved a trigger")
	}
	if j := p.IntrJitter(); j != 0 {
		t.Errorf("nil plan intr jitter = %v, want 0", j)
	}
	if j := p.PITPerturb(sim.Millisecond); j != 0 {
		t.Errorf("nil plan PIT perturb = %v, want 0", j)
	}
	if d := p.PerturbWork(sim.Microsecond); d != sim.Microsecond {
		t.Errorf("nil plan perturbed work: %v", d)
	}
	lp := p.Link("x")
	if lp != nil {
		t.Fatalf("nil plan returned non-nil link plan")
	}
	if lp.Drop() || lp.Duplicate() || lp.ReorderDelay() != 0 {
		t.Errorf("nil link plan injected a fault")
	}
	p.RegisterMetrics(metrics.NewRegistry()) // must not panic
	p.RegisterMetrics(nil)
}

// TestCleanSpecDrawsNothing: a plan whose spec disables a channel must not
// advance that channel's stream, so "channel off" and "channel never
// consulted" are indistinguishable — adding an unused consultation point
// can never change replay of existing scenarios.
func TestCleanSpecDrawsNothing(t *testing.T) {
	p := New(5, Spec{})
	lp := p.Link("l")
	for i := 0; i < 10; i++ {
		if lp.Drop() || lp.Duplicate() || lp.ReorderDelay() != 0 {
			t.Fatalf("clean spec injected a link fault")
		}
		if p.IntrJitter() != 0 || p.PITPerturb(sim.Millisecond) != 0 ||
			p.StarveTrigger() {
			t.Fatalf("clean spec injected a kernel fault")
		}
		if d := p.PerturbWork(sim.Microsecond); d != sim.Microsecond {
			t.Fatalf("clean spec perturbed work")
		}
	}
	if !clean(p.spec) {
		t.Errorf("zero spec not clean")
	}
	if clean(hostileSpec()) {
		t.Errorf("hostile spec reported clean")
	}
}

func TestCountersMatchActivity(t *testing.T) {
	p := New(11, Spec{Drop: 1.0})
	lp := p.Link("l")
	for i := 0; i < 50; i++ {
		if !lp.Drop() {
			t.Fatalf("Drop=1.0 did not drop")
		}
	}
	if lp.Dropped != 50 {
		t.Fatalf("Dropped = %d, want 50", lp.Dropped)
	}
	r := metrics.NewRegistry()
	p.RegisterMetrics(r)
	s := r.Snapshot()
	if s.Counters["faults.pkts_dropped"] != 50 {
		t.Fatalf("faults.pkts_dropped = %d, want 50", s.Counters["faults.pkts_dropped"])
	}

	st := New(11, Spec{Starve: 1.0})
	for i := 0; i < 30; i++ {
		if !st.StarveTrigger() {
			t.Fatalf("Starve=1.0 did not starve")
		}
	}
	if st.TriggersStarved != 30 {
		t.Fatalf("TriggersStarved = %d, want 30", st.TriggersStarved)
	}
}

func TestPerturbWorkBounds(t *testing.T) {
	p := New(3, Spec{WorkJitter: 0.25})
	const d = 1000 * sim.Nanosecond
	for i := 0; i < 1000; i++ {
		nd := p.PerturbWork(d)
		if nd < 750 || nd > 1250 {
			t.Fatalf("perturbed work %v outside [750, 1250] ns", nd)
		}
	}
	if p.CPUPerturbNS == 0 {
		t.Errorf("CPUPerturbNS not accumulated")
	}
}

func TestReorderDelayBounded(t *testing.T) {
	p := New(9, Spec{Reorder: 1.0, ReorderMax: 100 * sim.Microsecond})
	lp := p.Link("l")
	for i := 0; i < 500; i++ {
		d := lp.ReorderDelay()
		if d < 0 || d >= 100*sim.Microsecond {
			t.Fatalf("reorder delay %v outside [0, 100µs)", d)
		}
	}
	// Default bound applies when ReorderMax is unset.
	pd := New(9, Spec{Reorder: 1.0})
	lpd := pd.Link("l")
	for i := 0; i < 500; i++ {
		if d := lpd.ReorderDelay(); d >= 500*sim.Microsecond {
			t.Fatalf("default reorder delay %v outside [0, 500µs)", d)
		}
	}
}

func TestScenarios(t *testing.T) {
	names := ScenarioNames()
	if len(names) == 0 {
		t.Fatalf("no scenarios registered")
	}
	seen := make(map[string]bool)
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate scenario %q", n)
		}
		seen[n] = true
		spec, ok := LookupScenario(n)
		if !ok {
			t.Fatalf("ScenarioNames lists %q but LookupScenario misses it", n)
		}
		if DescribeScenario(n) == "" {
			t.Errorf("scenario %q has no description", n)
		}
		if n == "clean" && !clean(spec) {
			t.Errorf("clean scenario is not clean")
		}
		if n != "clean" && clean(spec) {
			t.Errorf("scenario %q injects no faults", n)
		}
	}
	if !seen["clean"] || !seen["hostile"] || !seen["starved"] {
		t.Fatalf("core scenarios missing from %v", names)
	}
	if _, ok := LookupScenario("no-such-scenario"); ok {
		t.Fatalf("LookupScenario invented a scenario")
	}
}

// TestMetricsSnapshotStable: the plan's metric registration must produce a
// deterministic snapshot (JSON bytes) for a deterministic driving sequence.
func TestMetricsSnapshotStable(t *testing.T) {
	enc := func() []byte {
		p := New(21, hostileSpec())
		drive(p)
		r := metrics.NewRegistry()
		p.RegisterMetrics(r)
		b, err := json.Marshal(r.Snapshot())
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return b
	}
	a, b := enc(), enc()
	if string(a) != string(b) {
		t.Fatalf("snapshot bytes differ between identical runs")
	}
}
