package cpu

import (
	"testing"

	"softtimers/internal/sim"
)

func TestPentiumII300IntrTotalMatchesPaper(t *testing.T) {
	p := PentiumII300()
	// Section 5.1: "the average combined overhead per interrupt is about
	// 4.45 µs" on the 300 MHz Pentium II.
	if got := p.IntrTotal(); got != sim.Micros(4.45) {
		t.Fatalf("IntrTotal = %v, want 4.45us", got)
	}
	if p.WorkScale != 1.0 {
		t.Fatalf("baseline WorkScale = %v, want 1.0", p.WorkScale)
	}
}

func TestPentiumIII500NearConstantInterruptCost(t *testing.T) {
	pii := PentiumII300()
	xeon := PentiumIII500()
	// Interrupt overhead must NOT scale with CPU speed (4.36 vs 4.45 µs),
	// while work must run ~1.67x faster.
	ratio := float64(xeon.IntrTotal()) / float64(pii.IntrTotal())
	if ratio < 0.9 || ratio > 1.05 {
		t.Fatalf("interrupt cost ratio = %v, want near 1 (paper: 4.36/4.45)", ratio)
	}
	if xeon.WorkScale >= pii.WorkScale {
		t.Fatal("faster CPU must have smaller WorkScale")
	}
	if got := xeon.IntrTotal(); got != sim.Micros(4.36) {
		t.Fatalf("Xeon IntrTotal = %v, want 4.36us", got)
	}
}

func TestAlphaHigherInterruptCost(t *testing.T) {
	// Section 5.1: 8.64 µs on the AlphaStation — interrupt expense is not
	// an Intel artifact.
	alpha := Alpha500()
	if got := alpha.IntrTotal(); got != sim.Micros(8.64) {
		t.Fatalf("Alpha IntrTotal = %v, want 8.64us", got)
	}
}

func TestWorkScaling(t *testing.T) {
	xeon := PentiumIII500()
	if got := xeon.Work(sim.Micros(100)); got != sim.Micros(60) {
		t.Fatalf("Work(100us) on 0.6 scale = %v, want 60us", got)
	}
	pii := PentiumII300()
	if got := pii.Work(sim.Micros(100)); got != sim.Micros(100) {
		t.Fatalf("Work(100us) on baseline = %v, want 100us", got)
	}
}

func TestWorkFloor(t *testing.T) {
	p := PentiumIII500()
	if got := p.Work(1); got < 1 {
		t.Fatalf("Work(1ns) = %v, must be schedulable (>=1)", got)
	}
	if got := p.Work(0); got != 1 {
		t.Fatalf("Work(0) = %v, want floor of 1", got)
	}
}

func TestSoftCheckMuchCheaperThanInterrupt(t *testing.T) {
	// The facility's whole premise: the per-trigger check must be orders
	// of magnitude cheaper than an interrupt.
	for _, p := range []Profile{PentiumII300(), PentiumIII500(), Alpha500()} {
		if p.SoftCheck*20 > p.IntrTotal() {
			t.Errorf("%s: SoftCheck %v too close to IntrTotal %v", p.Name, p.SoftCheck, p.IntrTotal())
		}
		if p.SoftCall >= p.IntrDirect {
			t.Errorf("%s: SoftCall %v should be well below IntrDirect %v", p.Name, p.SoftCall, p.IntrDirect)
		}
	}
}

func TestProfilesFullyPopulated(t *testing.T) {
	for _, p := range []Profile{PentiumII300(), PentiumIII500(), Alpha500()} {
		if p.Name == "" || p.WorkScale <= 0 {
			t.Errorf("profile %+v has zero identity fields", p)
		}
		for name, v := range map[string]sim.Time{
			"IntrDirect": p.IntrDirect, "IntrPollution": p.IntrPollution,
			"CtxSwitch": p.CtxSwitch, "CtxPollution": p.CtxPollution,
			"SyscallOverhead": p.SyscallOverhead, "TrapOverhead": p.TrapOverhead,
			"SoftCheck": p.SoftCheck, "SoftCall": p.SoftCall, "IdlePoll": p.IdlePoll,
		} {
			if v <= 0 {
				t.Errorf("%s: %s = %v, want positive", p.Name, name, v)
			}
		}
	}
}
