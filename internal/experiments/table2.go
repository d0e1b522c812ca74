package experiments

import (
	"softtimers/internal/cpu"
	"softtimers/internal/httpserv"
	"softtimers/internal/kernel"
	"softtimers/internal/stats"
	"softtimers/internal/workloads"
)

// reportedSources are the five event sources Table 2 reports, in order.
var reportedSources = []kernel.Source{
	kernel.SrcSyscall, kernel.SrcIPOutput, kernel.SrcIPIntr,
	kernel.SrcTCPIPOther, kernel.SrcTrap,
}

// paperTable2 holds the published fractions (%).
var paperTable2 = map[kernel.Source]float64{
	kernel.SrcSyscall:    47.7,
	kernel.SrcIPOutput:   28,
	kernel.SrcIPIntr:     16.4,
	kernel.SrcTCPIPOther: 5.4,
	kernel.SrcTrap:       2.5,
}

// Table2Result holds the trigger-source breakdown for ST-Apache.
type Table2Result struct {
	// Fraction maps source -> fraction of samples (over the five
	// reported sources).
	Fraction map[kernel.Source]float64
}

// RunTable2 measures what fraction of ST-Apache trigger states each event
// source contributes (Section 5.5, Table 2).
func RunTable2(sc Scale) *Table2Result {
	d, err := workloads.ByName("ST-Apache")
	if err != nil {
		panic(err)
	}
	rig := d.Make(sc.Seed, cpu.PentiumII300())
	rig.Collect(sc.Samples, sc.Warmup, 600e9)
	m := rig.K.Meter()
	res := &Table2Result{Fraction: make(map[kernel.Source]float64)}
	var total int64
	for _, s := range reportedSources {
		total += m.BySource[s]
	}
	for _, s := range reportedSources {
		if total > 0 {
			res.Fraction[s] = float64(m.BySource[s]) / float64(total)
		}
	}
	return res
}

// Table renders Table 2 with the paper's fractions alongside.
func (r *Table2Result) Table() *Table {
	t := &Table{
		Title:   "Table 2 — trigger state sources (ST-Apache)",
		Columns: []string{"source", "fraction", "paper"},
	}
	for _, s := range reportedSources {
		t.Rows = append(t.Rows, []string{
			s.String(), pct(r.Fraction[s]), f1(paperTable2[s]) + "%",
		})
	}
	t.Metrics = map[string]float64{
		"syscall_frac":   r.Fraction[kernel.SrcSyscall],
		"ip_output_frac": r.Fraction[kernel.SrcIPOutput],
	}
	return t
}

// Fig6Series is the trigger-interval CDF with one source's trigger states
// removed (Figure 6).
type Fig6Series struct {
	Removed string // "" for the full set
	MeanUS  float64
	CDF     []stats.CDFPoint
}

// Fig6Result holds the source-ablation CDFs.
type Fig6Result struct {
	Series []Fig6Series
}

// RunFig6 recomputes the ST-Apache trigger-interval distribution with each
// event source's trigger states suppressed in turn (Section 5.5, Figure 6:
// "system calls and IP packet transmissions are the most important sources
// of trigger events").
func RunFig6(sc Scale) *Fig6Result {
	ablate := []struct {
		label string
		src   kernel.Source
		on    bool
	}{
		{"All", 0, false},
		{"no traps", kernel.SrcTrap, true},
		{"no ip-intr", kernel.SrcIPIntr, true},
		{"no ip-output", kernel.SrcIPOutput, true},
		{"no syscalls", kernel.SrcSyscall, true},
	}
	// One independent testbed per ablated source.
	res := &Fig6Result{Series: make([]Fig6Series, len(ablate))}
	forEach(sc.Workers, len(ablate), func(i int) {
		a := ablate[i]
		tb := httpserv.NewTestbed(httpserv.TestbedConfig{
			Seed: sc.Seed,
			Kernel: kernel.Options{
				DisabledSources: disabled(a.on, a.src),
			},
			Server: httpserv.Config{Kind: httpserv.Apache},
		})
		tb.Start()
		rig := &workloads.Rig{Eng: tb.Eng, K: tb.K, F: tb.F}
		rig.Collect(sc.Samples/2, sc.Warmup, 600e9)
		h := tb.K.Meter().Hist
		res.Series[i] = Fig6Series{
			Removed: a.label,
			MeanUS:  h.Mean(),
			CDF:     h.CDF(150),
		}
	})
	return res
}

func disabled(on bool, src kernel.Source) map[kernel.Source]bool {
	if !on {
		return nil
	}
	return map[kernel.Source]bool{src: true}
}

// Table renders the mean interval per ablation plus CDF checkpoints.
func (r *Fig6Result) Table() *Table {
	t := &Table{
		Title:   "Figure 6 — impact of removing each trigger source (ST-Apache)",
		Columns: []string{"variant", "mean interval (us)", "CDF@50us", "CDF@100us"},
		Notes: []string{
			"paper: removing syscalls or ip-output degrades the distribution most",
		},
	}
	at := func(cdf []stats.CDFPoint, x float64) float64 {
		for _, p := range cdf {
			if p.X >= x {
				return p.Frac
			}
		}
		if len(cdf) > 0 {
			return cdf[len(cdf)-1].Frac
		}
		return 0
	}
	for _, s := range r.Series {
		t.Rows = append(t.Rows, []string{
			s.Removed, f2(s.MeanUS), pct(at(s.CDF, 50)), pct(at(s.CDF, 100)),
		})
	}
	t.Metrics = map[string]float64{}
	for _, s := range r.Series {
		switch s.Removed {
		case "All":
			t.Metrics["mean_us_all"] = s.MeanUS
		case "no syscalls":
			t.Metrics["mean_us_no_syscalls"] = s.MeanUS
		}
	}
	return t
}
