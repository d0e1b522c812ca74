// Package workloads assembles the six system workloads whose trigger-state
// interval distributions Section 5.3 measures (Figure 4 and Table 1):
//
//	ST-Apache          busy Apache web server (6 KB requests, saturated)
//	ST-Apache-compute  the same plus a compute-bound background process
//	ST-Flash           busy Flash (event-driven) web server
//	ST-real-audio      RealPlayer-like CPU-saturating audio client
//	ST-nfs             saturated but disk-bound NFS server (CPU ~90% idle)
//	ST-kernel-build    compiling the OS kernel from source
//
// Each definition builds a ready-to-run rig: a simulated kernel with the
// soft-timer facility installed and the workload's processes and device
// activity wired up. The trigger meter on the kernel then yields the
// interval distribution.
package workloads

import (
	"fmt"

	"softtimers/internal/core"
	"softtimers/internal/cpu"
	"softtimers/internal/httpserv"
	"softtimers/internal/kernel"
	"softtimers/internal/sim"
)

// Rig is an assembled workload ready to run.
type Rig struct {
	Eng *sim.Engine
	K   *kernel.Kernel
	F   *core.Facility
}

// Definition names a workload and knows how to build it.
type Definition struct {
	// Name is the paper's label, e.g. "ST-Apache".
	Name string
	// Make assembles the workload on a fresh engine.
	Make func(seed uint64, prof cpu.Profile) *Rig
}

// All returns the paper's six workloads in Table 1 order.
func All() []Definition {
	return []Definition{
		{Name: "ST-Apache", Make: makeApache(false)},
		{Name: "ST-Apache-compute", Make: makeApache(true)},
		{Name: "ST-Flash", Make: makeFlash},
		{Name: "ST-real-audio", Make: makeRealAudio},
		{Name: "ST-nfs", Make: makeNFS},
		{Name: "ST-kernel-build", Make: makeKernelBuild},
	}
}

// ByName returns the named workload definition.
func ByName(name string) (Definition, error) {
	for _, d := range All() {
		if d.Name == name {
			return d, nil
		}
	}
	return Definition{}, fmt.Errorf("workloads: unknown workload %q", name)
}

// Collect runs the rig until n trigger intervals have been recorded (or
// the simulated-time cap passes), running warmup first so distributions
// are measured in steady state.
func (r *Rig) Collect(n int64, warmup, cap sim.Time) {
	r.Eng.RunFor(warmup)
	// Reset the meter by swapping in a fresh one is not supported;
	// instead record the base count and run until the delta reaches n.
	base := r.K.Meter().N()
	deadline := r.Eng.Now() + cap
	for r.K.Meter().N()-base < n && r.Eng.Now() < deadline {
		r.Eng.RunFor(10 * sim.Millisecond)
	}
}

// makeApache builds the ST-Apache rig; withCompute adds the compute-bound
// background process of ST-Apache-compute.
func makeApache(withCompute bool) func(uint64, cpu.Profile) *Rig {
	return func(seed uint64, prof cpu.Profile) *Rig {
		tb := httpserv.NewTestbed(httpserv.TestbedConfig{
			Seed:    seed,
			Profile: prof,
			Server:  httpserv.Config{Kind: httpserv.Apache},
		})
		if withCompute {
			// A tight user-mode loop without system calls: it may only
			// lose the CPU to interrupts and quantum preemption, and
			// contributes no trigger states of its own.
			hog := tb.K.Spawn("compute-hog", func(p *kernel.Proc) {
				var loop func()
				loop = func() { p.Compute(50*sim.Millisecond, loop) }
				loop()
			})
			// BSD's decaying priorities keep a pure spinner below the
			// I/O-bound server processes; it soaks up leftover CPU but
			// is preempted the moment a worker wakes. This is why the
			// paper finds "no tangible impact" from the hog.
			hog.Priority = -1
		}
		r := &Rig{Eng: tb.Eng, K: tb.K, F: tb.F}
		tb.Start()
		return r
	}
}

func makeFlash(seed uint64, prof cpu.Profile) *Rig {
	tb := httpserv.NewTestbed(httpserv.TestbedConfig{
		Seed:    seed,
		Profile: prof,
		Server:  httpserv.Config{Kind: httpserv.Flash},
	})
	r := &Rig{Eng: tb.Eng, K: tb.K, F: tb.F}
	tb.Start()
	return r
}
