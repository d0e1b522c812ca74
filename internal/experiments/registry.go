package experiments

// The experiment registry: one named entry per figure/table driver, shared
// by cmd/stbench, the parallel runner, and the determinism tests.

import "sort"

// Runner produces one experiment's rendered table at the given scale.
type Runner func(sc Scale) *Table

// entry pairs a driver with its one-line description (stbench -list).
type entry struct {
	run  Runner
	desc string
}

// registry maps experiment names to drivers.
var registry = map[string]entry{
	"fig2":   {func(sc Scale) *Table { return RunFig2(sc).Table() }, "timer overhead vs interrupt-clock frequency (Figure 2)"},
	"sec52":  {func(sc Scale) *Table { return RunSec52(sc).Table() }, "soft-timer check overhead on busy workloads (Section 5.2)"},
	"table1": {func(sc Scale) *Table { return RunTable1(sc).Table() }, "trigger-state rates per workload (Table 1)"},
	"fig5":   {func(sc Scale) *Table { return RunFig5(sc).Table() }, "trigger-interval medians over time (Figure 5)"},
	"table2": {func(sc Scale) *Table { return RunTable2(sc).Table() }, "trigger-state sources under a saturated web server (Table 2)"},
	"fig6":   {func(sc Scale) *Table { return RunFig6(sc).Table() }, "trigger-source ablation (Figure 6)"},
	"table3": {func(sc Scale) *Table { return RunTable3(sc).Table() }, "rate-based clocking: soft vs hardware timers (Table 3)"},
	"table4": {func(sc Scale) *Table { return RunPacing(sc, 40).Table() }, "transmission-process statistics at 40 Mbps pacing (Table 4)"},
	"table5": {func(sc Scale) *Table { return RunPacing(sc, 60).Table() }, "transmission-process statistics at 60 Mbps pacing (Table 5)"},
	"table6": {func(sc Scale) *Table { return RunWAN(sc, 50).Table() }, "WAN transfers through the emulator at 50 ms RTT (Table 6)"},
	"table7": {func(sc Scale) *Table { return RunWAN(sc, 100).Table() }, "WAN transfers through the emulator at 100 ms RTT (Table 7)"},
	"table8": {func(sc Scale) *Table { return RunTable8(sc).Table() }, "network polling vs interrupts, four-NIC server (Table 8)"},
	// Beyond the paper's figures: Section 5.10's useful-range analysis
	// and ablations of this reproduction's own design choices.
	"sec510":             {func(sc Scale) *Table { return RunUsefulRange(sc).Table() }, "useful resolution range of soft timers (Section 5.10)"},
	"delaydist":          {func(sc Scale) *Table { return RunDelayDist(sc).Table() }, "soft-timer firing-delay distribution d = actual - T"},
	"ablation-wheel":     {func(sc Scale) *Table { return RunWheelAblation(sc).Table() }, "ablation: hashed vs hierarchical timer wheel"},
	"ablation-idle":      {func(sc Scale) *Table { return RunIdleAblation(sc).Table() }, "ablation: idle-loop trigger states on and off"},
	"ablation-pollution": {func(sc Scale) *Table { return RunPollutionAblation(sc).Table() }, "ablation: cache-pollution cost model on and off"},
	// Graceful-degradation sweeps under the fault-injection layer.
	"degradation-starve": {func(sc Scale) *Table { return RunDegradationStarve(sc).Table() }, "soft-timer delay vs trigger-state starvation"},
	"degradation-loss":   {func(sc Scale) *Table { return RunDegradationLoss(sc).Table() }, "paced-transfer goodput vs data-path packet loss"},
	// Multi-node topology experiments.
	"fleet-scale": {func(sc Scale) *Table { return RunFleetScale(sc).Table() }, "one server vs up to 1024 real client kernels on a switched LAN (-shards N spreads the hosts over N engines, whose rounds run inline)"},
	"fleet-hier":  {func(sc Scale) *Table { return RunFleetHier(sc).Table() }, "hierarchical fleet: leaf-spine fabric with connection churn (-shards N spreads the leaves over N engines, whose rounds run inline)"},
	"fleet-trace": {func(sc Scale) *Table { return RunFleetTrace(sc).Table() }, "traced hierarchical fleet: sampled flow spans, per-hop latency decomposition, virtual-time series (-series dumps them)"},
	// Real-time emulation on loopback sockets: not part of "all" (not in
	// Order), because its results depend on the machine, by design.
	"emu-trigger-interval": {func(sc Scale) *Table { return RunEmuTriggerInterval(sc).Table() },
		"real trigger-interval distribution from the emulation server on loopback sockets, vs Table 1 (not in all)"},
}

// Order fixes the presentation sequence for "all experiments".
var Order = []string{"fig2", "sec52", "table1", "fig5", "table2", "fig6",
	"table3", "table4", "table5", "table6", "table7", "table8",
	"delaydist", "sec510", "ablation-wheel", "ablation-idle", "ablation-pollution",
	"degradation-starve", "degradation-loss", "fleet-scale", "fleet-hier", "fleet-trace"}

// Lookup returns the driver registered under name.
func Lookup(name string) (Runner, bool) {
	e, ok := registry[name]
	return e.run, ok
}

// Names returns all registered experiment names, unordered.
func Names() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	return out
}

// List returns every (name, description) pair in Order, then any
// registered experiment Order omits, sorted by name — the stbench -list
// inventory.
func List() [][2]string {
	out := make([][2]string, 0, len(registry))
	seen := make(map[string]bool, len(registry))
	for _, name := range Order {
		if e, ok := registry[name]; ok {
			out = append(out, [2]string{name, e.desc})
			seen[name] = true
		}
	}
	rest := make([]string, 0)
	for name := range registry {
		if !seen[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		out = append(out, [2]string{name, registry[name].desc})
	}
	return out
}
