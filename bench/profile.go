package main

import (
	"bytes"
	"fmt"
	"math"
	"os/exec"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// profileFold is a CPU profile reduced to the benchmark's layer buckets.
type profileFold struct {
	// Self maps each selfPkgs bucket to its share of all samples, from the
	// flat (self) column.
	Self map[string]float64
	// TriggerCum is the cumulative share of samples inside
	// core.(*Facility).Trigger, the facility's per-trigger-state check.
	TriggerCum float64
	// Profiler is the flat share of the CPU profiler's own work (signal
	// handling and profile encoding).
	Profiler float64
	// Covered is the summed flat share of the rows parsed; 1 when the
	// listing accounted for every sample.
	Covered float64
}

// triggerFn is the facility check's function name in profiles.
const triggerFn = "softtimers/internal/core.(*Facility).Trigger"

// foldProfileFile runs `go tool pprof -top` over a CPU profile (function
// names are embedded in the profile, so no binary is needed) and folds it.
func foldProfileFile(path string) (*profileFold, error) {
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0", path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return foldTop(string(out))
}

var totalRE = regexp.MustCompile(`of (\S+) total`)

// foldTop folds `pprof -top` text. Each flat sample goes to the
// softtimers/internal/<pkg> bucket it belongs to, runtime.* to runtime,
// and everything else (the standard library, the benchmark itself,
// internal packages without a bucket) to other. Shares are taken against
// the listing's reported total, so Covered checks that no row was missed.
func foldTop(text string) (*profileFold, error) {
	m := totalRE.FindStringSubmatch(text)
	if m == nil {
		return nil, fmt.Errorf("pprof output has no sample total")
	}
	total, err := parseSampleTime(m[1])
	if err != nil {
		return nil, err
	}
	if total <= 0 {
		return nil, fmt.Errorf("profile holds no samples")
	}
	f := &profileFold{Self: make(map[string]float64, len(selfPkgs))}
	for _, p := range selfPkgs {
		f.Self[p] = 0
	}
	inRows := false
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if !inRows {
			inRows = len(fields) == 5 && fields[0] == "flat" && fields[4] == "cum%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		flat, err := parseSampleTime(fields[0])
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", line, err)
		}
		cum, err := parseSampleTime(fields[3])
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", line, err)
		}
		name := strings.Join(fields[5:], " ")
		f.Self[bucketOf(name)] += flat / total
		f.Covered += flat / total
		if name == triggerFn {
			f.TriggerCum = cum / total
		}
		if strings.HasPrefix(name, "runtime/pprof.") || strings.Contains(name, "sigprof") || strings.Contains(name, "cpuProfile") {
			f.Profiler += flat / total
		}
	}
	if !inRows {
		return nil, fmt.Errorf("pprof output has no table header")
	}
	if math.Abs(f.Covered-1) > 0.01 {
		return f, fmt.Errorf("profile rows cover %.4f of the samples, want 1 ± 0.01", f.Covered)
	}
	return f, nil
}

// bucketOf names the selfPkgs bucket a profiled function belongs to.
func bucketOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "softtimers/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		if pkg != "runtime" && pkg != "other" && slices.Contains(selfPkgs, pkg) {
			return pkg
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") {
		return "runtime"
	}
	return "other"
}

// sampleUnits are the time units pprof prints, in seconds.
var sampleUnits = map[string]float64{
	"ns": 1e-9, "us": 1e-6, "µs": 1e-6, "ms": 1e-3, "s": 1,
	"mins": 60, "hrs": 3600, "days": 86400,
}

// parseSampleTime parses a pprof time value such as "1.23s" or "40ms" into
// seconds. A bare "0" is zero.
func parseSampleTime(s string) (float64, error) {
	i := strings.IndexFunc(s, func(r rune) bool { return (r < '0' || r > '9') && r != '.' })
	if i < 0 {
		return strconv.ParseFloat(s, 64)
	}
	v, err := strconv.ParseFloat(s[:i], 64)
	if err != nil {
		return 0, fmt.Errorf("sample time %q: %w", s, err)
	}
	unit, ok := sampleUnits[s[i:]]
	if !ok {
		return 0, fmt.Errorf("sample time %q: unknown unit", s)
	}
	return v * unit, nil
}
