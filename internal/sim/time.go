// Package sim provides a deterministic discrete-event simulation engine.
//
// All higher-level subsystems in this repository (the simulated kernel, the
// network stack, TCP, the web-server workload models) run on top of a single
// sim.Engine. Simulated time is a nanosecond counter that advances only when
// events fire, so microsecond-scale phenomena — the paper's subject — are
// exact and runs are perfectly reproducible for a given seed.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in simulated time, in nanoseconds since the start of the
// run. It doubles as a duration type: differences and sums of Time values
// are meaningful, mirroring how the paper treats clock ticks.
type Time int64

// Convenient units, mirroring time.Duration's constants.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Micros reports t as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis reports t as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Std converts t to a time.Duration (both are nanosecond counts).
func (t Time) Std() time.Duration { return time.Duration(t) }

// FromStd converts a time.Duration to a sim.Time.
func FromStd(d time.Duration) Time { return Time(d) }

// Micros returns a Time of us microseconds. Fractional microsecond inputs
// are rounded to the nearest nanosecond.
func Micros(us float64) Time { return Time(us*float64(Microsecond) + 0.5) }

// String formats t with an adaptive unit, e.g. "12.5us" or "3.2ms".
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3gus", t.Micros())
	case t < Second:
		return fmt.Sprintf("%.4gms", t.Millis())
	default:
		return fmt.Sprintf("%.6gs", t.Seconds())
	}
}
