package main

import (
	"testing"
	"time"
)

// TestCheckFlags: a response size or pacer interval that is not positive
// is refused before the server starts, so the banner states what is
// served.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		file        int
		pace, burst time.Duration
		ok          bool
	}{
		{6144, 100 * time.Microsecond, 20 * time.Microsecond, true},
		{1, time.Nanosecond, time.Nanosecond, true},
		{0, 100 * time.Microsecond, 20 * time.Microsecond, false},
		{-1, 100 * time.Microsecond, 20 * time.Microsecond, false},
		{6144, 0, 20 * time.Microsecond, false},
		{6144, -5 * time.Microsecond, 20 * time.Microsecond, false},
		{6144, 100 * time.Microsecond, 0, false},
		{6144, 100 * time.Microsecond, -5 * time.Microsecond, false},
	} {
		if err := checkFlags(c.file, c.pace, c.burst); (err == nil) != c.ok {
			t.Errorf("checkFlags(%d, %v, %v) = %v, want ok=%v", c.file, c.pace, c.burst, err, c.ok)
		}
	}
}
