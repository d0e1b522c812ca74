package main

import "testing"

// TestCheckCounts: a sample or client count below 1 is refused before any
// run starts, so neither the fleet nor the trigger-interval rig sees it.
func TestCheckCounts(t *testing.T) {
	for _, c := range []struct {
		n       int64
		clients int
		ok      bool
	}{
		{500000, 8, true},
		{1, 1, true},
		{0, 8, false},
		{-5, 8, false},
		{500000, 0, false},
		{500000, -3, false},
	} {
		if err := checkCounts(c.n, c.clients); (err == nil) != c.ok {
			t.Errorf("checkCounts(%d, %d) = %v, want ok=%v", c.n, c.clients, err, c.ok)
		}
	}
}
