package sim

// Accessors the tests read engine and handle state through; no non-test
// code needs them.

// At reports the simulated time a pending event is scheduled for, or 0
// once it has fired or been canceled.
func (ev Event) At() Time {
	if ev.Pending() {
		return ev.e.at
	}
	return 0
}

// Label returns the debug label attached at scheduling time, or "" once
// the event has fired or been canceled.
func (ev Event) Label() string {
	if ev.e != nil && ev.e.gen == ev.gen {
		return ev.e.label
	}
	return ""
}

// FreeListLen returns the number of recycled events awaiting reuse.
func (e *Engine) FreeListLen() int { return len(e.free) }

// InFlight returns the number of cross-shard messages not yet injected
// into their destination engines; between Run calls it is always zero.
func (g *ShardGroup) InFlight() int {
	var n int
	for _, s := range g.shards {
		n += len(s.out)
	}
	return n
}
