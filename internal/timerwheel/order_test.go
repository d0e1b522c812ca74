package timerwheel

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
)

// fireOrderHash drives q through a fixed pseudo-random script of Schedule,
// ScheduleFree, Cancel, Reschedule, Rearm and Advance — with handlers that
// themselves schedule, cancel, reschedule and rearm during Advance — and
// returns the FNV-1a hash of everything observed: each fire (id and tick)
// in the order it happened, each op's result, and Len/Earliest after every
// Advance. The wheels promise no order among timers due in one Advance, but
// the simulator's telemetry depends on the order they do use, so any change
// to it must show up here.
func fireOrderHash(q Queue, seed int64, steps int) uint64 {
	rng := rand.New(rand.NewSource(seed))
	h := fnv.New64a()
	var buf []byte
	put := func(vs ...uint64) {
		for _, v := range vs {
			buf = binary.AppendUvarint(buf[:0], v)
			h.Write(buf)
		}
	}
	b := func(ok bool) uint64 {
		if ok {
			return 1
		}
		return 0
	}
	var (
		handles []*Timer
		now     Tick
		nextID  uint64
	)
	deadline := func(base Tick) Tick {
		switch rng.Intn(10) {
		case 0:
			return base + Tick(rng.Intn(3)) // due at once, or nearly
		case 1:
			if base > 0 { // already past
				return base - Tick(rng.Int63n(int64(min(base, 600))))
			}
			return base
		case 2, 3, 4:
			return base + Tick(rng.Intn(64))
		case 5, 6:
			return base + Tick(rng.Intn(1024))
		case 7, 8:
			return base + Tick(rng.Intn(100_000))
		default: // past the hierarchical wheel's top level
			return base + Tick(rng.Int63n(1<<25))
		}
	}
	pick := func() *Timer {
		if len(handles) == 0 {
			return nil
		}
		return handles[rng.Intn(len(handles))]
	}
	var handler func(id uint64) Handler
	schedule := func(at Tick) {
		id := nextID
		nextID++
		handles = append(handles, q.Schedule(deadline(at), handler(id)))
		put('s', id)
	}
	scheduleFree := func(at Tick) {
		id := nextID
		nextID++
		q.ScheduleFree(deadline(at), handler(id))
		put('f', id)
	}
	mutate := func(at Tick) {
		switch rng.Intn(5) {
		case 0:
			if t := pick(); t != nil {
				put('c', b(t.Cancel()))
			}
		case 1:
			if t := pick(); t != nil {
				put('r', b(t.Reschedule(deadline(at))))
			}
		case 2:
			if t := pick(); t != nil && !t.Pending() {
				t.Rearm(deadline(at), nil)
				put('a', t.Deadline())
			}
		case 3:
			schedule(at)
		default:
			scheduleFree(at)
		}
	}
	handler = func(id uint64) Handler {
		return func(at Tick) {
			put('F', id, at)
			if rng.Intn(3) == 0 {
				mutate(at)
			}
		}
	}
	for i := 0; i < steps; i++ {
		switch rng.Intn(4) {
		case 0:
			mutate(now)
		case 1:
			schedule(now)
		default:
			switch rng.Intn(8) {
			case 0: // same tick again
			case 1, 2, 3:
				now += Tick(rng.Intn(16))
			case 4, 5:
				now += Tick(rng.Intn(300))
			case 6:
				now += Tick(rng.Intn(5000))
			default:
				now += Tick(rng.Int63n(1 << 24))
			}
			put('A', uint64(q.Advance(now)), uint64(q.Len()), q.Earliest())
		}
	}
	now += 1 << 26 // drain everything, overflow included
	put('A', uint64(q.Advance(now)), uint64(q.Len()), q.Earliest())
	return h.Sum64()
}

// TestFireOrderGolden pins the order in which each wheel fires the timers
// due in one Advance. The constants were computed on the linear-sweep
// implementation that preceded the occupancy bitmaps; the bitmaps must visit
// slots in the same ascending order, so the hashes must not move.
func TestFireOrderGolden(t *testing.T) {
	cases := []struct {
		name string
		q    func() Queue
		want uint64
	}{
		{"hashed/16", func() Queue { return New(16) }, 0x742740f5ac4e8d0f},
		{"hashed/256", func() Queue { return New(256) }, 0x187333df0747e473},
		{"hierarchical", func() Queue { return NewHierarchical() }, 0x8d803d35b14cd867},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := fireOrderHash(c.q(), 1, 4000); got != c.want {
				t.Fatalf("fire-order hash = %#x, want %#x", got, c.want)
			}
		})
	}
}
