package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"softtimers/internal/cpu"
	"softtimers/internal/kernel"
	"softtimers/internal/sim"
)

// The rearm-equivalence contract: Pacer and MultiPacer rearming their
// handle in place (Event.Rearm) must produce exactly the telemetry a
// cancel+insert with a fresh event per period produces — every counter,
// gauge, and histogram bucket, byte for byte. A pending rearm counts one
// cancel plus one schedule; a fired rearm counts one schedule; the wheel
// node lands in the slot position a fresh insert would take. The
// cancel+insert path is gone; each test below pins the sha256 of the
// snapshot it produced for the same drive, which the in-place run matched.

// rearmSnapshotSHA runs one pacing workload and returns the sha256 of the
// kernel's full metrics snapshot as canonical JSON.
func rearmSnapshotSHA(t *testing.T, drive func(eng *sim.Engine, f *Facility)) string {
	t.Helper()
	eng := sim.NewEngine(7)
	k := kernel.New(eng, cpu.PentiumII300(), kernel.Options{IdleLoop: true})
	f := New(k, Options{})
	k.Start()
	drive(eng, f)
	b, err := json.Marshal(k.Metrics().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestPacerRearmMatchesLegacyTelemetry(t *testing.T) {
	drive := func(eng *sim.Engine, f *Facility) {
		sent := 0
		p := NewPacer(f, 40*sim.Microsecond, 12*sim.Microsecond,
			func(now sim.Time) (sim.Time, bool) {
				sent++
				return sim.Microsecond, sent < 2000
			})
		p.Start()
		eng.RunFor(200 * sim.Millisecond)
		if sent != 2000 {
			t.Fatalf("sent %d of 2000", sent)
		}
		// Restart after the train ends: the in-place path revives the fired
		// handle where cancel+insert scheduled a fresh event.
		sent = 0
		p.Start()
		eng.RunFor(200 * sim.Millisecond)
		if sent != 2000 {
			t.Fatalf("second train sent %d of 2000", sent)
		}
	}
	const cancelInsert = "32a7f82e948d644b38659a6a51964a624892d7621d0f1e6e0283356bbe05e17e"
	if got := rearmSnapshotSHA(t, drive); got != cancelInsert {
		t.Fatalf("pacer telemetry sha256 %s, want cancel+insert's %s", got, cancelInsert)
	}
}

func TestMultiPacerRearmMatchesLegacyTelemetry(t *testing.T) {
	drive := func(eng *sim.Engine, f *Facility) {
		m := NewMultiPacer(f)
		sent := map[int]int{}
		mk := func(id, limit int) func(sim.Time) (sim.Time, bool) {
			return func(sim.Time) (sim.Time, bool) {
				sent[id]++
				return sim.Microsecond, sent[id] < limit
			}
		}
		// Staggered flows: adds and removals constantly move the earliest
		// deadline, so the shared event rearms in both directions (earlier
		// and later) and empties out mid-run before flow 3 revives it.
		m.AddFlow(1, 40*sim.Microsecond, 12*sim.Microsecond, mk(1, 1500))
		m.AddFlow(2, 100*sim.Microsecond, 12*sim.Microsecond, mk(2, 400))
		eng.RunFor(100 * sim.Millisecond)
		m.AddFlow(3, 60*sim.Microsecond, 12*sim.Microsecond, mk(3, 700))
		eng.RunFor(100 * sim.Millisecond)
		if sent[1] != 1500 || sent[2] != 400 || sent[3] != 700 {
			t.Fatalf("sent = %v, want all trains complete", sent)
		}
		if len(m.flows) != 0 {
			t.Fatalf("flows remaining = %d", len(m.flows))
		}
	}
	const cancelInsert = "8c0220d80a7dfbed4b55fbe84c0f96c86b7de43fff1b3c673f906b49f0ded021"
	if got := rearmSnapshotSHA(t, drive); got != cancelInsert {
		t.Fatalf("multipacer telemetry sha256 %s, want cancel+insert's %s", got, cancelInsert)
	}
}

// Event.Rearm's counter contract directly: a pending rearm is one cancel
// plus one schedule; a fired rearm is one schedule only — the exact
// accounting a cancel+insert (or fresh schedule) would produce.
func TestEventRearmCounterParity(t *testing.T) {
	eng, k, f := newRig(kernel.Options{IdleLoop: true}, Options{})
	k.Start()
	ev := f.ScheduleSoftEvent(50, func(sim.Time) sim.Time { return 0 })
	s0 := f.Stats()
	ev.Rearm(80) // pending: cancel + schedule
	s1 := f.Stats()
	if s1.Canceled != s0.Canceled+1 || s1.Scheduled != s0.Scheduled+1 {
		t.Fatalf("pending rearm: canceled %d->%d scheduled %d->%d, want +1/+1",
			s0.Canceled, s1.Canceled, s0.Scheduled, s1.Scheduled)
	}
	eng.RunFor(sim.Millisecond)
	if ev.t.Pending() {
		t.Fatal("event did not fire")
	}
	s2 := f.Stats()
	ev.Rearm(30) // fired: schedule only
	s3 := f.Stats()
	if s3.Canceled != s2.Canceled || s3.Scheduled != s2.Scheduled+1 {
		t.Fatalf("fired rearm: canceled %d->%d scheduled %d->%d, want +0/+1",
			s2.Canceled, s3.Canceled, s2.Scheduled, s3.Scheduled)
	}
	if !ev.t.Pending() {
		t.Fatal("fired event not pending after rearm")
	}
	fired := s3.Fired
	eng.RunFor(sim.Millisecond)
	if got := f.Stats().Fired; got != fired+1 {
		t.Fatalf("revived event fired %d times, want 1", got-fired)
	}
}
