package emu

import (
	"testing"
	"time"

	"softtimers/internal/sim"
)

// fakeWall is a synthetic wall clock for driving a Clock without real
// sleeps: Sleep advances the clock by the requested duration (as if the
// timer expired exactly on time) and optionally runs a hook first, so
// tests can model late wakeups and mid-sleep injection.
type fakeWall struct {
	now    time.Time
	sleeps int
	// onSleep, when set, runs before the clock advances and returns the
	// amount to advance by instead of the requested duration.
	onSleep func(d time.Duration) time.Duration
}

func newFakeWall() *fakeWall {
	return &fakeWall{now: time.Unix(1_000_000, 0)}
}

func (f *fakeWall) Now() time.Time { return f.now }

func (f *fakeWall) Sleep(d time.Duration, wake <-chan struct{}) {
	f.sleeps++
	if f.onSleep != nil {
		d = f.onSleep(d)
	}
	f.now = f.now.Add(d)
}

func (f *fakeWall) clock() *Clock { return newClock(f.Now, f.Sleep) }

// The pacing contract: each event fires once the (fake) wall clock reaches
// its virtual time, and on-schedule events record no lag.
func TestClockPacing(t *testing.T) {
	fw := newFakeWall()
	c := fw.clock()
	e := sim.NewEngine(1)
	start := fw.now

	var fired []sim.Time
	var wallAt []time.Duration
	for _, at := range []sim.Time{100 * sim.Microsecond, 250 * sim.Microsecond} {
		e.At(at, func() {
			fired = append(fired, e.Now())
			wallAt = append(wallAt, fw.now.Sub(start))
		})
	}
	stop := make(chan struct{})
	e.At(300*sim.Microsecond, func() { close(stop) })
	c.run(e, stop)

	if len(fired) != 2 || fired[0] != 100*sim.Microsecond || fired[1] != 250*sim.Microsecond {
		t.Fatalf("fired at %v; want [100us 250us]", fired)
	}
	for i, w := range wallAt {
		if sim.FromStd(w) != fired[i] {
			t.Errorf("event %d fired at wall offset %v, virtual %v; want equal", i, w, fired[i])
		}
	}
	if got := sim.FromStd(fw.now.Sub(start)); got != 300*sim.Microsecond {
		t.Errorf("wall clock after run = %v; want 300us", got)
	}
	if c.Waits() != 3 {
		t.Errorf("Waits() = %d; want 3, one per event", c.Waits())
	}
	if c.LagHist.N() != 0 || c.Bursts() != 0 {
		t.Errorf("on-schedule run recorded lag (n=%d bursts=%d)", c.LagHist.N(), c.Bursts())
	}
}

// The catch-up/lag policy: when the wall clock jumps past several pending
// events (a long handler, a descheduled process), they all fire
// immediately, back to back with no further sleeps, and each records its
// lag in the histogram.
func TestClockLagBurst(t *testing.T) {
	fw := newFakeWall()
	// The sleep overshoots by 1 ms: the engine wakes late.
	fw.onSleep = func(d time.Duration) time.Duration { return d + time.Millisecond }
	c := fw.clock()
	e := sim.NewEngine(1)
	stop := make(chan struct{})

	var n int
	e.At(10*sim.Microsecond, func() { n++ })
	e.At(20*sim.Microsecond, func() { n++ })
	e.At(30*sim.Microsecond, func() { n++; close(stop) })
	c.run(e, stop)

	if n != 3 {
		t.Fatalf("fired %d events; want 3", n)
	}
	if fw.sleeps != 1 {
		t.Errorf("slept %d times; want 1 (overdue events fire without sleeping)", fw.sleeps)
	}
	if c.Bursts() != 3 || c.LagHist.N() != 3 {
		t.Errorf("bursts=%d lag samples=%d; want 3 each", c.Bursts(), c.LagHist.N())
	}
	// The jump put the wall 1ms+10us past the start; lags are 1000, 990
	// and 980 µs.
	if c.MaxLag() != sim.Millisecond {
		t.Errorf("MaxLag = %v; want 1ms", c.MaxLag())
	}
	if sum := c.LagHist.Sum(); sum != 2970 {
		t.Errorf("lag sum = %.0fus; want 2970us", sum)
	}
}

// Injection: a closure injected mid-sleep interrupts the wait, runs on the
// engine at the wall-mapped virtual instant, and what it schedules is
// picked up by the same run — even when due before the event the engine
// was sleeping toward.
func TestClockInject(t *testing.T) {
	fw := newFakeWall()
	c := fw.clock()
	e := sim.NewEngine(1)
	stop := make(chan struct{})

	var order []string
	e.At(200*sim.Microsecond, func() { order = append(order, "late"); close(stop) })

	// Halfway through the engine's sleep toward 200 µs, external work
	// arrives (as a socket reader would deliver a packet).
	injected := false
	fw.onSleep = func(d time.Duration) time.Duration {
		if injected {
			return d
		}
		injected = true
		c.Inject(func() {
			order = append(order, "inject")
			if e.Now() != 100*sim.Microsecond {
				t.Errorf("injected closure ran at %v; want 100us (wall-mapped)", e.Now())
			}
			e.After(20*sim.Microsecond, func() { order = append(order, "follow-up") })
		})
		return d / 2 // woke early: only half the sleep elapsed
	}
	c.run(e, stop)

	want := []string{"inject", "follow-up", "late"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("execution order %v; want %v", order, want)
	}
	if c.Injected() != 1 {
		t.Errorf("Injected() = %d; want 1", c.Injected())
	}
}

// Work injected while the engine is behind schedule waits for the overdue
// events: each fires first, with its lag, and the work then runs with the
// engine's clock at its wall-mapped arrival.
func TestClockInjectBehindSchedule(t *testing.T) {
	fw := newFakeWall()
	c := fw.clock()
	e := sim.NewEngine(1)
	stop := make(chan struct{})

	var order []string
	var lags []int64
	for i, name := range []string{"e10", "e20", "e30"} {
		e.At(sim.Time(i+1)*10*sim.Microsecond, func() {
			order = append(order, name)
			lags = append(lags, c.LagHist.N())
		})
	}
	var ranAt sim.Time
	fw.onSleep = func(d time.Duration) time.Duration {
		c.Inject(func() {
			order = append(order, "work")
			ranAt = e.Now()
			close(stop)
		})
		return d + time.Millisecond // woke 1 ms late, work already waiting
	}
	c.run(e, stop)

	want := []string{"e10", "e20", "e30", "work"}
	if len(order) != 4 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] || order[3] != want[3] {
		t.Fatalf("execution order %v; want %v", order, want)
	}
	// Each overdue event's lag was recorded before its handler ran.
	if len(lags) != 3 || lags[0] != 1 || lags[1] != 2 || lags[2] != 3 {
		t.Errorf("lag samples seen by the handlers = %v; want [1 2 3]", lags)
	}
	if sum := c.LagHist.Sum(); sum != 2970 {
		t.Errorf("lag sum = %.0fus; want 2970us (1000, 990 and 980)", sum)
	}
	if ranAt != 1010*sim.Microsecond {
		t.Errorf("work ran at %v; want its arrival, 1010us", ranAt)
	}
	if fw.sleeps != 1 {
		t.Errorf("slept %d times; want 1", fw.sleeps)
	}
}

// An empty pending batch is no work: the loop neither counts it as
// injected nor lets it disturb the pacing of the next event.
func TestClockEmptyPendingIsNotWork(t *testing.T) {
	fw := newFakeWall()
	c := fw.clock()
	c.pending = []func(){} // empty but non-nil, as a take/append race could leave it
	e := sim.NewEngine(1)
	start := fw.now
	stop := make(chan struct{})
	var wallAt time.Duration
	e.At(50*sim.Microsecond, func() { wallAt = fw.now.Sub(start); close(stop) })
	c.run(e, stop)

	if sim.FromStd(wallAt) != 50*sim.Microsecond {
		t.Errorf("event fired at wall offset %v; want 50us", wallAt)
	}
	if c.Injected() != 0 {
		t.Errorf("empty batch counted as %d injected closures", c.Injected())
	}
	if c.Waits() != 1 {
		t.Errorf("Waits() = %d; want 1", c.Waits())
	}
}
