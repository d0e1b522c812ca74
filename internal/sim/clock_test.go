package sim

import (
	"testing"
	"time"
)

// fakeWall is a synthetic wall clock for driving RealTimeClock without
// real sleeps: Sleep advances the clock by the requested duration (as if
// the timer expired exactly on time) and optionally runs a hook first, so
// tests can model late wakeups and mid-sleep injection.
type fakeWall struct {
	now    time.Time
	sleeps int
	// onSleep, when set, runs before the clock advances and may shorten,
	// lengthen, or replace the advance by returning the amount to add.
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

func (f *fakeWall) clock() *RealTimeClock {
	return NewRealTimeClock(RealTimeOptions{Now: f.Now, Sleep: f.Sleep})
}

func TestClockKindNames(t *testing.T) {
	for _, k := range ClockKinds() {
		got, err := ParseClockKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseClockKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
		if k.Description() == "" || k.Description() == "unknown clock driver" {
			t.Errorf("ClockKind %v has no description", k)
		}
	}
	if _, err := ParseClockKind("wall"); err == nil {
		t.Error("ParseClockKind accepted an unknown name")
	}
	if d := NewClockDriver(ClockSim); d != nil {
		t.Errorf("NewClockDriver(ClockSim) = %T; want nil (sim mode is driverless)", d)
	}
	if d := NewClockDriver(ClockRealTime); d == nil {
		t.Error("NewClockDriver(ClockRealTime) = nil")
	}
}

func TestClockAccessors(t *testing.T) {
	e := NewEngine(1)
	if e.Clock() != ClockSim || e.ClockDriver() != nil {
		t.Errorf("fresh engine: Clock=%v driver=%v; want sim/nil", e.Clock(), e.ClockDriver())
	}
	c := newFakeWall().clock()
	e.SetClockDriver(c)
	if e.Clock() != ClockRealTime || e.ClockDriver() != ClockDriver(c) {
		t.Errorf("driven engine: Clock=%v; want realtime", e.Clock())
	}
	e2 := NewEngineWithClock(1, ClockSim)
	if e2.ClockDriver() != nil {
		t.Error("NewEngineWithClock(ClockSim) installed a driver")
	}
}

// An engine built through the clock seam with ClockSim is the default
// engine: same firing order, same clocks, same RNG draws — the driverless
// tight loop, not a dispatching wrapper.
func TestSimClockEngineMatchesDefault(t *testing.T) {
	runChurn := func(e *Engine) ([]Time, uint64) {
		var fired []Time
		rng := e.Rand().Fork()
		var churn func()
		churn = func() {
			fired = append(fired, e.Now())
			if len(fired) < 200 {
				e.After(rng.ExpTime(30*Microsecond), churn)
				if rng.Float64() < 0.3 {
					ev := e.After(time500, func() { fired = append(fired, e.Now()) })
					if rng.Float64() < 0.5 {
						ev.Cancel()
					}
				}
			}
		}
		e.After(Microsecond, churn)
		e.RunUntil(100 * Millisecond)
		return fired, e.Fired
	}
	a, an := runChurn(NewEngine(7))
	b, bn := runChurn(NewEngineWithClock(7, ClockSim))
	if an != bn || len(a) != len(b) {
		t.Fatalf("fired counts diverged: default %d/%d vs seam %d/%d", an, len(a), bn, len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("firing time %d diverged: %v vs %v", i, a[i], b[i])
		}
	}
}

const time500 = 500 * Microsecond

// The pacing contract: each event is authorized only once the (fake) wall
// clock reaches its virtual time, on-schedule events record no lag, and
// RunUntil's final horizon is itself paced.
func TestRealTimePacing(t *testing.T) {
	fw := newFakeWall()
	e := NewEngine(1)
	e.SetClockDriver(fw.clock())
	start := fw.now

	var fired []Time
	var wallAt []time.Duration
	for _, at := range []Time{100 * Microsecond, 250 * Microsecond} {
		at := at
		e.At(at, func() {
			fired = append(fired, e.Now())
			wallAt = append(wallAt, fw.now.Sub(start))
		})
	}
	e.RunUntil(300 * Microsecond)

	if len(fired) != 2 || fired[0] != 100*Microsecond || fired[1] != 250*Microsecond {
		t.Fatalf("fired at %v; want [100us 250us]", fired)
	}
	for i, w := range wallAt {
		if FromStd(w) != fired[i] {
			t.Errorf("event %d fired at wall offset %v, virtual %v; want equal", i, w, fired[i])
		}
	}
	if got := FromStd(fw.now.Sub(start)); got != 300*Microsecond {
		t.Errorf("wall clock after run = %v; want 300us (horizon is paced too)", got)
	}
	if e.Now() != 300*Microsecond {
		t.Errorf("virtual clock after run = %v; want 300us", e.Now())
	}
	c := e.ClockDriver().(*RealTimeClock)
	if c.Waits() == 0 {
		t.Error("no waits recorded for an on-schedule run")
	}
	if c.LagHist.N() != 0 || c.Bursts() != 0 {
		t.Errorf("on-schedule run recorded lag (n=%d bursts=%d)", c.LagHist.N(), c.Bursts())
	}
}

// The catch-up/lag policy: when the wall clock jumps past several pending
// events (a long handler, a descheduled process), they all fire
// immediately, back to back with no further sleeps, and each records its
// lag in the histogram.
func TestRealTimeLagBurst(t *testing.T) {
	fw := newFakeWall()
	// The first sleep overshoots by 1 ms — the engine wakes late.
	fw.onSleep = func(d time.Duration) time.Duration { return d + time.Millisecond }
	e := NewEngine(1)
	c := fw.clock()
	e.SetClockDriver(c)

	var n int
	for _, at := range []Time{10 * Microsecond, 20 * Microsecond, 30 * Microsecond} {
		e.At(at, func() { n++ })
	}
	e.Run() // drain: no horizon wait, so every lag sample is an event firing

	if n != 3 {
		t.Fatalf("fired %d events; want 3", n)
	}
	if fw.sleeps != 1 {
		t.Errorf("slept %d times; want 1 (overdue events fire without sleeping)", fw.sleeps)
	}
	if c.Bursts() != 3 || c.LagHist.N() != 3 {
		t.Errorf("bursts=%d lag samples=%d; want 3 each", c.Bursts(), c.LagHist.N())
	}
	// The jump put the wall 1ms+10us past the first event; lags are about
	// 1000, 990, 980 µs.
	if max := c.MaxLag(); max < 990*Microsecond || max > 1100*Microsecond {
		t.Errorf("MaxLag = %v; want ~1ms", max)
	}
	if med := c.LagHist.Quantile(0.5); med < 900 || med > 1100 {
		t.Errorf("median lag = %.0fus; want ~1000us", med)
	}
}

// Injection: a closure injected mid-sleep interrupts the wait, runs on the
// engine at the wall-mapped virtual instant, and what it schedules is
// picked up by the same run — even when due before the event the engine
// was sleeping toward.
func TestRealTimeInject(t *testing.T) {
	fw := newFakeWall()
	e := NewEngine(1)
	c := fw.clock()
	e.SetClockDriver(c)

	var order []string
	e.At(200*Microsecond, func() { order = append(order, "late") })

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
			if e.Now() != 100*Microsecond {
				t.Errorf("injected closure ran at %v; want 100us (wall-mapped)", e.Now())
			}
			e.After(20*Microsecond, func() { order = append(order, "follow-up") })
		})
		return d / 2 // woke early: only half the sleep elapsed
	}

	e.RunUntil(300 * Microsecond)
	want := []string{"inject", "follow-up", "late"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("execution order %v; want %v", order, want)
	}
	if c.Injected() != 1 {
		t.Errorf("Injected() = %d; want 1", c.Injected())
	}
}

// Run under a driver drains the queue paced and returns — it does not wait
// for injected work after the last event.
func TestRealTimeRunDrains(t *testing.T) {
	fw := newFakeWall()
	e := NewEngine(1)
	e.SetClockDriver(fw.clock())
	var n int
	e.At(50*Microsecond, func() { n++ })
	e.At(90*Microsecond, func() { n++ })
	e.Run()
	if n != 2 {
		t.Fatalf("Run fired %d; want 2", n)
	}
	if e.Now() != 90*Microsecond {
		t.Errorf("clock after Run = %v; want 90us (last event, never beyond)", e.Now())
	}
	if e.Pending() != 0 {
		t.Errorf("pending after Run = %d", e.Pending())
	}
}

// Begin anchors once: chunked RunFor slices share one continuous wall
// mapping rather than re-anchoring per call.
func TestRealTimeBeginAnchorsOnce(t *testing.T) {
	fw := newFakeWall()
	e := NewEngine(1)
	e.SetClockDriver(fw.clock())
	start := fw.now
	var wall []time.Duration
	e.At(30*Microsecond, func() { wall = append(wall, fw.now.Sub(start)) })
	e.At(80*Microsecond, func() { wall = append(wall, fw.now.Sub(start)) })
	for i := 0; i < 5; i++ {
		e.RunFor(20 * Microsecond) // 5 slices x 20us = 100us
	}
	if e.Now() != 100*Microsecond {
		t.Fatalf("clock = %v; want 100us", e.Now())
	}
	if len(wall) != 2 || FromStd(wall[0]) != 30*Microsecond || FromStd(wall[1]) != 80*Microsecond {
		t.Errorf("events fired at wall offsets %v; want [30us 80us]", wall)
	}
}

// A single-shard group hands a group driver to its lone engine; the run is
// paced event-granularly, exactly as on a bare driven engine.
func TestShardGroupSingleShardDriver(t *testing.T) {
	fw := newFakeWall()
	g := NewShardGroup(1, 1)
	g.SetClockDriver(fw.clock())
	start := fw.now
	var wallOff time.Duration
	g.Engine(0).At(40*Microsecond, func() { wallOff = fw.now.Sub(start) })
	g.Run(100 * Microsecond)
	if FromStd(wallOff) != 40*Microsecond {
		t.Errorf("event fired at wall offset %v; want 40us", wallOff)
	}
	if FromStd(fw.now.Sub(start)) != 100*Microsecond {
		t.Errorf("wall after run = %v; want 100us", fw.now.Sub(start))
	}
}

// Emulation runs one host: a multi-shard group refuses a clock driver
// rather than pace rounds.
func TestShardGroupClockDriverNeedsOneShard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetClockDriver on a 2-shard group did not panic")
		}
	}()
	NewShardGroup(2, 1).SetClockDriver(newFakeWall().clock())
}
