package sim

import (
	"testing"
	"time"
)

func TestUnitConstants(t *testing.T) {
	if Microsecond != 1000 || Millisecond != 1_000_000 || Second != 1_000_000_000 {
		t.Fatal("unit constants are wrong")
	}
}

func TestConversions(t *testing.T) {
	cases := []struct {
		in   Time
		us   float64
		ms   float64
		secs float64
	}{
		{0, 0, 0, 0},
		{1500, 1.5, 0.0015, 0.0000015},
		{2 * Second, 2e6, 2000, 2},
	}
	for _, c := range cases {
		if got := c.in.Micros(); got != c.us {
			t.Errorf("%d.Micros() = %v, want %v", int64(c.in), got, c.us)
		}
		if got := c.in.Millis(); got != c.ms {
			t.Errorf("%d.Millis() = %v, want %v", int64(c.in), got, c.ms)
		}
		if got := c.in.Seconds(); got != c.secs {
			t.Errorf("%d.Seconds() = %v, want %v", int64(c.in), got, c.secs)
		}
	}
}

func TestConstructorsRound(t *testing.T) {
	if Micros(1.5) != 1500 {
		t.Errorf("Micros(1.5) = %v", Micros(1.5))
	}
	if Micros(0.0004) != 0 {
		t.Errorf("Micros(0.0004) = %v, want 0", Micros(0.0004))
	}
}

func TestStdRoundTrip(t *testing.T) {
	d := 123456 * time.Microsecond
	if FromStd(d).Std() != d {
		t.Fatalf("round trip failed: %v", FromStd(d).Std())
	}
}

func TestStringAdaptiveUnits(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{12500, "12.5us"},
		{3200 * Microsecond, "3.2ms"},
		{2 * Second, "2s"},
		{-12500, "-12.5us"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}
