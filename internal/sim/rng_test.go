package sim

import (
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
)

// HashName is the one name fold behind per-host RNG streams and fault
// channels; it must stay FNV-1a, or every seeded host and fault stream
// moves.
func TestHashNameIsFNV1a(t *testing.T) {
	for _, name := range []string{"", "server", "client0007", "link.lan.server.up", "nic.eth0.rx"} {
		h := fnv.New64a()
		h.Write([]byte(name))
		if got, want := HashName(name), h.Sum64(); got != want {
			t.Errorf("HashName(%q) = %#x, want FNV-1a %#x", name, got, want)
		}
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed RNGs diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero-seeded RNG looks degenerate")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestIntnRangeAndPanic(t *testing.T) {
	r := NewRNG(4)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) hit only %d values in 1000 draws", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestExpMean(t *testing.T) {
	r := NewRNG(5)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(100)
	}
	mean := sum / n
	if math.Abs(mean-100) > 2 {
		t.Fatalf("Exp mean = %v, want ~100", mean)
	}
}

func TestExpTimeAtLeastOne(t *testing.T) {
	r := NewRNG(6)
	for i := 0; i < 10000; i++ {
		if r.ExpTime(2) < 1 {
			t.Fatal("ExpTime returned < 1ns")
		}
	}
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(7)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Norm(50, 10)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-50) > 0.5 {
		t.Errorf("Norm mean = %v, want ~50", mean)
	}
	if math.Abs(math.Sqrt(variance)-10) > 0.5 {
		t.Errorf("Norm stddev = %v, want ~10", math.Sqrt(variance))
	}
}

func TestNormTimeTruncates(t *testing.T) {
	r := NewRNG(8)
	for i := 0; i < 10000; i++ {
		if d := r.NormTime(10, 100, 5); d < 5 {
			t.Fatalf("NormTime below floor: %v", d)
		}
	}
}

func TestParetoBounds(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		v := r.Pareto(1.2, 10, 1000)
		if v < 10-1e-9 || v > 1000+1e-9 {
			t.Fatalf("Pareto out of bounds: %v", v)
		}
	}
}

func TestParetoHeavyTail(t *testing.T) {
	// With alpha just above 1 the sample mean should sit well above the
	// lower bound — a sanity check that the tail is actually heavy.
	r := NewRNG(10)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Pareto(1.1, 10, 100000)
	}
	if mean := sum / n; mean < 30 {
		t.Fatalf("Pareto(1.1,10,1e5) mean = %v, tail looks too light", mean)
	}
}

func TestForkIndependentStreams(t *testing.T) {
	parent := NewRNG(12)
	a := parent.Fork()
	b := parent.Fork()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("forked streams overlap: %d identical draws", same)
	}
}

// Property: ExpTime and ParetoTime never produce non-positive durations for
// any seed and mean, so every sample can be scheduled.
func TestPropertyDurationsPositive(t *testing.T) {
	f := func(seed uint64, mean uint32) bool {
		r := NewRNG(seed)
		m := Time(mean%1_000_000) + 1
		for i := 0; i < 50; i++ {
			if r.ExpTime(m) < 1 {
				return false
			}
			if r.ParetoTime(1.3, m, m*100) < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkRNGExpTime(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.ExpTime(Microsecond)
	}
}
