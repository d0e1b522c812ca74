package sim

import "math"

// RNG is a small, fast, deterministic random source (splitmix64 core with an
// xoshiro256**-style mix). The standard library's math/rand would also work,
// but a local generator keeps the exact sequence under our control so that
// recorded experiment outputs stay stable across Go releases.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Seed 0 is remapped so the
// zero value still produces a usable stream.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// HashName folds a name into a 64-bit salt with FNV-1a. Per-host RNG
// streams and fault channels mix it into their seeds, so each draws
// independently of assembly order and shard placement.
func HashName(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// Uint64 returns the next 64 random bits (splitmix64).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// ExpTime returns an exponentially distributed duration with the given mean.
// Results are clamped to at least 1 ns so they can always be scheduled.
func (r *RNG) ExpTime(mean Time) Time {
	d := Time(r.Exp(float64(mean)))
	if d < 1 {
		d = 1
	}
	return d
}

// Norm returns a normally distributed value (Box–Muller).
func (r *RNG) Norm(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// NormTime returns a normally distributed duration truncated below at min.
func (r *RNG) NormTime(mean, stddev, min Time) Time {
	d := Time(r.Norm(float64(mean), float64(stddev)))
	if d < min {
		d = min
	}
	return d
}

// Pareto returns a bounded Pareto sample with shape alpha on [lo, hi].
// Heavy-tailed service times (e.g. compile steps in the kernel-build
// workload) use this.
func (r *RNG) Pareto(alpha, lo, hi float64) float64 {
	u := r.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}

// ParetoTime returns a bounded Pareto duration.
func (r *RNG) ParetoTime(alpha float64, lo, hi Time) Time {
	d := Time(r.Pareto(alpha, float64(lo), float64(hi)))
	if d < 1 {
		d = 1
	}
	return d
}

// Fork returns a new RNG whose seed derives from this one's stream, for
// giving sub-components independent but still deterministic streams.
func (r *RNG) Fork() *RNG { return NewRNG(r.Uint64()) }
