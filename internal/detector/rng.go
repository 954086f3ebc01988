// Package detector generates the synthetic instrument workloads this
// reproduction substitutes for the paper's "representative event data from
// the ADAPT pipeline" (§5.5) and for CTA's camera images: SiPM/PMT waveforms
// with pedestals and noise, Cherenkov-shower-like elliptical images on 2D
// pixel arrays, ADAPT-style 1D interaction events, and the adversarial
// patterns used to probe the merge-table corner case.
//
// All generation is driven by an explicit, deterministic splitmix64 RNG so
// every experiment is exactly reproducible from its seed.
package detector

import "math"

// RNG is a deterministic splitmix64 pseudo-random generator. The zero value
// is a valid generator with seed 0; prefer NewRNG for clarity.
type RNG struct {
	state uint64
	// spare holds a cached second normal deviate from Box–Muller.
	spare    float64
	hasSpare bool
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next raw 64-bit value (splitmix64).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("detector: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard normal deviate (Box–Muller, with caching).
func (r *RNG) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.hasSpare = true
	return u * m
}

// Poisson returns a Poisson deviate with the given mean, using Knuth's
// method for small means and a normal approximation above 30 (adequate for
// photo-electron counting).
func (r *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := int(mean + math.Sqrt(mean)*r.Norm() + 0.5)
		if v < 0 {
			return 0
		}
		return v
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Exp returns an exponential deviate with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}
