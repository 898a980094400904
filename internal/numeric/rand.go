// Package numeric provides the deterministic numerical kernels the rest
// of the repository is built on: seedable pseudo-random number streams,
// compensated summation, root finding, numerical integration and
// one-dimensional minimization.
//
// Everything here is pure Go with no dependencies outside the standard
// library, and every routine is deterministic given its inputs, which
// keeps simulations and experiments exactly reproducible across runs
// and machines.
package numeric

import "math"

// splitMix64 advances a SplitMix64 state and returns the next value.
// SplitMix64 is used both as a tiny standalone generator and to expand
// a 64-bit seed into the 256-bit state of xoshiro256**.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a deterministic pseudo-random number generator based on
// xoshiro256** 1.0 (Blackman & Vigna). It is not safe for concurrent
// use; create one stream per goroutine with Split.
type Rand struct {
	s [4]uint64
	// cached second normal deviate from Box-Muller
	hasGauss bool
	gauss    float64
}

// NewRand returns a generator seeded from the given 64-bit seed.
// Distinct seeds yield decorrelated streams.
func NewRand(seed uint64) *Rand {
	var r Rand
	r.Reset(seed)
	return &r
}

// Reset reseeds r in place, producing the exact stream NewRand(seed)
// would. It lets long-lived engines reuse one generator across rounds
// instead of allocating a fresh one per round.
func (r *Rand) Reset(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	r.hasGauss = false
	r.gauss = 0
}

// Split derives a new independent stream from r. The parent stream is
// advanced, so repeated Splits produce distinct children.
func (r *Rand) Split() *Rand {
	return NewRand(r.Uint64() ^ 0xd1b54a32d192ed03)
}

// SplitInto seeds child from r exactly as Split would, without
// allocating. The parent stream is advanced identically, so Split and
// SplitInto are interchangeable stream-for-stream.
func (r *Rand) SplitInto(child *Rand) {
	child.Reset(r.Uint64() ^ 0xd1b54a32d192ed03)
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniformly distributed float in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * 0x1p-53
}

// Intn returns a uniformly distributed int in [0, n). It panics if
// n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("numeric: Intn called with non-positive n")
	}
	// Lemire's multiply-shift rejection method, unbiased.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask
	hiPart := t >> 32
	t = aLo*bHi + mid
	lo |= (t & mask) << 32
	hi = aHi*bHi + hiPart + t>>32
	return hi, lo
}

// ExpFloat64 returns an exponentially distributed float with rate 1
// (mean 1), via inversion.
func (r *Rand) ExpFloat64() float64 {
	// 1 - Float64() is in (0, 1], so the logarithm is finite.
	return -math.Log(1 - r.Float64())
}

// NormFloat64 returns a standard normal deviate via the Box-Muller
// transform (polar-free form; caches the second deviate).
func (r *Rand) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	u1 := 1 - r.Float64() // (0, 1]
	u2 := r.Float64()
	mag := math.Sqrt(-2 * math.Log(u1))
	r.gauss = mag * math.Sin(2*math.Pi*u2)
	r.hasGauss = true
	return mag * math.Cos(2*math.Pi*u2)
}

// Perm returns a pseudo-random permutation of [0, n) via Fisher-Yates.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
