// Package stats provides streaming summary statistics, quantiles and
// batch means used by the simulation and experiment harnesses.
package stats

import (
	"math"
	"sort"
)

// Summary accumulates a stream of observations with Welford's online
// algorithm, tracking count, mean and variance in O(1) space. The zero
// value is an empty summary ready for use.
type Summary struct {
	n        int
	mean, m2 float64
}

// Add incorporates one observation.
func (s *Summary) Add(x float64) {
	s.n++
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// AddAll incorporates every observation in xs.
func (s *Summary) AddAll(xs []float64) {
	for _, x := range xs {
		s.Add(x)
	}
}

// N returns the number of observations seen.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean, or 0 if empty.
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance, or 0 with fewer than two
// observations.
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// StdErr returns the standard error of the mean.
func (s *Summary) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.Std() / math.Sqrt(float64(s.n))
}

// Quantile returns the q-th sample quantile (0 <= q <= 1) of xs using
// linear interpolation between order statistics. It panics on an empty
// slice or out-of-range q. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic("stats: Quantile fraction out of [0,1]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// RelErr returns |got-want| / max(|want|, eps): the relative error of
// got against a reference value, guarded against a zero reference.
func RelErr(got, want float64) float64 {
	denom := math.Abs(want)
	if denom < 1e-300 {
		denom = 1e-300
	}
	return math.Abs(got-want) / denom
}
