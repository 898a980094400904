// Package alloc implements optimal job allocation across heterogeneous
// computers: the paper's closed-form PR (proportional-to-rate)
// algorithm for linear latency functions, and a general KKT
// water-filling solver for convex latency models (M/M/1).
package alloc

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/latency"
	"repro/internal/numeric"
)

// ErrInfeasible is returned when the requested arrival rate exceeds
// the aggregate capacity of the computers.
var ErrInfeasible = errors.New("alloc: arrival rate exceeds total capacity")

// errNoComputers is returned by allocators given an empty system.
var errNoComputers = errors.New("alloc: no computers")

// ValueError reports an allocator input that is out of range or not
// finite, naming the offending field. Rejecting NaN and Inf here keeps
// them from flowing silently into allocations and payments — a NaN
// rate used to produce an all-NaN "allocation" without any error.
type ValueError struct {
	// Field names the input, e.g. "rate" or "t[3]".
	Field string
	// Value is the rejected value.
	Value float64
}

// Error implements error.
func (e *ValueError) Error() string {
	return fmt.Sprintf("alloc: invalid %s = %g", e.Field, e.Value)
}

// checkRate validates an arrival rate: finite and nonnegative.
func checkRate(rate float64) error {
	if rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return &ValueError{Field: "rate", Value: rate}
	}
	return nil
}

// ValidT reports whether t is an admissible linear latency parameter
// (a bid): positive, with a positive finite reciprocal. Besides zero,
// negatives and NaN that rules out +Inf (whose 1/t is 0) and the
// subnormals below 1/MaxFloat64 (whose 1/t overflows to +Inf and
// would turn every aggregate S = Σ 1/t they enter into Inf, and S
// minus their term into NaN). It is the one bid predicate shared by
// the allocators, Stream and the concurrent registry.
//
// It decides without dividing: 1/t rounds to at most MaxFloat64
// exactly when t > 2^-1024 (at t = 2^-1024 itself the quotient is
// 2^1024, which overflows, and the next float up is already far
// inside), and 1/t > 0 for positive t exactly when t is finite. NaN
// fails both comparisons.
func ValidT(t float64) bool {
	return t > 0x1p-1024 && t <= math.MaxFloat64
}

// checkT validates a latency parameter with ValidT.
func checkT(i int, t float64) error {
	if !ValidT(t) {
		return &ValueError{Field: fmt.Sprintf("t[%d]", i), Value: t}
	}
	return nil
}

// Proportional implements the paper's PR algorithm (Theorem 2.1): for
// linear latency functions l_i(x) = t_i*x, the total-latency-minimizing
// allocation routes jobs in proportion to processing rates,
//
//	x_i = (1/t_i) / sum_j (1/t_j) * rate.
//
// It returns a *ValueError if the rate is negative or non-finite or
// ValidT rejects any t_i.
func Proportional(ts []float64, rate float64) ([]float64, error) {
	if err := checkRate(rate); err != nil {
		return nil, err
	}
	if len(ts) == 0 {
		return nil, errNoComputers
	}
	var inv numeric.KahanSum
	for i, t := range ts {
		if err := checkT(i, t); err != nil {
			return nil, err
		}
		inv.Add(1 / t)
	}
	s := inv.Value()
	x := make([]float64, len(ts))
	for i, t := range ts {
		x[i] = rate / (t * s)
	}
	return x, nil
}

// OptimalLatencyLinear returns the minimum total latency for linear
// models (Theorem 2.1): L* = rate^2 / sum_j (1/t_j). It validates its
// inputs like Proportional — an empty system is errNoComputers rather
// than a silent rate^2/0 = +Inf, and a non-positive or non-finite t
// is a *ValueError rather than a silent L* = 0 — so the two faces of
// the same theorem share one contract.
func OptimalLatencyLinear(ts []float64, rate float64) (float64, error) {
	if err := checkRate(rate); err != nil {
		return 0, err
	}
	if len(ts) == 0 {
		return 0, errNoComputers
	}
	for i, t := range ts {
		if err := checkT(i, t); err != nil {
			return 0, err
		}
	}
	s := numeric.SumFunc(len(ts), func(i int) float64 { return 1 / ts[i] })
	return rate * rate / s, nil
}

// TotalLatencyLinear returns sum_i t_i * x_i^2, the total latency of
// allocation x under linear latency parameters ts. It panics if the
// slices have different lengths.
func TotalLatencyLinear(ts, x []float64) float64 {
	if len(ts) != len(x) {
		panic("alloc: mismatched lengths")
	}
	return numeric.SumFunc(len(ts), func(i int) float64 { return ts[i] * x[i] * x[i] })
}

// TotalLatency returns sum_i x_i * l_i(x_i) for general latency models.
func TotalLatency(fns []latency.Function, x []float64) float64 {
	if len(fns) != len(x) {
		panic("alloc: mismatched lengths")
	}
	return numeric.SumFunc(len(fns), func(i int) float64 { return fns[i].Total(x[i]) })
}

// Feasible reports whether x is a feasible allocation for the given
// rate: nonnegative entries summing to rate within tolerance tol.
func Feasible(x []float64, rate, tol float64) bool {
	for _, v := range x {
		if v < -tol || math.IsNaN(v) {
			return false
		}
	}
	return math.Abs(numeric.Sum(x)-rate) <= tol
}

// Exclude returns ts with index i removed, without modifying ts.
func Exclude(ts []float64, i int) []float64 {
	out := make([]float64, 0, len(ts)-1)
	out = append(out, ts[:i]...)
	return append(out, ts[i+1:]...)
}

// Optimal computes the total-latency-minimizing feasible allocation for
// convex latency functions by solving the KKT conditions: there is a
// Lagrange multiplier alpha such that every computer with x_i > 0 has
// MarginalTotal_i(x_i) = alpha and every computer with x_i = 0 has
// MarginalTotal_i(0) >= alpha. The aggregate assigned flow is
// nondecreasing in alpha, so alpha is found by bisection, and each
// per-computer load is the function's closed-form InverseMarginal.
//
// For linear models this agrees with Proportional (property-tested).
// Returns ErrInfeasible when rate >= sum of capacities.
func Optimal(fns []latency.Function, rate float64) ([]float64, error) {
	n := len(fns)
	if n == 0 {
		return nil, errNoComputers
	}
	if err := checkRate(rate); err != nil {
		return nil, err
	}
	x := make([]float64, n)
	if rate == 0 {
		return x, nil
	}
	// Capacity check.
	capTotal := 0.0
	for _, f := range fns {
		capTotal += f.MaxRate() // +Inf propagates correctly
	}
	if rate >= capTotal {
		return nil, ErrInfeasible
	}

	// assigned(alpha) computes per-computer loads at multiplier alpha.
	assigned := func(alpha float64, out []float64) float64 {
		var sum numeric.KahanSum
		for i, f := range fns {
			out[i] = invertMarginal(f, alpha)
			sum.Add(out[i])
		}
		return sum.Value()
	}

	// Bracket alpha. At alpha <= min_i MarginalTotal_i(0) nothing is
	// assigned; grow alpha geometrically until enough flow is assigned.
	lo := math.Inf(1)
	for _, f := range fns {
		if m := f.MarginalTotal(0); m < lo {
			lo = m
		}
	}
	if math.IsInf(lo, 0) || math.IsNaN(lo) {
		return nil, errors.New("alloc: invalid marginal at zero")
	}
	hi := lo + 1
	tmp := make([]float64, n)
	for iter := 0; assigned(hi, tmp) < rate; iter++ {
		if iter > 200 {
			return nil, numeric.ErrNoConverge
		}
		hi = lo + (hi-lo)*4
	}
	alpha, err := numeric.Bisect(func(a float64) float64 {
		return assigned(a, tmp) - rate
	}, lo, hi, 1e-13*(1+math.Abs(hi)))
	if err != nil {
		return nil, err
	}
	assigned(alpha, x)
	// Repair rounding drift so the conservation constraint holds
	// exactly: rescale the positive entries.
	total := numeric.Sum(x)
	if total > 0 {
		scale := rate / total
		for i := range x {
			x[i] *= scale
		}
	}
	return x, nil
}

// invertMarginal returns the load x >= 0 with MarginalTotal(x) = alpha,
// or 0 when the computer is too slow to be used at this multiplier.
func invertMarginal(f latency.Function, alpha float64) float64 {
	if f.MarginalTotal(0) >= alpha {
		return 0
	}
	return f.InverseMarginal(alpha)
}

// LinearFunctions converts a slice of latency parameters into Linear
// latency functions.
func LinearFunctions(ts []float64) []latency.Function {
	fns := make([]latency.Function, len(ts))
	for i, t := range ts {
		fns[i] = latency.Linear{T: t}
	}
	return fns
}
