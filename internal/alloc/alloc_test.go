package alloc

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/latency"
	"repro/internal/numeric"
)

// paperTs returns the 16-computer configuration of Table 1.
func paperTs() []float64 {
	return []float64{1, 1, 2, 2, 2, 5, 5, 5, 5, 5, 10, 10, 10, 10, 10, 10}
}

func TestProportionalPaperConfiguration(t *testing.T) {
	ts := paperTs()
	x, err := Proportional(ts, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !Feasible(x, 20, 1e-9) {
		t.Fatalf("allocation infeasible: %v", x)
	}
	// sum(1/t) = 5.1, so C1 gets 20/5.1 = 3.92156...
	if want := 20.0 / 5.1; !numeric.AlmostEqual(x[0], want, 1e-12, 0) {
		t.Errorf("x[0] = %v, want %v", x[0], want)
	}
	// The paper's headline number: L* = 78.43.
	l := TotalLatencyLinear(ts, x)
	if math.Abs(l-78.431372549) > 1e-6 {
		t.Errorf("optimal latency = %v, want 78.4314 (paper: 78.43)", l)
	}
	got, err := OptimalLatencyLinear(ts, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(got, l, 1e-12, 1e-12) {
		t.Errorf("closed form %v != realized %v", got, l)
	}
}

func TestProportionalZeroRate(t *testing.T) {
	x, err := Proportional([]float64{1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if v != 0 {
			t.Errorf("x[%d] = %v, want 0", i, v)
		}
	}
}

func TestProportionalErrors(t *testing.T) {
	if _, err := Proportional(nil, 1); err == nil {
		t.Error("expected error for empty system")
	}
	if _, err := Proportional([]float64{1, 0}, 1); err == nil {
		t.Error("expected error for t=0")
	}
	if _, err := Proportional([]float64{1, -2}, 1); err == nil {
		t.Error("expected error for negative t")
	}
	if _, err := Proportional([]float64{1}, -1); err == nil {
		t.Error("expected error for negative rate")
	}
	if _, err := Proportional([]float64{math.NaN()}, 1); err == nil {
		t.Error("expected error for NaN t")
	}
	if _, err := Proportional([]float64{1, 1e-310}, 1); err == nil {
		t.Error("expected error for subnormal t (1/t overflows)")
	}
}

// TestValidT pins the shared bid predicate: positive with a positive
// finite reciprocal, so subnormals whose 1/t overflows are rejected
// alongside zero, negatives, NaN and infinities.
func TestValidT(t *testing.T) {
	for _, ok := range []float64{1, 0.5, 1e300, math.MaxFloat64, 0x1p-1022} {
		if !ValidT(ok) {
			t.Errorf("ValidT(%g) = false, want true", ok)
		}
	}
	bad := []float64{0, math.Copysign(0, -1), -1, math.NaN(), math.Inf(1), math.Inf(-1),
		1e-310, 1 / math.MaxFloat64, math.SmallestNonzeroFloat64}
	for _, b := range bad {
		if ValidT(b) {
			t.Errorf("ValidT(%g) = true, want false", b)
		}
	}
}

// TestValidTMatchesDivision pins ValidT's comparison form against the
// division it replaced, 1/t in (0, MaxFloat64]: on a million random
// bit patterns, every float within 10^5 ulps of 2^-1024 (where 1/t
// starts to overflow) on either side, and the special values.
func TestValidTMatchesDivision(t *testing.T) {
	division := func(t float64) bool {
		inv := 1 / t
		return t > 0 && inv > 0 && inv <= math.MaxFloat64
	}
	check := func(x float64) {
		if got, want := ValidT(x), division(x); got != want {
			t.Fatalf("ValidT(%g) [bits %#x] = %v, division form says %v", x, math.Float64bits(x), got, want)
		}
	}
	for _, x := range []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1} {
		check(x)
	}
	edge := math.Float64bits(0x1p-1024)
	for d := uint64(0); d <= 100000; d++ {
		check(math.Float64frombits(edge + d))
		check(math.Float64frombits(edge - d))
	}
	rng := rand.New(rand.NewPCG(7, 8))
	for i := 0; i < 1000000; i++ {
		check(math.Float64frombits(rng.Uint64()))
	}
}

// Regression: a NaN or Inf arrival rate passed every `rate < 0` guard
// (NaN comparisons are false) and produced an all-NaN "allocation"
// with a nil error. The allocators now reject non-finite rates with a
// typed *ValueError naming the field.
func TestAllocatorsRejectNonFiniteRate(t *testing.T) {
	ts := []float64{1, 2}
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var ve *ValueError
		if _, err := Proportional(ts, rate); !errors.As(err, &ve) {
			t.Errorf("Proportional(rate=%v): err = %v, want *ValueError", rate, err)
		} else if ve.Field != "rate" {
			t.Errorf("Proportional(rate=%v): field = %q, want \"rate\"", rate, ve.Field)
		}
		if _, err := ProportionalInto(nil, ts, rate); !errors.As(err, &ve) {
			t.Errorf("ProportionalInto(rate=%v): err = %v, want *ValueError", rate, err)
		}
		if _, err := Optimal(LinearFunctions(ts), rate); !errors.As(err, &ve) {
			t.Errorf("Optimal(rate=%v): err = %v, want *ValueError", rate, err)
		}
		if _, err := OptimalLatencyLinear(ts, rate); !errors.As(err, &ve) {
			t.Errorf("OptimalLatencyLinear(rate=%v): err = %v, want *ValueError", rate, err)
		}
		if _, err := LeaveOneOutTotalsMM1([]float64{3, 4}, rate, nil); !errors.As(err, &ve) {
			t.Errorf("LeaveOneOutTotalsMM1(rate=%v): err = %v, want *ValueError", rate, err)
		}
	}
}

// Regression: OptimalLatencyLinear silently returned rate^2/0 = +Inf
// for an empty system and L* = 0 for zero or negative t (the 1/t sum
// went infinite). It now shares Proportional's validation contract.
func TestOptimalLatencyLinearValidation(t *testing.T) {
	if _, err := OptimalLatencyLinear(nil, 5); err == nil {
		t.Error("expected error for empty system")
	}
	for _, bad := range [][]float64{
		{1, 0},
		{1, -2},
		{1, math.NaN()},
		{1, math.Inf(1)},
	} {
		var ve *ValueError
		if _, err := OptimalLatencyLinear(bad, 5); !errors.As(err, &ve) {
			t.Errorf("ts=%v: err = %v, want *ValueError", bad, err)
		}
	}
	// The valid closed form still matches Theorem 2.1 exactly.
	got, err := OptimalLatencyLinear([]float64{2, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := 16.0; got != want {
		t.Errorf("L* = %v, want %v", got, want)
	}
	// Zero rate on a valid system is a valid zero, not an error.
	got, err = OptimalLatencyLinear([]float64{2, 3}, 0)
	if err != nil || got != 0 {
		t.Errorf("zero rate: (%v, %v), want (0, nil)", got, err)
	}
}

// Property: PR allocation is feasible and its latency is no worse than
// a basket of alternative feasible allocations (optimality witness).
func TestProportionalOptimalityProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		r := numeric.NewRand(seed)
		n := 2 + r.Intn(8)
		ts := make([]float64, n)
		for i := range ts {
			ts[i] = 0.1 + 10*r.Float64()
		}
		rate := 0.5 + 30*r.Float64()
		x, err := Proportional(ts, rate)
		if err != nil || !Feasible(x, rate, 1e-9) {
			return false
		}
		opt := TotalLatencyLinear(ts, x)
		// Compare against random perturbed feasible allocations.
		for trial := 0; trial < 10; trial++ {
			y := make([]float64, n)
			var sum float64
			for i := range y {
				y[i] = r.Float64()
				sum += y[i]
			}
			for i := range y {
				y[i] *= rate / sum
			}
			if TotalLatencyLinear(ts, y) < opt-1e-9 {
				return false
			}
		}
		// And against single-pair transfers from the optimum.
		for trial := 0; trial < 10; trial++ {
			i, j := r.Intn(n), r.Intn(n)
			if i == j {
				continue
			}
			d := x[i] * r.Float64()
			y := append([]float64(nil), x...)
			y[i] -= d
			y[j] += d
			if TotalLatencyLinear(ts, y) < opt-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the generic KKT solver agrees with the closed-form PR
// algorithm on linear models.
func TestOptimalMatchesProportionalOnLinear(t *testing.T) {
	prop := func(seed uint64) bool {
		r := numeric.NewRand(seed)
		n := 1 + r.Intn(10)
		ts := make([]float64, n)
		for i := range ts {
			ts[i] = 0.05 + 20*r.Float64()
		}
		rate := 50 * r.Float64()
		want, err := Proportional(ts, rate)
		if err != nil {
			return false
		}
		got, err := Optimal(LinearFunctions(ts), rate)
		if err != nil {
			return false
		}
		for i := range got {
			if !numeric.AlmostEqual(got[i], want[i], 1e-6, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestOptimalMM1ClosedForm(t *testing.T) {
	// Two identical M/M/1 computers must split the load evenly.
	fns := []latency.Function{latency.MM1{Mu: 5}, latency.MM1{Mu: 5}}
	x, err := Optimal(fns, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(x[0], 2, 1e-9, 1e-9) || !numeric.AlmostEqual(x[1], 2, 1e-9, 1e-9) {
		t.Errorf("allocation %v, want [2 2]", x)
	}
}

func TestOptimalMM1SlowComputerUnused(t *testing.T) {
	// With a very fast computer and a very slow one under light load,
	// the KKT conditions leave the slow computer idle.
	fns := []latency.Function{latency.MM1{Mu: 100}, latency.MM1{Mu: 0.1}}
	x, err := Optimal(fns, 1)
	if err != nil {
		t.Fatal(err)
	}
	if x[1] > 1e-6 {
		t.Errorf("slow computer received load %v, want ~0", x[1])
	}
	if !numeric.AlmostEqual(x[0], 1, 1e-9, 1e-9) {
		t.Errorf("fast computer received %v, want 1", x[0])
	}
}

func TestOptimalMM1KKTConditions(t *testing.T) {
	fns := []latency.Function{
		latency.MM1{Mu: 10}, latency.MM1{Mu: 7}, latency.MM1{Mu: 3}, latency.MM1{Mu: 1},
	}
	const rate = 12
	x, err := Optimal(fns, rate)
	if err != nil {
		t.Fatal(err)
	}
	if !Feasible(x, rate, 1e-7) {
		t.Fatalf("infeasible: %v (sum %v)", x, numeric.Sum(x))
	}
	// All used computers share one marginal total latency.
	var alpha float64
	for i, f := range fns {
		if x[i] > 1e-9 {
			m := f.MarginalTotal(x[i])
			if alpha == 0 {
				alpha = m
			} else if !numeric.AlmostEqual(m, alpha, 1e-5, 1e-7) {
				t.Errorf("computer %d marginal %v != alpha %v", i, m, alpha)
			}
		}
	}
	// Unused computers have marginal at zero >= alpha.
	for i, f := range fns {
		if x[i] <= 1e-9 && f.MarginalTotal(0) < alpha-1e-7 {
			t.Errorf("unused computer %d violates KKT: marginal0 %v < alpha %v",
				i, f.MarginalTotal(0), alpha)
		}
	}
}

func TestOptimalInfeasible(t *testing.T) {
	fns := []latency.Function{latency.MM1{Mu: 1}, latency.MM1{Mu: 2}}
	if _, err := Optimal(fns, 3.5); err != ErrInfeasible {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestOptimalZeroRate(t *testing.T) {
	x, err := Optimal([]latency.Function{latency.MM1{Mu: 2}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 0 {
		t.Errorf("x = %v, want [0]", x)
	}
}

func TestOptimalEmpty(t *testing.T) {
	if _, err := Optimal(nil, 1); err == nil {
		t.Error("expected error for empty system")
	}
}

func TestOptimalMixedModels(t *testing.T) {
	fns := []latency.Function{
		latency.Linear{T: 1},
		latency.MM1{Mu: 4},
		latency.Linear{T: 2},
		latency.MM1{Mu: 6},
	}
	const rate = 5
	x, err := Optimal(fns, rate)
	if err != nil {
		t.Fatal(err)
	}
	if !Feasible(x, rate, 1e-6) {
		t.Fatalf("infeasible: %v", x)
	}
	// Optimality witness: random feasible perturbations are no better.
	opt := TotalLatency(fns, x)
	r := numeric.NewRand(5)
	for trial := 0; trial < 200; trial++ {
		y := append([]float64(nil), x...)
		i, j := r.Intn(len(y)), r.Intn(len(y))
		if i == j {
			continue
		}
		d := y[i] * 0.3 * r.Float64()
		if y[j]+d >= fns[j].MaxRate() {
			continue
		}
		y[i] -= d
		y[j] += d
		if TotalLatency(fns, y) < opt-1e-6 {
			t.Fatalf("found better allocation by perturbation: %v (L=%v) vs optimal %v (L=%v)",
				y, TotalLatency(fns, y), x, opt)
		}
	}
}

func TestExclude(t *testing.T) {
	ts := []float64{1, 2, 3}
	got := Exclude(ts, 1)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("Exclude = %v, want [1 3]", got)
	}
	// Original untouched.
	if ts[1] != 2 {
		t.Error("Exclude mutated input")
	}
	if got := Exclude(ts, 0); got[0] != 2 || got[1] != 3 {
		t.Errorf("Exclude(0) = %v", got)
	}
	if got := Exclude(ts, 2); got[0] != 1 || got[1] != 2 {
		t.Errorf("Exclude(2) = %v", got)
	}
}

func TestFeasible(t *testing.T) {
	if !Feasible([]float64{1, 2}, 3, 1e-9) {
		t.Error("valid allocation rejected")
	}
	if Feasible([]float64{-1, 4}, 3, 1e-9) {
		t.Error("negative allocation accepted")
	}
	if Feasible([]float64{1, 1}, 3, 1e-9) {
		t.Error("non-conserving allocation accepted")
	}
	if Feasible([]float64{math.NaN(), 3}, 3, 1e-9) {
		t.Error("NaN allocation accepted")
	}
}

func TestTotalLatencyPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TotalLatencyLinear([]float64{1}, []float64{1, 2})
}
