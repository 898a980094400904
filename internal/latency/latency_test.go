package latency

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/numeric"
)

func TestLinearValues(t *testing.T) {
	f := Linear{T: 2}
	if got := f.Latency(3); got != 6 {
		t.Errorf("Latency(3) = %v, want 6", got)
	}
	if got := f.Total(3); got != 18 {
		t.Errorf("Total(3) = %v, want 18", got)
	}
	if got := f.MarginalTotal(3); got != 12 {
		t.Errorf("MarginalTotal(3) = %v, want 12", got)
	}
	if !math.IsInf(f.MaxRate(), 1) {
		t.Error("linear MaxRate should be +Inf")
	}
}

func TestLinearNegativeLoad(t *testing.T) {
	f := Linear{T: 1}
	if !math.IsInf(f.Latency(-1), 1) || !math.IsInf(f.Total(-0.5), 1) {
		t.Error("negative load should yield +Inf")
	}
}

func TestMM1Values(t *testing.T) {
	f := MM1{Mu: 5}
	if got, want := f.Latency(3), 0.5; got != want {
		t.Errorf("Latency(3) = %v, want %v", got, want)
	}
	if got, want := f.Total(3), 1.5; got != want {
		t.Errorf("Total(3) = %v, want %v", got, want)
	}
	if got, want := f.MarginalTotal(3), 5.0/4; got != want {
		t.Errorf("MarginalTotal(3) = %v, want %v", got, want)
	}
	if !math.IsInf(f.Latency(5), 1) || !math.IsInf(f.Latency(6), 1) {
		t.Error("latency at or beyond capacity should be +Inf")
	}
	if f.MaxRate() != 5 {
		t.Errorf("MaxRate = %v, want 5", f.MaxRate())
	}
}

func TestMG1ReducesToMM1SojournWhenCS2Is1(t *testing.T) {
	mm1 := MM1{Mu: 4}
	mg1 := MG1{Mu: 4, CS2: 1}
	for _, x := range []float64{0, 0.5, 1, 2, 3, 3.9} {
		// M/M/1 sojourn time is 1/(mu-x); PK with cs2=1 must agree.
		if got, want := mg1.Latency(x), mm1.Latency(x); !numeric.AlmostEqual(got, want, 1e-12, 0) {
			t.Errorf("x=%v: MG1 latency %v != MM1 %v", x, got, want)
		}
	}
}

func TestMG1MD1BelowMM1(t *testing.T) {
	// Deterministic service (cs2=0) has less queueing than exponential.
	md1 := MG1{Mu: 4, CS2: 0}
	mm1 := MG1{Mu: 4, CS2: 1}
	for _, x := range []float64{0.5, 1, 2, 3} {
		if md1.Latency(x) >= mm1.Latency(x) {
			t.Errorf("x=%v: M/D/1 latency %v not below M/M/1 %v",
				x, md1.Latency(x), mm1.Latency(x))
		}
	}
}

// numericalMarginal estimates d/dx Total(x) by central differences.
func numericalMarginal(f Function, x float64) float64 {
	h := 1e-6 * (1 + math.Abs(x))
	return (f.Total(x+h) - f.Total(x-h)) / (2 * h)
}

func TestMarginalTotalMatchesNumericalDerivative(t *testing.T) {
	fns := []Function{
		Linear{T: 2.5},
		MM1{Mu: 6},
	}
	for _, f := range fns {
		hi := f.MaxRate()
		if math.IsInf(hi, 1) {
			hi = 10
		} else {
			hi *= 0.8
		}
		for i := 1; i <= 5; i++ {
			x := hi * float64(i) / 5
			got := f.MarginalTotal(x)
			want := numericalMarginal(f, x)
			if !numeric.AlmostEqual(got, want, 1e-4, 1e-6) {
				t.Errorf("%v at x=%v: MarginalTotal=%v, numeric=%v", f, x, got, want)
			}
			if inv := f.InverseMarginal(got); !numeric.AlmostEqual(inv, x, 1e-12, 1e-12) {
				t.Errorf("%v: InverseMarginal(MarginalTotal(%v)) = %v", f, x, inv)
			}
		}
	}
}

// Property: for random linear models, total latency is convex
// (midpoint inequality) and marginal is increasing.
func TestLinearConvexityProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		r := numeric.NewRand(seed)
		f := Linear{T: 0.1 + 10*r.Float64()}
		a := 10 * r.Float64()
		b := 10 * r.Float64()
		mid := (a + b) / 2
		return f.Total(mid) <= (f.Total(a)+f.Total(b))/2+1e-9 &&
			f.MarginalTotal(a) <= f.MarginalTotal(a+1)+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStringers(t *testing.T) {
	for _, f := range []Function{Linear{T: 1}, MM1{Mu: 3}} {
		if f.String() == "" {
			t.Errorf("%T has empty String()", f)
		}
	}
}
