package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBisectSqrt2(t *testing.T) {
	f := func(x float64) float64 { return x*x - 2 }
	x, err := Bisect(f, 0, 2, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-math.Sqrt2) > 1e-10 {
		t.Errorf("Bisect root = %v, want sqrt(2)", x)
	}
}

func TestBisectEndpointRoot(t *testing.T) {
	f := func(x float64) float64 { return x }
	x, err := Bisect(f, 0, 1, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if x != 0 {
		t.Errorf("Bisect = %v, want endpoint 0", x)
	}
}

func TestBisectNoBracket(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	if _, err := Bisect(f, -1, 1, 1e-9); err != ErrNoBracket {
		t.Errorf("err = %v, want ErrNoBracket", err)
	}
}

// Property: bisection agrees with Cardano's closed-form root of a
// random monotone cubic.
func TestRootFindersAgreeOnMonotoneCubic(t *testing.T) {
	prop := func(seed uint64) bool {
		r := NewRand(seed)
		a := 0.1 + 5*r.Float64()  // positive leading coefficient
		c := 0.1 + 5*r.Float64()  // positive linear coefficient => monotone
		d := -10 + 20*r.Float64() // constant term
		f := func(x float64) float64 { return a*x*x*x + c*x + d }
		xb, err := Bisect(f, -100, 100, 1e-12)
		if err != nil {
			return false
		}
		// x^3 + p*x + q = 0 with p > 0 has the one real root
		// cbrt(-q/2 + s) + cbrt(-q/2 - s), s = sqrt(q^2/4 + p^3/27).
		p, q := c/a, d/a
		s := math.Sqrt(q*q/4 + p*p*p/27)
		xc := math.Cbrt(-q/2+s) + math.Cbrt(-q/2-s)
		return math.Abs(f(xb)) < 1e-6 && math.Abs(xb-xc) < 1e-6
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}
