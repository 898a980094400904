package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGoldenSectionQuadratic(t *testing.T) {
	f := func(x float64) float64 { return (x - 3) * (x - 3) }
	x, fx := GoldenSection(f, -10, 10, 1e-10)
	if math.Abs(x-3) > 1e-6 {
		t.Errorf("argmin = %v, want 3", x)
	}
	if fx > 1e-10 {
		t.Errorf("min value = %v, want ~0", fx)
	}
}

func TestGoldenSectionSwappedBounds(t *testing.T) {
	f := func(x float64) float64 { return x * x }
	x, _ := GoldenSection(f, 5, -5, 1e-10)
	if math.Abs(x) > 1e-6 {
		t.Errorf("argmin = %v, want 0", x)
	}
}

func TestGoldenSectionFindsRandomVertex(t *testing.T) {
	prop := func(seed uint64) bool {
		r := NewRand(seed)
		v := -4 + 8*r.Float64()
		a := 0.5 + r.Float64()
		f := func(x float64) float64 { return a*(x-v)*(x-v) + 1 }
		x, _ := GoldenSection(f, -10, 10, 1e-9)
		return math.Abs(x-v) < 1e-5
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestArgMax(t *testing.T) {
	xs := []float64{3, 1, 5, 4, 5}
	if got := ArgMax(xs); got != 2 {
		t.Errorf("ArgMax = %d, want 2 (first of ties)", got)
	}
	if got := ArgMax(nil); got != -1 {
		t.Errorf("ArgMax(nil) = %d, want -1", got)
	}
}

func TestAlmostEqual(t *testing.T) {
	cases := []struct {
		a, b, rtol, atol float64
		want             bool
	}{
		{1, 1, 0, 0, true},
		{1, 1 + 1e-12, 1e-9, 0, true},
		{1, 1.1, 1e-9, 1e-9, false},
		{0, 1e-12, 0, 1e-9, true},
		{1e6, 1e6 + 1, 1e-5, 0, true},
		{1e6, 1e6 + 100, 1e-6, 0, false},
	}
	for _, c := range cases {
		if got := AlmostEqual(c.a, c.b, c.rtol, c.atol); got != c.want {
			t.Errorf("AlmostEqual(%v, %v, %v, %v) = %v, want %v",
				c.a, c.b, c.rtol, c.atol, got, c.want)
		}
	}
}
