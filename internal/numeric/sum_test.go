package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKahanSumExactCancellation(t *testing.T) {
	// Naive summation of [1e16, 1, -1e16] loses the 1; Kahan keeps it.
	got := Sum([]float64{1e16, 1, -1e16})
	if got != 1 {
		t.Errorf("Sum = %v, want 1", got)
	}
}

func TestKahanSumManySmall(t *testing.T) {
	const n = 1_000_000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 0.1
	}
	got := Sum(xs)
	want := float64(n) * 0.1
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("Sum of %d copies of 0.1 = %v, want %v", n, got, want)
	}
}

func TestSumEmpty(t *testing.T) {
	if got := Sum(nil); got != 0 {
		t.Errorf("Sum(nil) = %v, want 0", got)
	}
}

func TestSumMatchesNaiveOnBenignInputs(t *testing.T) {
	f := func(xs []float64) bool {
		var naive float64
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				return true // skip pathological draws
			}
			naive += x
		}
		return AlmostEqual(Sum(xs), naive, 1e-9, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSumFunc(t *testing.T) {
	got := SumFunc(5, func(i int) float64 { return float64(i) })
	if got != 10 {
		t.Errorf("SumFunc = %v, want 10", got)
	}
	if got := SumFunc(0, func(int) float64 { return 1 }); got != 0 {
		t.Errorf("SumFunc(0) = %v, want 0", got)
	}
}
