package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// TestHistQuantileWithinOnePercent compares every reported quantile
// with the exact nearest-rank value of the sorted samples, over values
// spanning nanoseconds to seconds.
func TestHistQuantileWithinOnePercent(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for _, n := range []int{1, 10, 1000, 200_000} {
		var h hist
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(math.Exp(rng.NormFloat64()*3 + 11)) // ~60ns .. ~1s
			h.record(vals[i])
		}
		slices.Sort(vals)
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
			exact := vals[int(q*float64(n-1))]
			got := h.quantile(q)
			if rel := math.Abs(float64(got-exact)) / float64(exact); rel > 0.01 {
				t.Errorf("n=%d q=%g: hist %d, exact %d (%.2f%% off)", n, q, got, exact, 100*rel)
			}
		}
		if h.n != uint64(n) || h.max != vals[n-1] {
			t.Errorf("n=%d: count %d max %d, want %d %d", n, h.n, h.max, n, vals[n-1])
		}
	}
}

func TestHistSmallValuesExactAndMerge(t *testing.T) {
	var a, b hist
	for v := int64(0); v < subCount; v++ {
		a.record(v)
		b.record(v)
	}
	a.merge(&b)
	if a.n != 2*subCount || a.quantile(0) != 0 || a.quantile(1) != subCount-1 {
		t.Fatalf("merged: n=%d min=%d max=%d", a.n, a.quantile(0), a.quantile(1))
	}
	if got := a.quantile(0.5); got != subCount/2-1 && got != subCount/2 {
		t.Fatalf("median of two copies of 0..%d = %d", subCount-1, got)
	}
}
