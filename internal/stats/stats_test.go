package stats

import (
	"math"
	"testing"

	"repro/internal/numeric"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	s.AddAll([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N() != 8 {
		t.Errorf("N = %d, want 8", s.N())
	}
	if got := s.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Population variance is 4; unbiased sample variance is 32/7.
	if got, want := s.Var(), 32.0/7; math.Abs(got-want) > 1e-12 {
		t.Errorf("Var = %v, want %v", got, want)
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 || s.StdErr() != 0 {
		t.Error("empty summary should report zeros")
	}
}

func TestSummarySingle(t *testing.T) {
	var s Summary
	s.Add(3.5)
	if s.Mean() != 3.5 || s.Var() != 0 {
		t.Errorf("single-point summary: mean %v var %v", s.Mean(), s.Var())
	}
}

// TestSummaryCI95CoversMean: the normal-approximation 95% interval
// built from Mean and StdErr covers the true mean and is as narrow as
// n = 10000 unit-variance draws allow.
func TestSummaryCI95CoversMean(t *testing.T) {
	var s Summary
	rng := numeric.NewRand(5)
	for i := 0; i < 10000; i++ {
		s.Add(10 + rng.NormFloat64())
	}
	h := 1.959963984540054 * s.StdErr()
	lo, hi := s.Mean()-h, s.Mean()+h
	if lo > 10 || hi < 10 {
		t.Errorf("CI95 (%v, %v) does not cover true mean 10", lo, hi)
	}
	if hi-lo > 0.1 {
		t.Errorf("CI95 width %v too wide for n=10000", hi-lo)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Errorf("q25 = %v, want 2", got)
	}
	// Interpolation between order statistics.
	if got := Quantile([]float64{0, 10}, 0.3); math.Abs(got-3) > 1e-12 {
		t.Errorf("interpolated q30 = %v, want 3", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Quantile mutated input: %v", xs)
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, -0.1) },
		func() { Quantile([]float64{1}, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("RelErr = %v, want 0.1", got)
	}
	if got := RelErr(0, 0); got != 0 {
		t.Errorf("RelErr(0,0) = %v, want 0", got)
	}
}
