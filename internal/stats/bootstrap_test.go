package stats

import (
	"testing"

	"repro/internal/numeric"
)

func TestBootstrapMeanCI(t *testing.T) {
	rng := numeric.NewRand(101)
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = 50 + 5*rng.NormFloat64()
	}
	lo, hi := Bootstrap(xs, func(s []float64) float64 { return numeric.Mean(s) }, 2000, 0.05, rng)
	if lo > 50 || hi < 50 {
		t.Errorf("bootstrap CI (%v, %v) misses true mean 50", lo, hi)
	}
	if hi-lo > 2 {
		t.Errorf("bootstrap CI width %v implausibly wide", hi-lo)
	}
}

func TestBootstrapPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Bootstrap(nil, numeric.Mean, 10, 0.05, numeric.NewRand(1))
}
