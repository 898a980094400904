package stats

import (
	"math"
	"testing"

	"repro/internal/numeric"
)

func TestBatchMeansIIDMatchesNaive(t *testing.T) {
	rng := numeric.NewRand(1)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = 3 + rng.NormFloat64()
	}
	mean, se, err := BatchMeans(xs, 50)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-3) > 0.05 {
		t.Errorf("mean = %v, want ~3", mean)
	}
	// For i.i.d. data the batch-means SE agrees with the naive SE
	// (1/sqrt(10000) = 0.01) up to batching noise.
	if se < 0.005 || se > 0.02 {
		t.Errorf("iid batch-means SE = %v, want ~0.01", se)
	}
}

// ar1 generates an AR(1) series with the given autocorrelation.
func ar1(n int, rho float64, rng *numeric.Rand) []float64 {
	xs := make([]float64, n)
	x := 0.0
	scale := math.Sqrt(1 - rho*rho)
	for i := range xs {
		x = rho*x + scale*rng.NormFloat64()
		xs[i] = x
	}
	return xs
}

func TestBatchMeansWidensForCorrelatedSeries(t *testing.T) {
	rng := numeric.NewRand(7)
	xs := ar1(20000, 0.9, rng)
	_, seBatch, err := BatchMeans(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	var s Summary
	s.AddAll(xs)
	seNaive := s.StdErr()
	// AR(1) with rho=0.9 has variance inflation (1+rho)/(1-rho) = 19;
	// the batch-means SE must be several times the naive one.
	if seBatch < 2*seNaive {
		t.Errorf("batch SE %v did not widen vs naive %v for correlated data",
			seBatch, seNaive)
	}
}

func TestBatchMeansCoverageOnAR1(t *testing.T) {
	// ~95% of batch-means intervals must cover the true mean 0 of an
	// AR(1) process — the property the naive interval fails.
	covered, naiveCovered := 0, 0
	const trials = 200
	for s := 0; s < trials; s++ {
		rng := numeric.NewRand(uint64(100 + s))
		xs := ar1(4000, 0.8, rng)
		mean, se, err := BatchMeans(xs, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(mean) <= 1.96*se {
			covered++
		}
		var sum Summary
		sum.AddAll(xs)
		if math.Abs(sum.Mean()) <= 1.96*sum.StdErr() {
			naiveCovered++
		}
	}
	frac := float64(covered) / trials
	if frac < 0.85 {
		t.Errorf("batch-means coverage = %v, want >= 0.85", frac)
	}
	if naiveCovered >= covered {
		t.Errorf("naive coverage %d should be below batch-means %d on correlated data",
			naiveCovered, covered)
	}
}

func TestBatchMeansErrors(t *testing.T) {
	if _, _, err := BatchMeans([]float64{1, 2, 3}, 2); err == nil {
		t.Error("expected error for tiny sample")
	}
}

func TestBatchMeansAutoBatching(t *testing.T) {
	rng := numeric.NewRand(3)
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	mean, se, err := BatchMeans(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if se <= 0 {
		t.Errorf("se = %v", se)
	}
	if math.Abs(mean-0.5) > 0.1 {
		t.Errorf("mean = %v", mean)
	}
}

func TestQueueSojournsAreCorrelated(t *testing.T) {
	// The fact motivating batch means: consecutive M/M/1 sojourns have
	// an integrated autocorrelation time tau substantially above 1 at
	// moderate utilization. The squared ratio of the batch-means SE to
	// the naive i.i.d. SE estimates tau.
	// (Generated here via an AR-like queue recursion using Lindley's
	// equation: W_{n+1} = max(0, W_n + S_n - A_n).)
	rng := numeric.NewRand(7)
	const mu, lambda = 1.0, 0.7
	w := 0.0
	sojourns := make([]float64, 60000)
	for i := range sojourns {
		s := rng.ExpFloat64() / mu
		sojourns[i] = w + s
		a := rng.ExpFloat64() / lambda
		w = math.Max(0, w+s-a)
	}
	_, seBatch, err := BatchMeans(sojourns, 0)
	if err != nil {
		t.Fatal(err)
	}
	var s Summary
	s.AddAll(sojourns)
	if tau := math.Pow(seBatch/s.StdErr(), 2); tau < 3 {
		t.Errorf("queue sojourn tau = %v, expected substantial correlation", tau)
	}
}
