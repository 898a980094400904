package estimate

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/numeric"
	"repro/internal/workload"
)

// expDelays draws n exponential delays with mean tExec*x.
func expDelays(tExec, x float64, n int, seed uint64) []float64 {
	rng := numeric.NewRand(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = tExec * x * rng.ExpFloat64()
	}
	return out
}

func TestFromFlowDelaysRecoversValue(t *testing.T) {
	const tExec, x = 2.5, 4.0
	est, err := FromFlowDelays(expDelays(tExec, x, 50000, 1), x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Value-tExec)/tExec > 0.02 {
		t.Errorf("estimate = %v, want ~%v", est.Value, tExec)
	}
	if est.Lo > tExec || est.Hi < tExec {
		t.Errorf("CI (%v, %v) misses true value %v", est.Lo, est.Hi, tExec)
	}
	if est.N != 50000 {
		t.Errorf("N = %d", est.N)
	}
}

func TestFromFlowDelaysCICoverage(t *testing.T) {
	// ~95% of intervals should cover the truth.
	const tExec, x = 1.5, 3.0
	covered := 0
	const trials = 400
	for s := 0; s < trials; s++ {
		est, err := FromFlowDelays(expDelays(tExec, x, 400, uint64(s+10)), x)
		if err != nil {
			t.Fatal(err)
		}
		if est.Lo <= tExec && tExec <= est.Hi {
			covered++
		}
	}
	frac := float64(covered) / trials
	if frac < 0.90 || frac > 0.99 {
		t.Errorf("CI coverage = %v, want ~0.95", frac)
	}
}

func TestFromFlowDelaysErrors(t *testing.T) {
	if _, err := FromFlowDelays(nil, 1); err == nil {
		t.Error("expected error for empty sample")
	}
	if _, err := FromFlowDelays([]float64{1}, 0); err == nil {
		t.Error("expected error for zero rate")
	}
	if _, err := FromFlowDelays([]float64{1}, math.NaN()); err == nil {
		t.Error("expected error for NaN rate")
	}
}

func TestFromMM1SojournsRecoversServiceTime(t *testing.T) {
	// Simulate a real M/M/1 queue and invert the sojourn time.
	const mu, lambda = 3.0, 2.0
	rng := numeric.NewRand(21)
	res, err := cluster.Run(cluster.Config{
		Nodes:       cluster.QueueNodes([]float64{mu}),
		Probs:       []float64{1},
		Source:      workload.NewPoisson(lambda, 200000, workload.ExpSize{}, rng.Split()),
		RNG:         rng.Split(),
		KeepSamples: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	est, err := FromMM1Sojourns(res.PerNode[0].Latencies, lambda)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / mu
	if math.Abs(est.Value-want)/want > 0.05 {
		t.Errorf("estimated service time = %v, want ~%v", est.Value, want)
	}
}

func TestFromMM1SojournsErrors(t *testing.T) {
	if _, err := FromMM1Sojourns(nil, 1); err == nil {
		t.Error("expected error for empty sample")
	}
	if _, err := FromMM1Sojourns([]float64{1}, -1); err == nil {
		t.Error("expected error for negative rate")
	}
	if _, err := FromMM1Sojourns([]float64{0, 0}, 1); err == nil {
		t.Error("expected error for zero sojourns")
	}
}

func TestVerifyDetectsSlowExecution(t *testing.T) {
	const declared, actual, x = 1.0, 2.0, 4.0
	est, err := FromFlowDelays(expDelays(actual, x, 5000, 31), x)
	if err != nil {
		t.Fatal(err)
	}
	v := Verify(est, declared)
	if !v.Deviating {
		t.Errorf("failed to flag a 2x slowdown: %+v", v)
	}
	if v.ZScore <= 3 {
		t.Errorf("z-score %v should be large", v.ZScore)
	}
}

func TestVerifyAcceptsHonestExecution(t *testing.T) {
	const declared, x = 1.5, 4.0
	falsePositives := 0
	for s := 0; s < 200; s++ {
		est, err := FromFlowDelays(expDelays(declared, x, 1000, uint64(100+s)), x)
		if err != nil {
			t.Fatal(err)
		}
		if Verify(est, declared).Deviating {
			falsePositives++
		}
	}
	if falsePositives > 2 {
		t.Errorf("%d/200 false positives at z=3, want near 0", falsePositives)
	}
}

func TestVerifyZeroStdErr(t *testing.T) {
	v := Verify(Estimate{Value: 2, StdErr: 0}, 1)
	if !v.Deviating || !math.IsInf(v.ZScore, 1) {
		t.Errorf("degenerate slow case: %+v", v)
	}
	v = Verify(Estimate{Value: 1, StdErr: 0}, 1)
	if v.Deviating {
		t.Errorf("exact match flagged: %+v", v)
	}
	v = Verify(Estimate{Value: 0.5, StdErr: 0}, 1)
	if v.Deviating {
		t.Errorf("faster-than-declared flagged as deviating: %+v", v)
	}
	// The margin: a 4% excess is forgiven, a 6% one is not.
	if v = Verify(Estimate{Value: 1.04, StdErr: 0}, 1); v.Deviating {
		t.Errorf("excess inside the margin flagged: %+v", v)
	}
	if v = Verify(Estimate{Value: 1.06, StdErr: 0}, 1); !v.Deviating {
		t.Errorf("excess past the margin not flagged: %+v", v)
	}
}

// Regression: a NaN estimate produced a NaN z-score, every comparison
// against the threshold came back false, and the agent silently passed
// verification. Invalid inputs must yield an explicit invalid verdict
// that Flagged treats as an audit failure, never as a pass.
func TestVerifyInvalidInputs(t *testing.T) {
	cases := []struct {
		name     string
		est      Estimate
		declared float64
	}{
		{"nan value", Estimate{Value: math.NaN(), StdErr: 0.1}, 1},
		{"inf value", Estimate{Value: math.Inf(1), StdErr: 0.1}, 1},
		{"nan declared", Estimate{Value: 2, StdErr: 0.1}, math.NaN()},
		{"inf declared", Estimate{Value: 2, StdErr: 0.1}, math.Inf(1)},
		{"nan stderr", Estimate{Value: 2, StdErr: math.NaN()}, 1},
		{"negative stderr", Estimate{Value: 2, StdErr: -0.1}, 1},
	}
	for _, tc := range cases {
		v := Verify(tc.est, tc.declared)
		if !v.Invalid {
			t.Errorf("%s: verdict not invalid: %+v", tc.name, v)
		}
		if v.Deviating {
			t.Errorf("%s: invalid verdict must not claim deviation: %+v", tc.name, v)
		}
		if !math.IsNaN(v.ZScore) {
			t.Errorf("%s: z-score = %v, want NaN", tc.name, v.ZScore)
		}
		if !v.Flagged() {
			t.Errorf("%s: invalid verdict must be flagged", tc.name)
		}
	}
}

func TestVerdictFlagged(t *testing.T) {
	if (Verdict{}).Flagged() {
		t.Error("clean verdict flagged")
	}
	if !(Verdict{Deviating: true}).Flagged() {
		t.Error("deviating verdict not flagged")
	}
	if !(Verdict{Invalid: true}).Flagged() {
		t.Error("invalid verdict not flagged")
	}
	// Valid inputs still produce valid verdicts.
	if v := Verify(Estimate{Value: 2, StdErr: 0.1}, 1); v.Invalid || !v.Deviating {
		t.Errorf("valid slow case: %+v", v)
	}
}
