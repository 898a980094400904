// Package estimate makes the paper's verification assumption
// operational. The paper simply posits that "the processing rate with
// which the jobs were actually executed is known to the mechanism";
// here the mechanism *estimates* each computer's execution value ť
// from the per-job latencies it observes, with confidence intervals,
// and tests the estimate against the computer's declared value.
//
// There is one verification test, Verify, and one policy for it: an
// estimate fails when it exceeds the declaration by more than the
// margin (5%) at a one-sided z above zThreshold (3). The protocol
// round and the health control loop both call it.
package estimate

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/stats"
)

// Estimate is a point estimate of an execution value ť with a normal-
// approximation confidence interval.
type Estimate struct {
	// Value is the point estimate ť̂.
	Value float64
	// StdErr is the standard error of the point estimate.
	StdErr float64
	// N is the number of observations used.
	N int
	// Lo, Hi bound the 95% confidence interval.
	Lo, Hi float64
}

const z95 = 1.959963984540054

// FromFlowDelays estimates ť for a computer in the linear flow model
// from observed per-job delays. At allocated rate x each delay has
// mean ť*x, so ť̂ = mean(delay)/x.
func FromFlowDelays(delays []float64, x float64) (Estimate, error) {
	if len(delays) == 0 {
		return Estimate{}, errors.New("estimate: no observations")
	}
	if x <= 0 || math.IsNaN(x) {
		return Estimate{}, fmt.Errorf("estimate: invalid arrival rate %g", x)
	}
	var s stats.Summary
	s.AddAll(delays)
	v := s.Mean() / x
	se := s.StdErr() / x
	return Estimate{
		Value:  v,
		StdErr: se,
		N:      s.N(),
		Lo:     v - z95*se,
		Hi:     v + z95*se,
	}, nil
}

// FromMM1Sojourns estimates the mean service time 1/mu of an M/M/1
// computer from observed sojourn times at arrival rate x: the mean
// sojourn is 1/(mu-x), so the service-rate estimate inverts it.
// Successive sojourn times in a queue are strongly correlated, so the
// standard error of the mean sojourn is estimated with batch means
// (an i.i.d. standard error would make the interval under-cover
// badly) and then propagated through the inversion by the delta
// method.
func FromMM1Sojourns(sojourns []float64, x float64) (Estimate, error) {
	if len(sojourns) == 0 {
		return Estimate{}, errors.New("estimate: no observations")
	}
	if x < 0 || math.IsNaN(x) {
		return Estimate{}, fmt.Errorf("estimate: invalid arrival rate %g", x)
	}
	var w, seW float64
	if len(sojourns) >= 4 {
		var err error
		w, seW, err = stats.BatchMeans(sojourns, 0)
		if err != nil {
			return Estimate{}, err
		}
	} else {
		var s stats.Summary
		s.AddAll(sojourns)
		w, seW = s.Mean(), s.StdErr()
	}
	if w <= 0 {
		return Estimate{}, errors.New("estimate: non-positive mean sojourn")
	}
	mu := x + 1/w
	v := 1 / mu
	// dv/dw = 1/(w*mu)^2; propagate the batch-means standard error.
	dvdw := 1 / ((w * mu) * (w * mu))
	se := math.Abs(dvdw) * seW
	return Estimate{
		Value:  v,
		StdErr: se,
		N:      len(sojourns),
		Lo:     v - z95*se,
		Hi:     v + z95*se,
	}, nil
}

// Verdict is the outcome of testing an estimated execution value
// against a declared one.
type Verdict struct {
	// Estimated is the point estimate ť̂.
	Estimated float64
	// Declared is the value the computer bid.
	Declared float64
	// ZScore is (estimated - declared*(1+margin)) / stderr.
	ZScore float64
	// Deviating is true when the estimate exceeds the declaration by
	// more than the margin at a z above zThreshold — the computer
	// executed slower than it promised.
	Deviating bool
	// Invalid is true when the verdict could not be computed: the
	// estimate or declaration was NaN or infinite, or the standard
	// error was NaN or negative. An invalid verdict is never Deviating
	// (there is no evidence either way), but it must not be read as a
	// pass — use Flagged to treat both cases as audit failures.
	Invalid bool
}

// Flagged reports whether the verdict requires coordinator action:
// either the agent deviated, or the verification itself was fed
// invalid inputs and cannot vouch for the agent.
func (v Verdict) Flagged() bool { return v.Deviating || v.Invalid }

// isFinite reports whether f is neither NaN nor infinite.
func isFinite(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// The verification policy.
const (
	// zThreshold is the one-sided z a failing estimate must exceed
	// (~0.1% false positives per test).
	zThreshold = 3
	// margin is the practical-significance margin: only an excess over
	// declared*(1+margin) counts. With very large samples a
	// statistically significant excess can be operationally
	// meaningless (estimator bias under measurement faults is on the
	// order of the contamination fraction), so slowdowns under 5% are
	// not worth punishing.
	margin = 0.05
)

// Verify tests whether est exceeds declared*(1+margin) at a one-sided
// z above zThreshold. Only slower-than-declared execution counts as
// deviation, mirroring the paper's ť >= t assumption.
func Verify(est Estimate, declared float64) Verdict {
	v := Verdict{Estimated: est.Value, Declared: declared}
	threshold := declared * (1 + margin)
	// A NaN anywhere in the z-score makes every comparison below
	// false, so without this guard a NaN estimate would silently pass
	// verification. Surface it as an explicit invalid verdict instead.
	if !isFinite(est.Value) || !isFinite(threshold) ||
		math.IsNaN(est.StdErr) || est.StdErr < 0 {
		v.Invalid = true
		v.ZScore = math.NaN()
		return v
	}
	if est.StdErr > 0 {
		v.ZScore = (est.Value - threshold) / est.StdErr
	} else if est.Value != threshold {
		v.ZScore = math.Inf(1)
		if est.Value < threshold {
			v.ZScore = math.Inf(-1)
		}
	}
	v.Deviating = v.ZScore > zThreshold
	return v
}
