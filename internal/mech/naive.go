package mech

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/numeric"
)

// NaiveCompensationBonus is the O(n^2) reference implementation of the
// paper's verification mechanism, kept verbatim from before the
// leave-one-out rewrite: per agent it re-solves the exclusion optimum
// on a freshly allocated value vector and re-sums the other n-1
// realized costs. It exists so differential tests and the benchmark
// baseline can compare the O(n) engine against the straightforward
// transcription of Definition 3.3, payment for payment. Production
// callers should use CompensationBonus.
type NaiveCompensationBonus struct {
	// Model is the latency model; the zero value uses LinearModel.
	Model Model
}

func (m NaiveCompensationBonus) model() Model {
	if m.Model == nil {
		return LinearModel{}
	}
	return m.Model
}

// Name implements Mechanism. It reports the same name as
// CompensationBonus: the two are the same mechanism, differently
// evaluated.
func (m NaiveCompensationBonus) Name() string { return CompensationBonus{}.Name() }

// Run implements Mechanism with the per-exclusion reference
// computation.
func (m NaiveCompensationBonus) Run(agents []Agent, rate float64) (*Outcome, error) {
	if len(agents) < 2 {
		return nil, ErrNeedTwoAgents
	}
	if err := validateAgents(agents, rate); err != nil {
		return nil, err
	}
	mdl := m.model()
	bids := Bids(agents)
	x, err := mdl.Alloc(bids, rate)
	if err != nil {
		return nil, err
	}
	o := newOutcome(m.Name(), mdl, ValuationPerJob, agents, rate, x)
	for i, a := range agents {
		lExcl, err := mdl.OptimalTotal(alloc.Exclude(bids, i), rate)
		if err != nil {
			return nil, fmt.Errorf("mech: exclusion optimum for agent %d: %w", i, err)
		}
		var others numeric.KahanSum
		for j := range agents {
			if j != i {
				others.Add(mdl.TotalCost(bids[j], x[j]))
			}
		}
		realized := mdl.TotalCost(a.Exec, x[i]) + others.Value()
		o.Compensation[i] = mdl.Latency(a.Exec, x[i])
		o.Bonus[i] = lExcl - realized
		o.Payment[i] = o.Compensation[i] + o.Bonus[i]
		o.Valuation[i] = -mdl.Latency(a.Exec, x[i])
		o.Utility[i] = o.Payment[i] + o.Valuation[i]
	}
	return o, nil
}

// StripFastPaths wraps a model so that only the base Model interface
// remains visible: the LeaveOneOutModel and InPlaceAllocator
// capabilities are hidden, forcing mechanisms onto the per-exclusion
// reference path. Differential tests use it to compare the O(n) fast
// path against the naive path on the same model.
func StripFastPaths(m Model) Model { return strippedModel{m} }

// strippedModel forwards the base Model methods only.
type strippedModel struct{ m Model }

func (s strippedModel) Name() string { return s.m.Name() }

func (s strippedModel) Alloc(values []float64, rate float64) ([]float64, error) {
	return s.m.Alloc(values, rate)
}

func (s strippedModel) Latency(value, x float64) float64 { return s.m.Latency(value, x) }

func (s strippedModel) TotalCost(value, x float64) float64 { return s.m.TotalCost(value, x) }

func (s strippedModel) OptimalTotal(values []float64, rate float64) (float64, error) {
	return s.m.OptimalTotal(values, rate)
}
