package mech

// Conformance suite: a single invariant harness run against every
// mechanism and model combination. Each case checks the structural
// contracts any outcome must satisfy regardless of mechanism —
// feasible allocation, consistent decompositions, convention-tagged
// valuations — plus the incentive properties the mechanism claims.

import (
	"math"
	"testing"

	"repro/internal/numeric"
)

// conformanceCase describes one mechanism under test.
type conformanceCase struct {
	name string
	m    Mechanism
	// truthfulInBids: unilateral misreports with full-capacity
	// execution never beat truth.
	truthfulInBids bool
	// truthfulInExec: unilateral slow execution (with truthful bid)
	// never beats full capacity.
	truthfulInExec bool
	// ir: truthful play yields nonnegative utility.
	ir bool
	// values/rate for the population (model-appropriate).
	values []float64
	rate   float64
}

func conformanceCases() []conformanceCase {
	linear := []float64{1, 2, 5, 10}
	mm1 := []float64{0.1, 0.2, 0.4, 0.5} // capacities 10,5,2.5,2; rate must stay below every exclusion
	return []conformanceCase{
		{"verification/linear", CompensationBonus{}, true, true, true, linear, 8},
		{"verification/mm1", CompensationBonus{Model: MM1Model{}}, true, true, true, mm1, 6},
		{"noverification/linear", BidCompensationBonus{}, false, true, true, linear, 8},
		{"vcg/linear", VCG{}, true, true, true, linear, 8},
		{"archertardos/linear", ArcherTardos{}, true, true, true, linear, 8},
		{"classical/linear", Classical{}, false, true, false, linear, 8},
	}
}

func TestConformance(t *testing.T) {
	for _, c := range conformanceCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			agents := Truthful(c.values)
			truth, err := c.m.Run(agents, c.rate)
			if err != nil {
				t.Fatalf("truthful run: %v", err)
			}
			checkStructure(t, truth, c.rate)

			if c.ir {
				for i, u := range truth.Utility {
					if u < -1e-6 {
						t.Errorf("IR violated: truthful agent %d utility %v", i, u)
					}
				}
			}

			// Bid deviations at full capacity.
			bidFactors := []float64{0.7, 0.9, 1.2, 1.6}
			anyBidGain := false
			for _, bf := range bidFactors {
				dev := Truthful(c.values)
				dev[0].Bid = bf * dev[0].True
				o, err := c.m.Run(dev, c.rate)
				if err != nil {
					continue
				}
				checkStructure(t, o, c.rate)
				if o.Utility[0] > truth.Utility[0]+1e-6 {
					anyBidGain = true
				}
			}
			if c.truthfulInBids && anyBidGain {
				t.Error("profitable bid misreport found for a mechanism claiming bid-truthfulness")
			}
			if !c.truthfulInBids && !anyBidGain {
				t.Error("no profitable misreport found for a mechanism known to be manipulable")
			}

			// Execution deviations with truthful bid.
			for _, ef := range []float64{1.3, 2} {
				dev := Truthful(c.values)
				dev[0].Exec = ef * dev[0].True
				o, err := c.m.Run(dev, c.rate)
				if err != nil {
					continue
				}
				checkStructure(t, o, c.rate)
				if c.truthfulInExec && o.Utility[0] > truth.Utility[0]+1e-6 {
					t.Errorf("profitable slow execution (factor %v)", ef)
				}
			}
		})
	}
}

// checkStructure verifies the universal outcome contracts.
func checkStructure(t *testing.T, o *Outcome, rate float64) {
	t.Helper()
	var sum numeric.KahanSum
	for i, x := range o.Alloc {
		if x < 0 || math.IsNaN(x) {
			t.Fatalf("alloc[%d] = %v", i, x)
		}
		sum.Add(x)
	}
	if math.Abs(sum.Value()-rate) > 1e-6*(1+rate) {
		t.Fatalf("allocation sums to %v, want %v", sum.Value(), rate)
	}
	n := len(o.Alloc)
	for _, s := range [][]float64{o.Compensation, o.Bonus, o.Payment, o.Valuation, o.Utility} {
		if len(s) != n {
			t.Fatalf("outcome slices have inconsistent lengths")
		}
	}
	for i := range o.Utility {
		if !numeric.AlmostEqual(o.Utility[i], o.Payment[i]+o.Valuation[i], 1e-9, 1e-9) {
			t.Errorf("utility[%d] != payment + valuation", i)
		}
		if o.Valuation[i] > 0 {
			t.Errorf("valuation[%d] = %v should be nonpositive (a cost)", i, o.Valuation[i])
		}
		if math.IsNaN(o.Payment[i]) || math.IsInf(o.Payment[i], 0) {
			t.Errorf("payment[%d] = %v", i, o.Payment[i])
		}
	}
	if o.Kind != ValuationPerJob && o.Kind != ValuationTotalLatency {
		t.Errorf("outcome kind %q unset", o.Kind)
	}
	if math.IsNaN(o.RealLatency) || math.IsNaN(o.BidLatency) {
		t.Error("latency aggregates are NaN")
	}
}

// Scale covariance properties of the linear model: scaling all values
// by c leaves the allocation unchanged; scaling the rate by a scales
// the allocation by a.
func TestLinearModelScaleProperties(t *testing.T) {
	model := LinearModel{}
	base := []float64{1, 2, 5, 10}
	x1, err := model.Alloc(base, 8)
	if err != nil {
		t.Fatal(err)
	}
	scaled := make([]float64, len(base))
	for i, v := range base {
		scaled[i] = 3 * v
	}
	x2, err := model.Alloc(scaled, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if !numeric.AlmostEqual(x1[i], x2[i], 1e-12, 1e-15) {
			t.Errorf("allocation not scale-invariant at %d", i)
		}
	}
	x3, err := model.Alloc(base, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if !numeric.AlmostEqual(2*x1[i], x3[i], 1e-12, 1e-15) {
			t.Errorf("allocation not rate-linear at %d", i)
		}
	}
	// Latency scales as c under value scaling and as a^2 under rate
	// scaling.
	l1, err := model.OptimalTotal(base, 8)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := model.OptimalTotal(scaled, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(l2, 3*l1, 1e-12, 1e-12) {
		t.Errorf("latency not value-homogeneous: %v vs %v", l2, 3*l1)
	}
	l3, err := model.OptimalTotal(base, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(l3, 4*l1, 1e-12, 1e-12) {
		t.Errorf("latency not rate-quadratic: %v vs %v", l3, 4*l1)
	}
}
