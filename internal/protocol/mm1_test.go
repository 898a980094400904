package protocol

import (
	"errors"
	"math"
	"testing"

	"repro/internal/faults"
	"repro/internal/mech"
	"repro/internal/obs"
	"repro/internal/stats"
)

// mm1Trues are mean service times for four M/M/1 computers with
// service rates 10, 5, 2.5 and 2 (total capacity 19.5 jobs/s). At
// rate 6 every exclusion subsystem is feasible.
func mm1Trues() []float64 { return []float64{0.1, 0.2, 0.4, 0.5} }

func TestRunMM1TruthfulRound(t *testing.T) {
	res, err := Run(Config{Model: mech.MM1Model{}, Trues: mm1Trues(), Rate: 6, Jobs: 200000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 5*4 {
		t.Errorf("messages = %d, want 20", res.Messages)
	}
	// Estimated mean service times converge to the truth. Computers
	// left unused by the KKT optimum observe no jobs and fall back to
	// the bid, which for a truthful agent is also correct.
	for i, est := range res.Estimates {
		want := mm1Trues()[i]
		if stats.RelErr(est.Value, want) > 0.1 {
			t.Errorf("agent %d: estimate %v, want ~%v (n=%d)", i, est.Value, want, est.N)
		}
	}
	// No false deviation flags.
	for i, v := range res.Verdicts {
		if v.Deviating {
			t.Errorf("truthful agent %d flagged: %+v", i, v)
		}
	}
	// Payments converge to the oracle.
	for i := range res.Outcome.Payment {
		if stats.RelErr(res.Outcome.Payment[i], res.Oracle.Payment[i]) > 0.1 {
			t.Errorf("agent %d payment %v vs oracle %v",
				i, res.Outcome.Payment[i], res.Oracle.Payment[i])
		}
	}
}

func TestRunMM1SlowServerCaught(t *testing.T) {
	strategies := make([]Strategy, 4)
	// C1 claims service time 0.1 but actually serves at 0.15 (i.e. it
	// runs at 2/3 of its declared rate).
	strategies[0] = FactorStrategy{BidFactor: 1, ExecFactor: 1.5}
	res, err := Run(Config{
		Model: mech.MM1Model{}, Trues: mm1Trues(), Strategies: strategies,
		Rate: 6, Jobs: 200000, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verdicts[0].Deviating {
		t.Errorf("slow M/M/1 server not flagged: %+v", res.Verdicts[0])
	}
	// And the verification payments punish it relative to truthful play.
	truth, err := Run(Config{Model: mech.MM1Model{}, Trues: mm1Trues(), Rate: 6, Jobs: 200000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.Utility[0] >= truth.Outcome.Utility[0] {
		t.Errorf("slow server utility %v not below truthful %v",
			res.Outcome.Utility[0], truth.Outcome.Utility[0])
	}
}

func TestRunMM1Validation(t *testing.T) {
	if _, err := Run(Config{Model: mech.MM1Model{}, Trues: []float64{0.1}, Rate: 1}); err == nil {
		t.Error("expected error for single agent")
	}
	if _, err := Run(Config{Model: mech.MM1Model{}, Trues: mm1Trues(), Rate: 0}); err == nil {
		t.Error("expected error for zero rate")
	}
	// Infeasible rate (capacity 19.5).
	if _, err := Run(Config{Model: mech.MM1Model{}, Trues: mm1Trues(), Rate: 25, Jobs: 100}); err == nil {
		t.Error("expected error for infeasible rate")
	}
}

func TestRunMM1QueueingNoiseWiderThanFlow(t *testing.T) {
	// Sanity on the estimator: sojourn-inversion has finite standard
	// errors and the reported CI covers the truth for most agents.
	res, err := Run(Config{Model: mech.MM1Model{}, Trues: mm1Trues(), Rate: 6, Jobs: 100000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for i, est := range res.Estimates {
		if est.N == 0 {
			covered++ // bid fallback is exact for truthful agents
			continue
		}
		if math.IsNaN(est.StdErr) || est.StdErr <= 0 {
			t.Errorf("agent %d: bad stderr %v", i, est.StdErr)
		}
		if est.Lo <= mm1Trues()[i] && mm1Trues()[i] <= est.Hi {
			covered++
		}
	}
	if covered < 3 {
		t.Errorf("only %d/4 CIs cover the truth", covered)
	}
}

// TestMM1RoundHonoursFaultPlan: the M/M/1 round runs the same bid
// phase as the linear one, so a drop plan loses messages there too.
func TestMM1RoundHonoursFaultPlan(t *testing.T) {
	res, err := Run(Config{
		Model: mech.MM1Model{}, Trues: mm1Trues(), Rate: 6, Jobs: 20000, Seed: 4,
		AllowDropouts: true, Faults: faults.New(2, faults.Drop(0.15)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost == 0 {
		t.Fatalf("drop plan lost nothing: %d messages", res.Messages)
	}
	if len(res.Active)+len(res.Dropped) != 4 {
		t.Fatalf("active %v + dropped %v != 4 agents", res.Active, res.Dropped)
	}
}

// TestMM1MarginUnflagsDeviator: the verification policy applies to
// M/M/1 verdicts. C1 serves 1.5x slower than it bid, far past the 5%
// margin, and is flagged.
func TestMM1MarginUnflagsDeviator(t *testing.T) {
	strategies := make([]Strategy, 4)
	strategies[0] = FactorStrategy{BidFactor: 1, ExecFactor: 1.5}
	res, err := Run(Config{
		Model: mech.MM1Model{}, Trues: mm1Trues(), Strategies: strategies,
		Rate: 6, Jobs: 50000, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verdicts[0].Deviating {
		t.Fatalf("slow server not flagged: %+v", res.Verdicts[0])
	}
}

// TestMM1RoundReportsToObserver: an M/M/1 round emits the same
// round-ok trace event as a linear one.
func TestMM1RoundReportsToObserver(t *testing.T) {
	ob := obs.New(0)
	if _, err := Run(Config{Model: mech.MM1Model{}, Trues: mm1Trues(), Rate: 6, Jobs: 5000, Seed: 1, Obs: ob}); err != nil {
		t.Fatal(err)
	}
	for _, ev := range ob.Trace.Events() {
		if ev.Layer == "protocol" && ev.Kind == "round-ok" {
			return
		}
	}
	t.Fatalf("no round-ok event in %+v", ob.Trace.Events())
}

// quadModel is a latency model the round has no simulated computer
// for.
type quadModel struct{ mech.LinearModel }

func (quadModel) Name() string { return "quad" }

// TestModelErrors: the round runs the linear and M/M/1 models only.
func TestModelErrors(t *testing.T) {
	var me *ModelError
	_, err := Run(Config{Model: quadModel{}, Trues: mm1Trues(), Rate: 6})
	if !errors.As(err, &me) || me.Model != "quad" {
		t.Errorf("unsupported model: %v", err)
	}
}
