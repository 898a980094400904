package protocol

import (
	"math"
	"testing"

	"repro/internal/faults"
	"repro/internal/stats"
)

func paperTs() []float64 {
	return []float64{1, 1, 2, 2, 2, 5, 5, 5, 5, 5, 10, 10, 10, 10, 10, 10}
}

func TestMessageComplexityIsLinear(t *testing.T) {
	// The paper: "The total number of messages sent by the above
	// protocol is O(n)". Ours is exactly 5n.
	for _, n := range []int{2, 4, 16} {
		ts := make([]float64, n)
		for i := range ts {
			ts[i] = float64(i + 1)
		}
		res, err := Run(Config{Trues: ts, Rate: 10, Jobs: 2000, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Messages != 5*n {
			t.Errorf("n=%d: %d messages, want %d", n, res.Messages, 5*n)
		}
	}
}

func TestMessagePhaseOrder(t *testing.T) {
	res, err := Run(Config{Trues: []float64{1, 2}, Rate: 4, Jobs: 1000, Seed: 2, RecordMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Net.Log) != res.Messages {
		t.Fatalf("log has %d entries for %d messages", len(res.Net.Log), res.Messages)
	}
	phaseOf := map[MessageKind]int{
		MsgRequestBid: 0, MsgBid: 0, // interleaved per agent
		MsgAssign: 1, MsgCompleted: 2, MsgPayment: 3,
	}
	last := 0
	for _, m := range res.Net.Log {
		p := phaseOf[m.Kind]
		if p < last {
			t.Fatalf("message %v out of phase order", m)
		}
		last = p
	}
}

func TestTruthfulRoundEstimatesConvergeToOracle(t *testing.T) {
	res, err := Run(Config{Trues: paperTs(), Rate: 20, Jobs: 200000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Execution-value estimates near the truth.
	for i, est := range res.Estimates {
		want := paperTs()[i]
		if math.Abs(est.Value-want)/want > 0.1 {
			t.Errorf("agent %d: estimate %v, want ~%v", i, est.Value, want)
		}
	}
	// Payments computed from estimates approach the oracle payments.
	for i := range res.Outcome.Payment {
		if stats.RelErr(res.Outcome.Payment[i], res.Oracle.Payment[i]) > 0.15 {
			t.Errorf("agent %d: payment %v vs oracle %v",
				i, res.Outcome.Payment[i], res.Oracle.Payment[i])
		}
	}
	// No truthful agent flagged as deviating.
	for i, v := range res.Verdicts {
		if v.Deviating {
			t.Errorf("truthful agent %d flagged: %+v", i, v)
		}
	}
}

func TestSlowExecutorIsCaughtAndPunished(t *testing.T) {
	strategies := make([]Strategy, 16)
	strategies[0] = FactorStrategy{BidFactor: 1, ExecFactor: 2} // True2 play
	res, err := Run(Config{
		Trues: paperTs(), Strategies: strategies,
		Rate: 20, Jobs: 100000, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verdicts[0].Deviating {
		t.Errorf("2x slowdown not detected: %+v", res.Verdicts[0])
	}
	for i := 1; i < 16; i++ {
		if res.Verdicts[i].Deviating {
			t.Errorf("honest agent %d flagged: %+v", i, res.Verdicts[i])
		}
	}
	// The deviator's utility (from estimated values) is below every
	// truthful counterfactual: compare to the truthful oracle round.
	truthRes, err := Run(Config{Trues: paperTs(), Rate: 20, Jobs: 100000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.Utility[0] >= truthRes.Outcome.Utility[0] {
		t.Errorf("slow executor utility %v not below truthful %v",
			res.Outcome.Utility[0], truthRes.Outcome.Utility[0])
	}
}

func TestLow2RoundGoesNegative(t *testing.T) {
	strategies := make([]Strategy, 16)
	strategies[0] = FactorStrategy{BidFactor: 0.5, ExecFactor: 2}
	res, err := Run(Config{
		Trues: paperTs(), Strategies: strategies,
		Rate: 20, Jobs: 150000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.Payment[0] >= 0 {
		t.Errorf("Low2 protocol payment = %v, want negative", res.Outcome.Payment[0])
	}
	if res.Outcome.Utility[0] >= 0 {
		t.Errorf("Low2 protocol utility = %v, want negative", res.Outcome.Utility[0])
	}
	if !res.Verdicts[0].Deviating {
		t.Error("Low2 deviator not flagged")
	}
}

func TestSilentAgentAborts(t *testing.T) {
	_, err := Run(Config{Trues: []float64{1, 2, 3}, Faults: faults.New(0, faults.Silent(1)), Rate: 5, Seed: 6})
	if err == nil {
		t.Fatal("expected error for silent agent")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Trues: []float64{1}, Rate: 5}); err == nil {
		t.Error("expected error for a single agent")
	}
	if _, err := Run(Config{Trues: []float64{1, 2}, Rate: 0}); err == nil {
		t.Error("expected error for zero rate")
	}
	if _, err := Run(Config{Trues: []float64{1, 2}, Rate: 5, Strategies: make([]Strategy, 1)}); err == nil {
		t.Error("expected error for strategy count mismatch")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() float64 {
		res, err := Run(Config{Trues: []float64{1, 2, 4}, Rate: 6, Jobs: 5000, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return res.Outcome.Payment[0]
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic protocol: %v vs %v", a, b)
	}
}

func TestMessageKindString(t *testing.T) {
	kinds := []MessageKind{MsgRequestBid, MsgBid, MsgAssign, MsgCompleted, MsgPayment, MessageKind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("kind %d has empty String", int(k))
		}
	}
}
