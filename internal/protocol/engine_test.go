package protocol

import (
	"math"
	"testing"

	"repro/internal/faults"
)

// TestEngineReuseMatchesFreshRuns drives one Engine through several
// heterogeneous rounds (different populations, strategies, faults) and
// checks every observable against a fresh one-shot Run: scratch reuse
// must never leak state across rounds.
func TestEngineReuseMatchesFreshRuns(t *testing.T) {
	configs := []Config{
		{
			Trues: []float64{1, 2, 5, 10},
			Rate:  3, Jobs: 2000, Seed: 11,
		},
		{
			Trues:      []float64{2, 2, 2},
			Strategies: []Strategy{FactorStrategy{BidFactor: 1.5, ExecFactor: 1}, nil, nil},
			Rate:       2, Jobs: 1500, Seed: 22,
		},
		{
			Trues: []float64{1, 1, 4, 4, 6},
			Rate:  4, Jobs: 1800, Seed: 33,
			AllowDropouts: true,
			Faults:        faults.New(7, faults.Drop(0.02), faults.Stall(500, 9, 2)),
		},
		{ // shrink back down: stale capacity from round 3 must not show
			Trues: []float64{3, 9},
			Rate:  1, Jobs: 1000, Seed: 44, RecordMessages: true,
		},
	}
	eng := NewEngine()
	for ci, cfg := range configs {
		got, err := eng.Run(cfg)
		if err != nil {
			t.Fatalf("config %d: engine run: %v", ci, err)
		}
		want, err := Run(cfg)
		if err != nil {
			t.Fatalf("config %d: fresh run: %v", ci, err)
		}
		if got.Messages != want.Messages || got.Lost != want.Lost {
			t.Errorf("config %d: messages %d/%d, want %d/%d",
				ci, got.Messages, got.Lost, want.Messages, want.Lost)
		}
		if len(got.Active) != len(want.Active) || len(got.Dropped) != len(want.Dropped) {
			t.Fatalf("config %d: membership mismatch: %v/%v vs %v/%v",
				ci, got.Active, got.Dropped, want.Active, want.Dropped)
		}
		for i := range want.Active {
			if got.Active[i] != want.Active[i] {
				t.Errorf("config %d: active[%d] = %d, want %d", ci, i, got.Active[i], want.Active[i])
			}
		}
		for i := range want.Estimates {
			if got.Estimates[i] != want.Estimates[i] {
				t.Errorf("config %d: estimate[%d] = %+v, want %+v",
					ci, i, got.Estimates[i], want.Estimates[i])
			}
			if got.Verdicts[i] != want.Verdicts[i] {
				t.Errorf("config %d: verdict[%d] = %+v, want %+v",
					ci, i, got.Verdicts[i], want.Verdicts[i])
			}
			if got.Outcome.Payment[i] != want.Outcome.Payment[i] {
				t.Errorf("config %d: payment[%d] = %v, want %v",
					ci, i, got.Outcome.Payment[i], want.Outcome.Payment[i])
			}
			if got.Oracle.Payment[i] != want.Oracle.Payment[i] {
				t.Errorf("config %d: oracle payment[%d] = %v, want %v",
					ci, i, got.Oracle.Payment[i], want.Oracle.Payment[i])
			}
		}
		if got.Sim.MeanResponse != want.Sim.MeanResponse ||
			math.Abs(got.Sim.TotalLatencyRate-want.Sim.TotalLatencyRate) != 0 {
			t.Errorf("config %d: sim %v/%v, want %v/%v", ci,
				got.Sim.MeanResponse, got.Sim.TotalLatencyRate,
				want.Sim.MeanResponse, want.Sim.TotalLatencyRate)
		}
		if len(got.Net.Log) != len(want.Net.Log) {
			t.Errorf("config %d: log length %d, want %d", ci, len(got.Net.Log), len(want.Net.Log))
		}
	}
}
