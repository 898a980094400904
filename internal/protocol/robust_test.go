package protocol

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/stats"
)

func TestRobustEstimatorSurvivesStalls(t *testing.T) {
	// Node 0's monitoring stalls on 2% of observations. The mean
	// estimator inflates its execution-value estimate (wrongly flags
	// an honest agent and mis-pays it); the median estimator shrugs.
	base := Config{
		Trues:  []float64{1, 2, 4, 8},
		Rate:   8,
		Jobs:   80000,
		Seed:   21,
		Faults: faults.New(0, faults.Stall(500, 50, 0)),
	}

	meanCfg := base
	meanRes, err := Run(meanCfg)
	if err != nil {
		t.Fatal(err)
	}
	robustCfg := base
	robustCfg.RobustEstimator = true
	robustRes, err := Run(robustCfg)
	if err != nil {
		t.Fatal(err)
	}

	meanErr := stats.RelErr(meanRes.Estimates[0].Value, 1)
	robustErr := stats.RelErr(robustRes.Estimates[0].Value, 1)
	if robustErr >= meanErr {
		t.Errorf("robust estimate error %v should beat mean %v under stalls",
			robustErr, meanErr)
	}
	if robustErr > 0.05 {
		t.Errorf("robust estimate error %v too large", robustErr)
	}
	// The contaminated mean estimator flags the honest node; the
	// robust one does not.
	if !meanRes.Verdicts[0].Deviating {
		t.Error("expected the contaminated mean estimator to wrongly flag node 0")
	}
	if robustRes.Verdicts[0].Deviating {
		t.Errorf("robust estimator wrongly flagged node 0: %+v", robustRes.Verdicts[0])
	}
	// And the robust payments track the oracle.
	if e := stats.RelErr(robustRes.Outcome.Payment[0], robustRes.Oracle.Payment[0]); e > 0.1 {
		t.Errorf("robust payment error %v", e)
	}
}

func TestRobustEstimatorStillCatchesRealDeviators(t *testing.T) {
	strategies := make([]Strategy, 4)
	strategies[0] = FactorStrategy{BidFactor: 1, ExecFactor: 2}
	res, err := Run(Config{
		Trues:           []float64{1, 2, 4, 8},
		Strategies:      strategies,
		Rate:            8,
		Jobs:            80000,
		Seed:            22,
		RobustEstimator: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verdicts[0].Deviating {
		t.Errorf("robust estimator missed a 2x slowdown: %+v", res.Verdicts[0])
	}
	for i := 1; i < 4; i++ {
		if res.Verdicts[i].Deviating {
			t.Errorf("honest node %d flagged: %+v", i, res.Verdicts[i])
		}
	}
}
