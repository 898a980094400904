package rounds

import (
	"math"
	"testing"

	"repro/internal/alloc"
	"repro/internal/faults"
	"repro/internal/protocol"
)

// churnConfig is a scenario exercising every membership transition:
// joins, leaves, suspensions (a persistent deviator), ban expiry and
// a leave during a ban window.
func churnConfig() Config {
	return Config{
		Computers: []ComputerSpec{
			{True: 1},
			{True: 2, Strategy: protocol.FactorStrategy{BidFactor: 1, ExecFactor: 2.5}},
			{True: 2},
			{True: 5, JoinRound: 4},
			{True: 5, JoinRound: 2, LeaveRound: 9},
			{True: 10},
			{True: 10, JoinRound: 6, LeaveRound: 12},
		},
		Rate:         4,
		Rounds:       14,
		JobsPerRound: 800,
		Seed:         7,
		Policy:       Policy{Strikes: 2, BanRounds: 3, ForgiveAfter: 6},
	}
}

// TestEngineMatchesRunBaseline locks the engine to the from-scratch
// semantics: one Engine reused across heterogeneous simulations must
// reproduce a fresh Run record for record.
func TestEngineMatchesRunBaseline(t *testing.T) {
	faulty := churnConfig()
	faulty.Faults = faults.New(3, faults.Drop(0.03))
	faulty.MaxRetries = 2
	small := Config{
		Computers: []ComputerSpec{{True: 1}, {True: 3}, {True: 9}},
		Rate:      2, Rounds: 4, JobsPerRound: 500, Seed: 99,
	}
	eng := NewEngine()
	for ci, cfg := range []Config{churnConfig(), faulty, small} {
		got, err := eng.Run(cfg)
		if err != nil {
			t.Fatalf("config %d: engine: %v", ci, err)
		}
		want, err := Run(cfg)
		if err != nil {
			t.Fatalf("config %d: baseline: %v", ci, err)
		}
		if len(got.Records) != len(want.Records) {
			t.Fatalf("config %d: %d records, want %d", ci, len(got.Records), len(want.Records))
		}
		for r := range want.Records {
			g, w := got.Records[r], want.Records[r]
			if !equalInts(g.Active, w.Active) || !equalInts(g.Suspended, w.Suspended) ||
				!equalInts(g.Flagged, w.Flagged) || !equalInts(g.Dropouts, w.Dropouts) {
				t.Errorf("config %d round %d: rosters differ:\n got %+v\nwant %+v", ci, r, g, w)
			}
			if g.Latency != w.Latency || g.OptLatency != w.OptLatency ||
				g.TotalPayment != w.TotalPayment || g.Attempts != w.Attempts ||
				g.LostMessages != w.LostMessages {
				t.Errorf("config %d round %d: values differ:\n got %+v\nwant %+v", ci, r, g, w)
			}
		}
		for i := range want.Strikes {
			if got.Strikes[i] != want.Strikes[i] || got.Suspensions[i] != want.Suspensions[i] {
				t.Errorf("config %d: computer %d strikes/suspensions %d/%d, want %d/%d",
					ci, i, got.Strikes[i], got.Suspensions[i], want.Strikes[i], want.Suspensions[i])
			}
		}
	}
}

// TestStreamOptimaMatchScratch is the drift guard for the incremental
// churn state: every round's stream-derived optimum must agree with a
// from-scratch PR optimum over the computers that actually served, to
// within float roundoff, across a long churn-heavy run.
func TestStreamOptimaMatchScratch(t *testing.T) {
	cfg := churnConfig()
	cfg.Rounds = 40
	cfg.Faults = faults.New(5, faults.Drop(0.05))
	cfg.MaxRetries = 1
	res, err := NewEngine().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != cfg.Rounds {
		t.Fatalf("got %d records", len(res.Records))
	}
	sawChurn := false
	for _, rec := range res.Records {
		if len(rec.Suspended) > 0 || len(rec.Dropouts) > 0 {
			sawChurn = true
		}
		dropped := make(map[int]bool, len(rec.Dropouts))
		for _, i := range rec.Dropouts {
			dropped[i] = true
		}
		var ts []float64
		for _, i := range rec.Active {
			if !dropped[i] {
				ts = append(ts, cfg.Computers[i].True)
			}
		}
		want, err := alloc.OptimalLatencyLinear(ts, cfg.Rate)
		if err != nil {
			t.Fatalf("round %d: %v", rec.Round, err)
		}
		if diff := math.Abs(rec.OptLatency - want); diff > 1e-9*want {
			t.Errorf("round %d: OptLatency = %v, scratch = %v (drift %g)",
				rec.Round, rec.OptLatency, want, diff)
		}
	}
	if !sawChurn {
		t.Error("scenario exercised no suspensions or dropouts; drift guard is vacuous")
	}
}

// TestSteadyStateRoundsDoNotAllocate pins the engine's scratch reuse:
// after warm-up, a full steady-state simulation through a reused
// engine must do (near-)zero heap allocation per round.
func TestSteadyStateRoundsDoNotAllocate(t *testing.T) {
	cfg := Config{
		Computers: []ComputerSpec{
			{True: 1}, {True: 1}, {True: 2}, {True: 2}, {True: 2},
			{True: 5}, {True: 5}, {True: 10}, {True: 10}, {True: 10},
		},
		Rate:         5,
		Rounds:       20,
		JobsPerRound: 300,
		Seed:         1,
	}
	eng := NewEngine()
	if _, err := eng.Run(cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := eng.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	perRound := allocs / float64(cfg.Rounds)
	if perRound > 1 {
		t.Errorf("steady-state simulation allocated %.1f times per Run (%.2f per round), want < 1 per round",
			allocs, perRound)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
