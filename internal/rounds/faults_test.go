package rounds

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/protocol"
)

func population(n int) []ComputerSpec {
	pop := make([]ComputerSpec, n)
	for i := range pop {
		pop[i] = ComputerSpec{True: 1 + 0.3*float64(i)}
	}
	return pop
}

// TestRetryRecoversSilentComputer: a permanently silent computer
// fails every strict attempt; the final retry tolerates dropouts and
// the round degrades to the responsive computers instead of aborting
// the simulation.
func TestRetryRecoversSilentComputer(t *testing.T) {
	res, err := Run(Config{
		Computers:  population(4),
		Rate:       8,
		Rounds:     2,
		Seed:       3,
		Faults:     faults.New(0, faults.Silent(1)),
		MaxRetries: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Records {
		if rec.Attempts != 2 {
			t.Fatalf("round %d took %d attempts, want 2", rec.Round, rec.Attempts)
		}
		if fmt.Sprint(rec.Dropouts) != "[1]" {
			t.Fatalf("round %d dropouts = %v", rec.Round, rec.Dropouts)
		}
	}
}

// TestVerdictMappingSurvivesDropouts: with a dropout shifting the
// protocol's positional indexing, a cheater must still be flagged
// under its population index.
func TestVerdictMappingSurvivesDropouts(t *testing.T) {
	pop := population(4)
	pop[3].Strategy = protocol.FactorStrategy{BidFactor: 1, ExecFactor: 2}
	res, err := Run(Config{
		Computers:    pop,
		Rate:         8,
		Rounds:       3,
		JobsPerRound: 4000,
		Seed:         5,
		Faults:       faults.New(0, faults.Silent(1)),
		MaxRetries:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	flags := map[int]int{}
	for _, rec := range res.Records {
		for _, idx := range rec.Flagged {
			flags[idx]++
		}
	}
	if flags[3] == 0 {
		t.Fatalf("cheater (computer 3) never flagged: %v", flags)
	}
	if flags[1] != 0 || flags[2] != 0 {
		t.Fatalf("honest or silent computers flagged: %v", flags)
	}
}

func TestFaultPlanThreadsThroughRounds(t *testing.T) {
	cfg := Config{
		Computers:  population(5),
		Rate:       10,
		Rounds:     4,
		Seed:       7,
		MaxRetries: 2,
		Faults:     faults.New(13, faults.Drop(0.08)),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lost, retried := 0, 0
	for _, rec := range res.Records {
		lost += rec.LostMessages
		if rec.Attempts > 1 {
			retried++
		}
	}
	if lost == 0 && retried == 0 {
		t.Fatal("drop plan left no trace (no losses, no retries) across 4 rounds")
	}
	// Determinism: the same config replays byte-identically.
	res2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Records {
		a, b := res.Records[i], res2.Records[i]
		if a.Attempts != b.Attempts || a.LostMessages != b.LostMessages ||
			fmt.Sprint(a.Dropouts) != fmt.Sprint(b.Dropouts) {
			t.Fatalf("round %d diverged between identical runs: %+v vs %+v", i, a, b)
		}
	}
	_ = retried
}

func TestCrashPlanExcludesComputerEveryRound(t *testing.T) {
	cfg := Config{
		Computers:  population(5),
		Rate:       10,
		Rounds:     3,
		Seed:       9,
		MaxRetries: 1,
		Faults:     faults.New(1, faults.Crash(4)),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Records {
		if fmt.Sprint(rec.Dropouts) != "[4]" {
			t.Fatalf("round %d dropouts = %v, want [4]", rec.Round, rec.Dropouts)
		}
	}
}

// TestFlapPlanCyclesSuspensionAndReturn: a flapping computer (period
// 4, duty 0.5 → stalled in rounds 0,1 mod 4) is flagged and suspended
// in its stalled phases, serves cleanly in its healthy phases after
// the ban expires, and is re-suspended when the bad phase comes back —
// the suspension/return cycle the per-round FlapPhase resolution
// exists to produce.
func TestFlapPlanCyclesSuspensionAndReturn(t *testing.T) {
	plan := faults.New(1, faults.Flap(4, 0.5, 3))
	res, err := Run(Config{
		Computers:    population(4),
		Rate:         8,
		Rounds:       16,
		JobsPerRound: 4000,
		Seed:         11,
		Policy:       Policy{Strikes: 1, BanRounds: 2},
		Faults:       plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Suspensions[3] < 2 {
		t.Fatalf("flapping computer suspended %d times, want >= 2 (suspend, return, re-suspend)", res.Suspensions[3])
	}
	activeHealthy, activeStalled := 0, 0
	for _, rec := range res.Records {
		active := false
		for _, a := range rec.Active {
			if a == 3 {
				active = true
			}
		}
		stalledPhase := faults.FlapStalled(plan, 3, rec.Round)
		if active && stalledPhase {
			activeStalled++
		}
		if active && !stalledPhase {
			activeHealthy++
			// A healthy-phase round must not flag the flapper.
			for _, f := range rec.Flagged {
				if f == 3 {
					t.Errorf("round %d (healthy phase) flagged the flapping computer", rec.Round)
				}
			}
		}
	}
	if activeHealthy == 0 {
		t.Fatal("flapping computer never returned to serve a healthy-phase round")
	}
	// Honest computers ride through every flap cycle unsuspended.
	for i := 0; i < 3; i++ {
		if res.Suspensions[i] != 0 {
			t.Errorf("honest computer %d suspended %d times", i, res.Suspensions[i])
		}
	}
}

// TestFaultPlanOutsidePopulationRejected: plan node ids are population
// indices, so a plan naming a computer the population does not have
// is a typed error rather than a fault-free simulation.
func TestFaultPlanOutsidePopulationRejected(t *testing.T) {
	var re *faults.RangeError
	_, err := Run(Config{
		Computers: population(4), Rate: 8, Rounds: 2, Seed: 3,
		Faults: faults.New(0, faults.Crash(9), faults.Byzantine(0, 4)),
	})
	if !errors.As(err, &re) || re.Node != 4 || re.N != 4 {
		t.Fatalf("err = %v, want node 4 outside [0, 4)", err)
	}
}
