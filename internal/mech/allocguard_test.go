//go:build !race

package mech

// Allocation guards for the linear-model hot path. These use
// testing.AllocsPerRun, whose counts shift under the race detector's
// instrumented allocator, so the file is excluded from -race runs (the
// differential tests in diff_test.go cover correctness under -race).

import "testing"

func TestCompensationBonusAllocsO1(t *testing.T) {
	agents := benchAgents(1000)
	// CompensationBonus.Run allocates one Outcome, its six per-agent
	// slices and the engine scratch slices — a constant number of
	// allocations regardless of n. The naive path allocates ~n slices
	// (one exclusion copy per agent). Guard the O(1) property with
	// headroom for incidental runtime allocations.
	const maxAllocs = 24
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := (CompensationBonus{}).Run(agents, 500); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxAllocs {
		t.Errorf("CompensationBonus.Run: %.0f allocs/run for n=1000, want <= %d (O(1) slices)", allocs, maxAllocs)
	}
}

func TestEngineSteadyStateZeroAllocs(t *testing.T) {
	agents := benchAgents(1000)
	eng := NewEngine(CompensationBonus{})
	// Warm up so the outcome and scratch buffers reach capacity.
	if _, err := eng.Run(agents, 500); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := eng.Run(agents, 500); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("Engine.Run steady state: %.0f allocs/run, want 0", allocs)
	}
}
