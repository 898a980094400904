package distmech

import (
	"math"
	"testing"

	"repro/internal/faults"
	"repro/internal/mech"
	"repro/internal/numeric"
)

func paperTs() []float64 {
	return []float64{1, 1, 2, 2, 2, 5, 5, 5, 5, 5, 10, 10, 10, 10, 10, 10}
}

func TestTopologies(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16} {
		for _, tr := range []Topology{Star(n), Chain(n), Binary(n)} {
			if err := tr.Validate(); err != nil {
				t.Errorf("n=%d: %v", n, err)
			}
			if tr.N() != n {
				t.Errorf("N = %d, want %d", tr.N(), n)
			}
		}
	}
	if Star(5).Depth() != 1 {
		t.Errorf("star depth = %d", Star(5).Depth())
	}
	if Chain(5).Depth() != 4 {
		t.Errorf("chain depth = %d", Chain(5).Depth())
	}
	if d := Binary(7).Depth(); d != 2 {
		t.Errorf("binary(7) depth = %d", d)
	}
}

func TestTopologyValidation(t *testing.T) {
	bad := []Topology{
		{Parent: nil},
		{Parent: []int{0}},        // root must have parent -1
		{Parent: []int{-1, 5}},    // out of range
		{Parent: []int{-1, 1}},    // self-parent
		{Parent: []int{-1, 2, 1}}, // cycle 1<->2
	}
	for i, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestDistributedMatchesCentralized(t *testing.T) {
	// The distributed round must produce exactly the centralized
	// mechanism's allocations and payments, on every topology.
	agents := mech.Truthful(paperTs())
	agents[0].Bid, agents[0].Exec = 0.5, 2 // Low2 deviation at the root
	central, err := mech.CompensationBonus{}.Run(agents, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []Topology{Star(16), Chain(16), Binary(16)} {
		res, err := Run(Config{Tree: tr, Agents: agents, Rate: 20})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.S-6.1) > 1e-9 {
			t.Errorf("S = %v, want 6.1", res.S)
		}
		for i := range agents {
			if !numeric.AlmostEqual(res.Alloc[i], central.Alloc[i], 1e-9, 1e-12) {
				t.Errorf("alloc[%d] = %v, central %v", i, res.Alloc[i], central.Alloc[i])
			}
			if !numeric.AlmostEqual(res.Payments[i], central.Payment[i], 1e-9, 1e-9) {
				t.Errorf("payment[%d] = %v, central %v", i, res.Payments[i], central.Payment[i])
			}
			if !numeric.AlmostEqual(res.Utilities[i], central.Utility[i], 1e-9, 1e-9) {
				t.Errorf("utility[%d] = %v, central %v", i, res.Utilities[i], central.Utility[i])
			}
		}
		if len(res.Flagged) != 0 {
			t.Errorf("honest round flagged %v", res.Flagged)
		}
	}
}

func TestDistributedMatchesCentralizedOnRandomTrees(t *testing.T) {
	// Property: on arbitrary random trees with arbitrary (legal)
	// agent plays, the distributed round reproduces the centralized
	// mechanism exactly.
	prop := func(seed uint64) bool {
		r := numeric.NewRand(seed)
		n := 2 + r.Intn(20)
		parent := make([]int, n)
		parent[0] = -1
		for i := 1; i < n; i++ {
			parent[i] = r.Intn(i) // guarantees a tree rooted at 0
		}
		tree := Topology{Parent: parent}
		if err := tree.Validate(); err != nil {
			return false
		}
		agents := make([]mech.Agent, n)
		for i := range agents {
			tv := 0.2 + 5*r.Float64()
			agents[i] = mech.Agent{
				True: tv,
				Bid:  0.2 + 5*r.Float64(),
				Exec: tv * (1 + r.Float64()),
			}
		}
		rate := 1 + 10*r.Float64()
		dist, err := Run(Config{Tree: tree, Agents: agents, Rate: rate})
		if err != nil {
			return false
		}
		central, err := mech.CompensationBonus{}.Run(agents, rate)
		if err != nil {
			return false
		}
		for i := range agents {
			if !numeric.AlmostEqual(dist.Payments[i], central.Payment[i], 1e-9, 1e-9) {
				return false
			}
			if !numeric.AlmostEqual(dist.Alloc[i], central.Alloc[i], 1e-9, 1e-12) {
				return false
			}
		}
		return dist.Messages == 4*(n-1)
	}
	for seed := uint64(1); seed <= 60; seed++ {
		if !prop(seed) {
			t.Fatalf("property failed at seed %d", seed)
		}
	}
}

func TestMessageComplexity(t *testing.T) {
	for _, n := range []int{2, 8, 16, 64} {
		agents := mech.Truthful(ladder(n))
		res, err := Run(Config{Tree: Binary(n), Agents: agents, Rate: float64(n)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Messages != 4*(n-1) {
			t.Errorf("n=%d: %d messages, want %d", n, res.Messages, 4*(n-1))
		}
	}
}

func ladder(n int) []float64 {
	l := []float64{1, 2, 5, 10}
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = l[i%4]
	}
	return ts
}

func TestCompletionTimeScalesWithDepth(t *testing.T) {
	const n, hop = 32, 0.01
	agents := mech.Truthful(ladder(n))
	star, err := Run(Config{Tree: Star(n), Agents: agents, Rate: 32, HopDelay: hop})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := Run(Config{Tree: Chain(n), Agents: agents, Rate: 32, HopDelay: hop})
	if err != nil {
		t.Fatal(err)
	}
	// Star: 4 sequential phases of 1 hop each. Chain: 4 phases of
	// (n-1) hops.
	if math.Abs(star.CompletionTime-4*hop) > 1e-9 {
		t.Errorf("star completion = %v, want %v", star.CompletionTime, 4*hop)
	}
	if math.Abs(chain.CompletionTime-4*float64(n-1)*hop) > 1e-9 {
		t.Errorf("chain completion = %v, want %v", chain.CompletionTime, 4*float64(n-1)*hop)
	}
	if chain.CompletionTime <= star.CompletionTime {
		t.Error("chain should be slower than star")
	}
}

func TestPaymentCheatIsFlagged(t *testing.T) {
	agents := mech.Truthful(ladder(8))
	res, err := Run(Config{
		Tree: Binary(8), Agents: agents, Rate: 8,
		Faults: faults.New(0, faults.Byzantine(0, 3, 5)),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{3: true, 5: true}
	if len(res.Flagged) != 2 {
		t.Fatalf("flagged = %v, want nodes 3 and 5", res.Flagged)
	}
	for _, f := range res.Flagged {
		if !want[f] {
			t.Errorf("unexpected flag %d", f)
		}
	}
	// The *audited* payments are the correct ones regardless.
	central, err := mech.CompensationBonus{}.Run(agents, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range agents {
		if !numeric.AlmostEqual(res.Payments[i], central.Payment[i], 1e-9, 1e-9) {
			t.Errorf("payment[%d] diverged under cheating", i)
		}
	}
}

func TestRootCheatFlagged(t *testing.T) {
	agents := mech.Truthful(ladder(4))
	res, err := Run(Config{Tree: Star(4), Agents: agents, Rate: 4, Faults: faults.New(0, faults.Byzantine(0, 0))})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flagged) != 1 || res.Flagged[0] != 0 {
		t.Errorf("flagged = %v, want [0]", res.Flagged)
	}
}

func TestCrashedLeafIsCutOff(t *testing.T) {
	agents := mech.Truthful(ladder(8))
	res, err := Run(Config{
		Tree:   Binary(8),
		Agents: agents,
		Rate:   8,
		Faults: faults.New(0, faults.Crash(7)), // a leaf
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Missing) != 1 || res.Missing[0] != 7 {
		t.Fatalf("missing = %v, want [7]", res.Missing)
	}
	if res.Alloc[7] != 0 || res.Payments[7] != 0 {
		t.Errorf("crashed node got alloc %v payment %v", res.Alloc[7], res.Payments[7])
	}
	// The round is consistent over the survivors: S excludes node 7
	// and the allocation still conserves the rate.
	var wantS, sum float64
	for i := 0; i < 7; i++ {
		wantS += 1 / agents[i].Bid
		sum += res.Alloc[i]
	}
	if math.Abs(res.S-wantS) > 1e-9 {
		t.Errorf("S = %v, want %v", res.S, wantS)
	}
	if math.Abs(sum-8) > 1e-6 {
		t.Errorf("surviving allocation sums to %v", sum)
	}
	// Survivors' payments match a centralized run over the survivors.
	central, err := mech.CompensationBonus{}.Run(agents[:7], 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if !numeric.AlmostEqual(res.Payments[i], central.Payment[i], 1e-9, 1e-9) {
			t.Errorf("payment[%d] = %v, central %v", i, res.Payments[i], central.Payment[i])
		}
	}
}

func TestCrashedInternalNodeCutsSubtree(t *testing.T) {
	// Binary(8): node 1's subtree is {1, 3, 4, 7}; crashing node 1
	// orphans all of it while {0, 2, 5, 6} complete the round.
	agents := mech.Truthful(ladder(8))
	res, err := Run(Config{
		Tree:   Binary(8),
		Agents: agents,
		Rate:   4,
		Faults: faults.New(0, faults.Crash(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	wantMissing := map[int]bool{1: true, 3: true, 4: true, 7: true}
	if len(res.Missing) != len(wantMissing) {
		t.Fatalf("missing = %v, want subtree of node 1", res.Missing)
	}
	for _, m := range res.Missing {
		if !wantMissing[m] {
			t.Errorf("unexpected missing node %d", m)
		}
	}
	var sum float64
	for _, i := range []int{0, 2, 5, 6} {
		sum += res.Alloc[i]
	}
	if math.Abs(sum-4) > 1e-6 {
		t.Errorf("survivors carry %v, want the full rate 4", sum)
	}
}

func TestCrashLeavingOneSurvivorErrors(t *testing.T) {
	// Chain 0-1-2-3: crashing node 1 leaves only the root reachable.
	agents := mech.Truthful([]float64{1, 2, 4, 8})
	if _, err := Run(Config{
		Tree:   Chain(4),
		Agents: agents,
		Rate:   2,
		Faults: faults.New(0, faults.Crash(1)),
	}); err == nil {
		t.Error("expected error with a single reachable node")
	}
}

func TestCrashCompletionIncludesTimeout(t *testing.T) {
	const hop = 0.01
	agents := mech.Truthful(ladder(8))
	healthy, err := Run(Config{Tree: Star(8), Agents: agents, Rate: 8, HopDelay: hop})
	if err != nil {
		t.Fatal(err)
	}
	crashed, err := Run(Config{
		Tree: Star(8), Agents: agents, Rate: 8, HopDelay: hop, Faults: faults.New(0, faults.Crash(3)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if crashed.CompletionTime <= healthy.CompletionTime {
		t.Errorf("crash round (%v) should take longer than healthy (%v) due to the timeout",
			crashed.CompletionTime, healthy.CompletionTime)
	}
	if len(crashed.Missing) != 1 || crashed.Missing[0] != 3 {
		t.Errorf("missing = %v", crashed.Missing)
	}
}

func TestCrashValidation(t *testing.T) {
	agents := mech.Truthful([]float64{1, 2})
	if _, err := Run(Config{Tree: Star(2), Agents: agents, Rate: 1, Faults: faults.New(0, faults.Crash(0))}); err == nil {
		t.Error("root crash accepted")
	}
	if _, err := Run(Config{Tree: Star(2), Agents: agents, Rate: 1, Faults: faults.New(0, faults.Crash(5))}); err == nil {
		t.Error("out-of-range crash accepted")
	}
}

func TestRunValidation(t *testing.T) {
	agents := mech.Truthful([]float64{1, 2})
	if _, err := Run(Config{Tree: Topology{Parent: []int{0}}, Agents: agents[:1], Rate: 1}); err == nil {
		t.Error("expected topology error")
	}
	if _, err := Run(Config{Tree: Star(2), Agents: agents[:1], Rate: 1}); err == nil {
		t.Error("expected agent count error")
	}
	if _, err := Run(Config{Tree: Star(2), Agents: agents, Rate: -1}); err == nil {
		t.Error("expected rate error")
	}
	bad := mech.Truthful([]float64{1, 2})
	bad[1].Bid = -1
	if _, err := Run(Config{Tree: Star(2), Agents: bad, Rate: 1}); err == nil {
		t.Error("expected bid error")
	}
	if _, err := Run(Config{Tree: Star(2), Agents: agents, Rate: 1, Faults: faults.New(0, faults.Byzantine(0, 9))}); err == nil {
		t.Error("expected cheater index error")
	}
}
