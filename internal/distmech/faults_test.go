package distmech

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/faults"
	"repro/internal/mech"
	"repro/internal/numeric"
)

func TestConfigValidateTypedErrors(t *testing.T) {
	agents := mech.Truthful([]float64{1, 2, 4})
	base := Config{Tree: Star(3), Agents: agents, Rate: 3}

	var ve *ValueError
	var re *faults.RangeError

	cfg := base
	cfg.HopDelay = -0.5
	if _, err := Run(cfg); !errors.As(err, &ve) || ve.Field != "hop delay" {
		t.Errorf("negative hop delay: %v", err)
	}
	cfg = base
	cfg.Timeout = -1
	if _, err := Run(cfg); !errors.As(err, &ve) || ve.Field != "timeout" {
		t.Errorf("negative timeout: %v", err)
	}
	cfg = base
	cfg.Deadline = math.NaN()
	if _, err := Run(cfg); !errors.As(err, &ve) || ve.Field != "deadline" {
		t.Errorf("NaN deadline: %v", err)
	}
	cfg = base
	cfg.Rate = 0
	if _, err := Run(cfg); !errors.As(err, &ve) || ve.Field != "rate" {
		t.Errorf("zero rate: %v", err)
	}
	cfg = base
	cfg.Faults = faults.New(0, faults.Crash(7))
	if _, err := Run(cfg); !errors.As(err, &re) || re.Node != 7 || re.N != 3 {
		t.Errorf("out-of-range crash: %v", err)
	}
	cfg = base
	cfg.Faults = faults.New(0, faults.Crash(-1))
	if _, err := Run(cfg); !errors.As(err, &re) {
		t.Errorf("negative crash index: %v", err)
	}
	cfg = base
	cfg.Faults = faults.New(0, faults.Byzantine(0, 3))
	if _, err := Run(cfg); !errors.As(err, &re) || re.Node != 3 {
		t.Errorf("out-of-range cheater: %v", err)
	}
	cfg = base
	cfg.Faults = faults.New(0, faults.Crash(0))
	if _, err := Run(cfg); !errors.Is(err, ErrRootCrashed) {
		t.Errorf("root crash: %v", err)
	}
	// A root marked dead by a fault plan is the same typed error.
	cfg = base
	cfg.Faults = faults.New(1, faults.Silent(0))
	if _, err := Run(cfg); !errors.Is(err, ErrRootCrashed) {
		t.Errorf("silent root via plan: %v", err)
	}
}

// Timeout-budget cascades: the default depth-aware budgets must keep
// healthy deep subtrees alive while cutting exactly the faulty ones.

func TestCascadeBudgetDeepChainCrashedLeaf(t *testing.T) {
	n := 16
	agents := mech.Truthful(ladder(n))
	res, err := Run(Config{
		Tree: Chain(n), Agents: agents, Rate: 8,
		Faults: faults.New(1, faults.Crash(n-1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Missing) != 1 || res.Missing[0] != n-1 {
		t.Fatalf("missing = %v, want just the leaf", res.Missing)
	}
	var sum float64
	for _, x := range res.Alloc {
		sum += x
	}
	if math.Abs(sum-8) > 1e-6 {
		t.Errorf("allocation sums to %v", sum)
	}
}

func TestCascadeBudgetDeepChainCrashedMiddle(t *testing.T) {
	n := 16
	agents := mech.Truthful(ladder(n))
	res, err := Run(Config{
		Tree: Chain(n), Agents: agents, Rate: 8,
		Faults: faults.New(0, faults.Crash(8)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Missing) != n-8 {
		t.Fatalf("missing = %v, want the whole tail 8..15", res.Missing)
	}
	for _, m := range res.Missing {
		if m < 8 {
			t.Errorf("healthy node %d cut off", m)
		}
	}
}

func TestCascadeBudgetSingleNodeSubtree(t *testing.T) {
	// Tree: 0 -> {1, 2}, 1 -> {3}. Node 3 is a single-node subtree
	// hanging off node 1; crashing it must cut exactly node 3 even
	// though node 1's timeout budget is the smallest possible (4 hops).
	tree := Topology{Parent: []int{-1, 0, 0, 1}}
	agents := mech.Truthful([]float64{1, 2, 4, 8})
	res, err := Run(Config{Tree: tree, Agents: agents, Rate: 4, Faults: faults.New(0, faults.Crash(3))})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Missing) != 1 || res.Missing[0] != 3 {
		t.Fatalf("missing = %v, want [3]", res.Missing)
	}
	central, err := mech.CompensationBonus{}.Run(agents[:3], 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !numeric.AlmostEqual(res.Payments[i], central.Payment[i], 1e-9, 1e-9) {
			t.Errorf("payment[%d] = %v, central %v", i, res.Payments[i], central.Payment[i])
		}
	}
}

func TestExplicitTimeoutShorterThanCascadeCutsDeepChain(t *testing.T) {
	// A uniform 2.5-hop timeout is shorter than the computed cascade
	// budget on a deep chain: every level times out before its healthy
	// subtree can answer, the whole tail is cut and the round fails
	// with the typed quorum error.
	const hop = 0.01
	agents := mech.Truthful(ladder(8))
	_, err := Run(Config{
		Tree: Chain(8), Agents: agents, Rate: 8,
		HopDelay: hop, Timeout: 2.5 * hop,
	})
	if !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("err = %v, want ErrQuorumLost", err)
	}
}

func TestExplicitTimeoutLongEnoughCompletes(t *testing.T) {
	const hop = 0.01
	agents := mech.Truthful(ladder(8))
	res, err := Run(Config{
		Tree: Chain(8), Agents: agents, Rate: 8,
		HopDelay: hop, Timeout: 20 * hop,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Missing) != 0 || res.Messages != 4*7 {
		t.Errorf("missing=%v messages=%d", res.Missing, res.Messages)
	}
}

// Fault-plan integration.

func TestDuplicatedMessagesAreHarmless(t *testing.T) {
	// Duplicate every message: the receivers are idempotent, so the
	// outcome must be identical to the fault-free round.
	agents := mech.Truthful(paperTs())
	clean, err := Run(Config{Tree: Binary(16), Agents: agents, Rate: 20})
	if err != nil {
		t.Fatal(err)
	}
	dup, err := Run(Config{
		Tree: Binary(16), Agents: agents, Rate: 20,
		Faults: faults.New(3, faults.Duplicate(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if dup.Duplicated == 0 {
		t.Fatal("no duplicates injected")
	}
	if dup.Messages != clean.Messages {
		t.Errorf("logical messages %d != %d", dup.Messages, clean.Messages)
	}
	for i := range agents {
		if !numeric.AlmostEqual(dup.Alloc[i], clean.Alloc[i], 1e-12, 1e-12) ||
			!numeric.AlmostEqual(dup.Payments[i], clean.Payments[i], 1e-12, 1e-12) {
			t.Fatalf("node %d diverged under duplication", i)
		}
	}
	if len(dup.Flagged) != 0 || len(dup.Missing) != 0 {
		t.Errorf("flagged=%v missing=%v", dup.Flagged, dup.Missing)
	}
}

func TestJitterKeepsRoundExact(t *testing.T) {
	// Sub-hop jitter reorders same-instant events but stays well
	// inside the timeout budgets: the round must still be exact.
	agents := mech.Truthful(paperTs())
	res, err := Run(Config{
		Tree: Binary(16), Agents: agents, Rate: 20,
		Faults: faults.New(11, faults.Jitter(0.0004)),
	})
	if err != nil {
		t.Fatal(err)
	}
	central, err := mech.CompensationBonus{}.Run(agents, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := range agents {
		if !numeric.AlmostEqual(res.Payments[i], central.Payment[i], 1e-9, 1e-9) {
			t.Errorf("payment[%d] diverged under jitter", i)
		}
	}
	if len(res.Missing) != 0 {
		t.Errorf("missing = %v", res.Missing)
	}
}

func TestSilentNodeViaPlanIsCutOff(t *testing.T) {
	agents := mech.Truthful(ladder(8))
	res, err := Run(Config{
		Tree: Star(8), Agents: agents, Rate: 8,
		Faults: faults.New(1, faults.Silent(3)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Missing) != 1 || res.Missing[0] != 3 {
		t.Fatalf("missing = %v, want [3]", res.Missing)
	}
	if res.Alloc[3] != 0 {
		t.Errorf("silent node allocated %v", res.Alloc[3])
	}
}

func TestDeadlineExceededIsTyped(t *testing.T) {
	agents := mech.Truthful(ladder(8))
	_, err := Run(Config{
		Tree: Star(8), Agents: agents, Rate: 8,
		HopDelay: 0.01, Deadline: 0.015, // the round needs 4 hops
	})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
}

// kindDropper drops every message of one kind and nothing else.
type kindDropper struct {
	faults.Injector
	kind string
}

func (k kindDropper) Deliver(m faults.Message) faults.Decision {
	return faults.Decision{Drop: m.Kind == k.kind}
}

func TestDroppedDisseminationIsTyped(t *testing.T) {
	agents := mech.Truthful(ladder(4))
	_, err := Run(Config{
		Tree: Star(4), Agents: agents, Rate: 4,
		Faults: kindDropper{Injector: faults.None, kind: "disseminate"},
	})
	if !errors.Is(err, ErrDisseminationIncomplete) {
		t.Fatalf("err = %v, want ErrDisseminationIncomplete", err)
	}
}

func TestDroppedClaimsLeaveAuditOutstanding(t *testing.T) {
	agents := mech.Truthful(ladder(4))
	res, err := Run(Config{
		Tree: Star(4), Agents: agents, Rate: 4,
		Faults: kindDropper{Injector: faults.None, kind: "claim"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ClaimsOutstanding != 3 {
		t.Errorf("claims outstanding = %d, want 3", res.ClaimsOutstanding)
	}
	var sum float64
	for _, x := range res.Alloc {
		sum += x
	}
	if math.Abs(sum-4) > 1e-9 {
		t.Errorf("allocation sums to %v despite complete dissemination", sum)
	}
}

func TestDroppedAggregatesLoseQuorum(t *testing.T) {
	agents := mech.Truthful(ladder(4))
	_, err := Run(Config{
		Tree: Star(4), Agents: agents, Rate: 4,
		Faults: kindDropper{Injector: faults.None, kind: "aggregate"},
	})
	if !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("err = %v, want ErrQuorumLost", err)
	}
}

func TestFaultScheduleIsDeterministic(t *testing.T) {
	agents := mech.Truthful(paperTs())
	run := func(seed uint64) string {
		res, err := Run(Config{
			Tree: Binary(16), Agents: agents, Rate: 20,
			Faults: faults.New(seed,
				faults.Drop(0.1), faults.Duplicate(0.1), faults.Jitter(0.0003)),
		})
		return fmt.Sprintf("%+v %v", res, err)
	}
	if run(7) != run(7) {
		t.Error("same seed produced different rounds")
	}
	if run(7) == run(8) {
		t.Error("different seeds produced identical rounds (suspicious)")
	}
}
