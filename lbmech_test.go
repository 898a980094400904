package lbmech

import (
	"math"
	"reflect"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	sys, err := NewSystem([]float64{1, 2, 5, 10}, 8)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Alloc) != 4 || len(out.Payment) != 4 {
		t.Fatalf("outcome shapes wrong: %+v", out)
	}
	var sum float64
	for _, x := range out.Alloc {
		sum += x
	}
	if math.Abs(sum-8) > 1e-9 {
		t.Errorf("allocation sums to %v, want 8", sum)
	}
	for i, u := range out.Utility {
		if u < 0 {
			t.Errorf("truthful agent %d has negative utility %v", i, u)
		}
	}
}

func TestPaperSystemHeadline(t *testing.T) {
	sys, err := PaperSystem()
	if err != nil {
		t.Fatal(err)
	}
	out, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.RealLatency-78.4313725) > 1e-4 {
		t.Errorf("paper system latency = %v, want 78.43", out.RealLatency)
	}
}

func TestPaperExperiments(t *testing.T) {
	exps := PaperExperiments()
	if len(exps) != 8 {
		t.Fatalf("got %d experiments", len(exps))
	}
	for _, e := range exps {
		o, err := e.Run()
		if err != nil {
			t.Errorf("%s: %v", e.Name, err)
			continue
		}
		if o.RealLatency < 78.43 {
			t.Errorf("%s latency %v below optimum", e.Name, o.RealLatency)
		}
	}
}

func TestMechanismConstructors(t *testing.T) {
	agents := Truthful([]float64{1, 2, 5})
	for _, m := range []Mechanism{
		VerificationMechanism(nil),
		VerificationMechanism(LinearModel()),
		NoVerificationMechanism(nil),
		VCG(nil),
		ArcherTardos(),
		Classical(nil),
	} {
		o, err := m.Run(agents, 6)
		if err != nil {
			t.Errorf("%s: %v", m.Name(), err)
			continue
		}
		if len(o.Alloc) != 3 {
			t.Errorf("%s: bad outcome", m.Name())
		}
	}
}

func TestMM1SystemThroughFacade(t *testing.T) {
	// Rate 3 keeps both exclusion subsystems (capacities 4 and 10)
	// strictly feasible.
	sys, err := NewSystem([]float64{0.1, 0.25}, 3, WithModel(MM1Model()))
	if err != nil {
		t.Fatal(err)
	}
	out, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Model != "mm1" {
		t.Errorf("model = %q", out.Model)
	}
}

func TestTruthfulnessThroughFacade(t *testing.T) {
	sys, err := NewSystem([]float64{1, 2, 5}, 6)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.VerifyTruthfulness(1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truthful() {
		t.Errorf("unexpected manipulation: %+v", rep.Best)
	}
}

func TestDistributedThroughFacade(t *testing.T) {
	agents := Truthful([]float64{1, 2, 4, 8})
	res, err := RunDistributed(BinaryTree(4), agents, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 12 {
		t.Errorf("messages = %d, want 12", res.Messages)
	}
	// Cross-check against the centralized mechanism.
	central, err := VerificationMechanism(nil).Run(agents, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range agents {
		if math.Abs(res.Payments[i]-central.Payment[i]) > 1e-9 {
			t.Errorf("payment[%d]: distributed %v vs central %v",
				i, res.Payments[i], central.Payment[i])
		}
	}
	for _, build := range []func(int) Tree{StarTree, ChainTree} {
		if _, err := RunDistributed(build(4), agents, 6); err != nil {
			t.Error(err)
		}
	}
}

func TestMechanismByNameFacade(t *testing.T) {
	m, err := MechanismByName("vcg", nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "vcg-clarke" {
		t.Errorf("name = %q", m.Name())
	}
	if _, err := MechanismByName("nope", nil); err == nil {
		t.Error("expected error")
	}
}

func TestShapleySharesFacade(t *testing.T) {
	shares, err := ShapleyShares([]float64{1, 2, 5, 10}, 8, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	// Efficiency: shares sum to the optimal latency 64/1.8.
	want := 64.0 / 1.8
	if math.Abs(sum-want) > 1e-9 {
		t.Errorf("shares sum to %v, want %v", sum, want)
	}
}

// TestShapleySharesExactThreshold pins where ShapleyShares switches
// from exact enumeration to sampling: at n = 12 the shares ignore
// samples and seed, at n = 13 they depend on the seed.
func TestShapleySharesExactThreshold(t *testing.T) {
	values := func(n int) []float64 {
		ts := make([]float64, n)
		for i := range ts {
			ts[i] = float64(1 + i%5)
		}
		return ts
	}
	shares := func(n, samples int, seed uint64) []float64 {
		s, err := ShapleyShares(values(n), 10, samples, seed)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if a, b := shares(12, 50, 1), shares(12, 500, 2); !reflect.DeepEqual(a, b) {
		t.Errorf("n=12 shares depend on samples/seed: %v vs %v", a, b)
	}
	if a, b := shares(13, 50, 1), shares(13, 50, 2); reflect.DeepEqual(a, b) {
		t.Errorf("n=13 shares do not depend on the seed: %v", a)
	}
}

// TestEndToEndStory walks the full pipeline a downstream user would
// run: configure, deviate, run the mechanism, verify truthfulness,
// run the protocol with estimation, then the distributed round.
func TestEndToEndStory(t *testing.T) {
	sys, err := NewSystem([]float64{1, 2, 4, 8}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetBid(2, 2); err != nil { // computer 3 underbids
		t.Fatal(err)
	}
	if err := sys.SetExec(2, 8); err != nil { // ... and slacks
		t.Fatal(err)
	}
	out, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	sys.Reset()
	truth, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Utility[2] >= truth.Utility[2] {
		t.Error("deviation should not pay")
	}
	rep, err := sys.VerifyTruthfulness(2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truthful() {
		t.Error("mechanism manipulable")
	}
	res, err := sys.RunProtocol(10000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 20 {
		t.Errorf("messages = %d", res.Messages)
	}
	dres, err := RunDistributed(BinaryTree(4), sys.Agents(), 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dres.Payments {
		if math.Abs(dres.Payments[i]-truth.Payment[i]) > 1e-9 {
			t.Errorf("distributed payment %d diverges from centralized", i)
		}
	}
}

func TestProtocolThroughFacade(t *testing.T) {
	sys, err := NewSystem([]float64{1, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunProtocol(5000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 10 {
		t.Errorf("messages = %d, want 10", res.Messages)
	}
}
