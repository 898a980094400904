package coop

import (
	"math"
	"testing"

	"repro/internal/numeric"
)

func paperGame(t *testing.T) *CostGame {
	t.Helper()
	g, err := NewCostGame(
		[]float64{1, 1, 2, 2, 2, 5, 5, 5, 5, 5, 10, 10, 10, 10, 10, 10}, 20)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCostFunction(t *testing.T) {
	g, err := NewCostGame([]float64{1, 2}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Cost([]int{0}); math.Abs(got-100) > 1e-12 {
		t.Errorf("c({0}) = %v, want 100", got)
	}
	if got := g.Cost([]int{0, 1}); math.Abs(got-100/1.5) > 1e-9 {
		t.Errorf("c(N) = %v, want %v", got, 100/1.5)
	}
	if !math.IsInf(g.Cost(nil), 1) {
		t.Error("empty coalition should cost +Inf")
	}
}

func TestCostGameSubadditive(t *testing.T) {
	// Adding computers never hurts: c(S u {i}) <= c(S).
	g := paperGame(t)
	coalition := []int{3}
	prev := g.Cost(coalition)
	for _, next := range []int{7, 11, 0, 15} {
		coalition = append(coalition, next)
		cur := g.Cost(coalition)
		if cur > prev+1e-12 {
			t.Fatalf("cost rose when %d joined: %v -> %v", next, prev, cur)
		}
		prev = cur
	}
}

func TestShapleyExactAxioms(t *testing.T) {
	g, err := NewCostGame([]float64{1, 1, 2, 5}, 8)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := g.ShapleyExact()
	if err != nil {
		t.Fatal(err)
	}
	// Efficiency: shares sum to the grand-coalition cost.
	if got, want := numeric.Sum(shares), g.Efficiency(); !numeric.AlmostEqual(got, want, 1e-9, 1e-9) {
		t.Errorf("shares sum to %v, want %v", got, want)
	}
	// Symmetry: the two identical computers get identical shares.
	if !numeric.AlmostEqual(shares[0], shares[1], 1e-9, 1e-9) {
		t.Errorf("symmetric players got %v and %v", shares[0], shares[1])
	}
	// Monotone attribution: the slow computer contributes more cost
	// per unit of service than the fast one in this concave game.
	if shares[3] <= shares[0] {
		t.Errorf("slow computer share %v not above fast %v", shares[3], shares[0])
	}
}

func TestShapleyExactTwoPlayerClosedForm(t *testing.T) {
	// For two players the Shapley share is
	// (c({i}) + c(N) - c({j}))/2.
	g, err := NewCostGame([]float64{1, 3}, 6)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := g.ShapleyExact()
	if err != nil {
		t.Fatal(err)
	}
	c0 := g.Cost([]int{0})
	c1 := g.Cost([]int{1})
	cN := g.Efficiency()
	want0 := (c0 + cN - c1) / 2
	want1 := (c1 + cN - c0) / 2
	if !numeric.AlmostEqual(shares[0], want0, 1e-9, 1e-9) {
		t.Errorf("share0 = %v, want %v", shares[0], want0)
	}
	if !numeric.AlmostEqual(shares[1], want1, 1e-9, 1e-9) {
		t.Errorf("share1 = %v, want %v", shares[1], want1)
	}
}

func TestShapleyMonteCarloMatchesExact(t *testing.T) {
	g, err := NewCostGame([]float64{1, 2, 5, 10}, 8)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := g.ShapleyExact()
	if err != nil {
		t.Fatal(err)
	}
	mc, err := g.ShapleyMonteCarlo(200000, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Efficiency holds exactly for the sampled estimator too (every
	// permutation telescopes to c(N)).
	if got, want := numeric.Sum(mc), g.Efficiency(); !numeric.AlmostEqual(got, want, 1e-9, 1e-9) {
		t.Errorf("MC shares sum to %v, want %v", got, want)
	}
	if e := RelErrMax(exact, mc); e > 0.02 {
		t.Errorf("MC vs exact max rel err = %v", e)
	}
}

func TestShapleyPaperSystemMonteCarlo(t *testing.T) {
	g := paperGame(t)
	shares, err := g.ShapleyMonteCarlo(50000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := numeric.Sum(shares), 400.0/5.1; !numeric.AlmostEqual(got, want, 1e-9, 1e-6) {
		t.Errorf("paper shares sum to %v, want %v", got, want)
	}
	// Identical computers get near-identical shares.
	if math.Abs(shares[0]-shares[1]) > 0.05*math.Abs(shares[0]) {
		t.Errorf("t=1 twins got %v and %v", shares[0], shares[1])
	}
}

func TestShapleyExactRefusesLargeN(t *testing.T) {
	ts := make([]float64, 21)
	for i := range ts {
		ts[i] = 1
	}
	g, err := NewCostGame(ts, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.ShapleyExact(); err == nil {
		t.Error("expected refusal for n=21")
	}
}

func TestNewCostGameValidation(t *testing.T) {
	if _, err := NewCostGame(nil, 5); err == nil {
		t.Error("expected error for empty set")
	}
	if _, err := NewCostGame([]float64{1, -1}, 5); err == nil {
		t.Error("expected error for bad t")
	}
	if _, err := NewCostGame([]float64{1}, -5); err == nil {
		t.Error("expected error for bad rate")
	}
}
