// Package coop analyzes load balancing as a cooperative cost game,
// the companion perspective to the paper's noncooperative mechanism
// (its reference [7] is the same authors' cooperative-game approach).
//
// The characteristic function assigns every coalition S of computers
// the minimum total latency it achieves carrying the whole job stream:
// c(S) = R^2 / sum_{i in S} 1/t_i for the linear model. The cost game
// is concave (adding a computer helps more when the coalition is
// small), so the Shapley value — each computer's average marginal
// contribution over all join orders — is a principled way to split
// the system's latency cost, and the package computes it exactly for
// small systems and by parallel permutation sampling for large ones.
package coop

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/numeric"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// CostGame is the cooperative latency-cost game on a set of computers.
type CostGame struct {
	// Ts are the computers' latency parameters.
	Ts []float64
	// Rate is the job arrival rate every coalition must carry.
	Rate float64
}

// NewCostGame validates and builds a game.
func NewCostGame(ts []float64, rate float64) (*CostGame, error) {
	if len(ts) == 0 {
		return nil, errors.New("coop: empty player set")
	}
	if rate < 0 || math.IsNaN(rate) {
		return nil, fmt.Errorf("coop: invalid rate %g", rate)
	}
	for i, t := range ts {
		if t <= 0 || math.IsNaN(t) {
			return nil, fmt.Errorf("coop: invalid latency parameter ts[%d] = %g", i, t)
		}
	}
	return &CostGame{Ts: append([]float64(nil), ts...), Rate: rate}, nil
}

// Cost returns c(S) for the coalition given as player indices; the
// empty coalition has infinite cost (it cannot carry the stream).
func (g *CostGame) Cost(coalition []int) float64 {
	var inv numeric.KahanSum
	for _, i := range coalition {
		inv.Add(1 / g.Ts[i])
	}
	s := inv.Value()
	if s <= 0 {
		if g.Rate == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return g.Rate * g.Rate / s
}

// costOfInv returns the coalition cost from a running sum of inverse
// speeds, the incremental form used by the Shapley computations.
func (g *CostGame) costOfInv(sumInv float64) float64 {
	if sumInv <= 0 {
		if g.Rate == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return g.Rate * g.Rate / sumInv
}

// ShapleyExact computes the Shapley cost shares by enumerating all
// join orders' marginal contributions via the subset formulation.
// Exponential in n; it refuses n > 20. Because the empty coalition has
// infinite cost, the first joiner's marginal contribution is defined
// as its standalone cost c({i}) (the standard convention for cost
// games with essential grand coalitions).
func (g *CostGame) ShapleyExact() ([]float64, error) {
	n := len(g.Ts)
	if n > 20 {
		return nil, fmt.Errorf("coop: exact Shapley infeasible for n=%d (>20)", n)
	}
	// Precompute factorials.
	fact := make([]float64, n+1)
	fact[0] = 1
	for i := 1; i <= n; i++ {
		fact[i] = fact[i-1] * float64(i)
	}
	shares := make([]float64, n)
	// Enumerate subsets S not containing i; weight |S|!(n-|S|-1)!/n!.
	for i := 0; i < n; i++ {
		var acc numeric.KahanSum
		for mask := 0; mask < 1<<n; mask++ {
			if mask&(1<<i) != 0 {
				continue
			}
			size := 0
			var inv numeric.KahanSum
			for j := 0; j < n; j++ {
				if mask&(1<<j) != 0 {
					size++
					inv.Add(1 / g.Ts[j])
				}
			}
			var marginal float64
			if size == 0 {
				marginal = g.costOfInv(1 / g.Ts[i])
			} else {
				before := g.costOfInv(inv.Value())
				after := g.costOfInv(inv.Value() + 1/g.Ts[i])
				marginal = after - before
			}
			weight := fact[size] * fact[n-size-1] / fact[n]
			acc.Add(weight * marginal)
		}
		shares[i] = acc.Value()
	}
	return shares, nil
}

// ShapleyMonteCarlo estimates the Shapley cost shares by sampling
// random join orders in parallel; samples is the number of
// permutations (default 20000). The standard error of each share
// shrinks as 1/sqrt(samples).
func (g *CostGame) ShapleyMonteCarlo(samples int, seed uint64) ([]float64, error) {
	n := len(g.Ts)
	if samples <= 0 {
		samples = 20000
	}
	workers := parallel.Workers(0)
	perWorker := (samples + workers - 1) / workers
	root := numeric.NewRand(seed)
	rngs := make([]*numeric.Rand, workers)
	for w := range rngs {
		rngs[w] = root.Split()
	}
	sums := parallel.Map(workers, workers, func(w int) []float64 {
		rng := rngs[w]
		local := make([]float64, n)
		for s := 0; s < perWorker; s++ {
			perm := rng.Perm(n)
			sumInv := 0.0
			for pos, i := range perm {
				var marginal float64
				if pos == 0 {
					marginal = g.costOfInv(1 / g.Ts[i])
				} else {
					before := g.costOfInv(sumInv)
					after := g.costOfInv(sumInv + 1/g.Ts[i])
					marginal = after - before
				}
				local[i] += marginal
				sumInv += 1 / g.Ts[i]
			}
		}
		return local
	})
	total := float64(workers * perWorker)
	shares := make([]float64, n)
	for _, local := range sums {
		for i, v := range local {
			shares[i] += v
		}
	}
	for i := range shares {
		shares[i] /= total
	}
	return shares, nil
}

// Efficiency reports the grand-coalition cost, which the Shapley
// shares must sum to.
func (g *CostGame) Efficiency() float64 {
	all := make([]int, len(g.Ts))
	for i := range all {
		all[i] = i
	}
	return g.Cost(all)
}

// RelErrMax returns the largest relative disagreement between two
// share vectors (test helper for exact-vs-sampled comparisons).
func RelErrMax(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		if e := stats.RelErr(a[i], b[i]); e > worst {
			worst = e
		}
	}
	return worst
}
