// Package lbmech is a Go implementation of the load balancing
// mechanism with verification of Grosu & Chronopoulos (IPDPS 2003),
// together with the substrates needed to reproduce the paper end to
// end: latency models, optimal allocation algorithms, baseline
// mechanisms, a strategic (game-theoretic) analysis toolkit, a
// discrete-event cluster simulator with execution-value estimation,
// and the paper's full evaluation (Tables 1-2, Figures 1-6).
//
// # The problem
//
// A distributed system has n heterogeneous computers owned by
// self-interested agents. Computer i is characterized by a linear
// load-dependent latency function l_i(x) = t_i*x, where t_i (its
// "true value") is private. Jobs arrive at total rate R and must be
// split so that the total latency L(x) = sum_i t_i*x_i^2 is minimized
// — which the PR algorithm achieves by allocating in proportion to
// processing rates. But selfish computers may misreport t_i and may
// execute jobs slower than their capacity, so the mechanism pays each
// computer a compensation (its verified realized cost) plus a bonus
// (its contribution to reducing total latency), computed *after*
// observing the actual execution rates. Under this mechanism,
// truthful bidding and full-capacity execution is a dominant strategy
// (Theorem 3.1) and truthful agents never lose (Theorem 3.2).
//
// # Quick start
//
//	sys, _ := lbmech.NewSystem([]float64{1, 2, 5, 10}, 8)
//	out, _ := sys.Run()
//	fmt.Println(out.Alloc, out.Payment, out.Utility)
//
// See the examples directory for runnable scenarios and DESIGN.md for
// the full system inventory.
package lbmech

import (
	"repro/internal/coop"
	"repro/internal/distmech"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/game"
	"repro/internal/mech"
	"repro/internal/protocol"
	"repro/internal/supervise"
)

// Agent is one self-interested computer: private true value, reported
// bid and realized execution value.
type Agent = mech.Agent

// Outcome is the result of one mechanism execution: allocation,
// latencies, payments, valuations and utilities.
type Outcome = mech.Outcome

// Mechanism computes an allocation and payments from agent reports.
type Mechanism = mech.Mechanism

// Model abstracts the latency family (linear or M/M/1).
type Model = mech.Model

// TruthfulnessReport is the outcome of a deviation grid search.
type TruthfulnessReport = game.Report

// ProtocolResult is the outcome of a full message-level protocol
// round, including execution-value estimates and message counts.
type ProtocolResult = protocol.Result

// Experiment is one of the paper's Table 2 scenarios.
type Experiment = experiments.Experiment

// LinearModel returns the paper's latency model l(x) = t*x.
func LinearModel() Model { return mech.LinearModel{} }

// MM1Model returns the M/M/1 latency model of the companion CLUSTER
// 2002 paper, with private value t = 1/mu.
func MM1Model() Model { return mech.MM1Model{} }

// VerificationMechanism returns the paper's compensation-and-bonus
// mechanism with verification for the given model (nil = linear).
func VerificationMechanism(m Model) Mechanism { return mech.CompensationBonus{Model: m} }

// NoVerificationMechanism returns the compensation-and-bonus
// construction computed from bids alone — the manipulable baseline
// that motivates verification.
func NoVerificationMechanism(m Model) Mechanism { return mech.BidCompensationBonus{Model: m} }

// VCG returns the Vickrey-Clarke-Groves baseline (truthful in bids,
// payments fixed before execution).
func VCG(m Model) Mechanism { return mech.VCG{Model: m} }

// ArcherTardos returns the Archer-Tardos one-parameter baseline with
// integral payments (linear model only unless a custom
// OneParameterModel is supplied).
func ArcherTardos() Mechanism { return mech.ArcherTardos{} }

// Classical returns the traditional obedient-agents allocation with no
// payments.
func Classical(m Model) Mechanism { return mech.Classical{Model: m} }

// Truthful builds a truthful agent population from true values, named
// C1..Cn.
func Truthful(trueValues []float64) []Agent { return mech.Truthful(trueValues) }

// PaperSystem returns the paper's 16-computer configuration (Table 1)
// at the paper's job arrival rate R = 20, ready to run.
func PaperSystem() (*System, error) {
	return NewSystem(experiments.PaperTrueValues(), experiments.PaperRate)
}

// PaperExperiments returns the paper's eight Table 2 scenarios.
func PaperExperiments() []Experiment { return experiments.Table2Experiments() }

// Tree is a spanning-tree topology for the distributed mechanism.
type Tree = distmech.Topology

// DistributedResult is the outcome of a distributed mechanism round.
type DistributedResult = distmech.Result

// StarTree, ChainTree and BinaryTree build standard topologies for
// RunDistributed.
func StarTree(n int) Tree   { return distmech.Star(n) }
func ChainTree(n int) Tree  { return distmech.Chain(n) }
func BinaryTree(n int) Tree { return distmech.Binary(n) }

// RunDistributed executes the fully distributed version of the
// verification mechanism over a spanning tree: one convergecast
// aggregates S = sum 1/b_j, one broadcast disseminates it, and each
// computer derives its own allocation and payment locally, audited by
// its tree parent. O(n) messages; linear model only.
func RunDistributed(tree Tree, agents []Agent, rate float64) (*DistributedResult, error) {
	return distmech.Run(distmech.Config{Tree: tree, Agents: agents, Rate: rate})
}

// FaultPlan is a deterministic, seedable fault-injection plan (see
// package faults): message drops, duplication, delay jitter,
// reordering, node crashes, silence, stalls and Byzantine payment
// claims, all derived reproducibly from a seed.
type FaultPlan = faults.Plan

// ParseFaults composes a FaultPlan from a spec string such as
// "seed=7,drop=0.05,crash=3+7,byz=5@1.2".
func ParseFaults(spec string) (*FaultPlan, error) { return faults.ParseSpec(spec) }

// RoundReport is the structured outcome of a supervised round: every
// attempt, failure classification, exclusion, backoff and degradation
// decision, plus the accepted allocation indexed by original node id.
type RoundReport = supervise.Report

// RunSupervised executes the distributed round under supervision: a
// failed attempt is classified (partial aggregate, conservation
// violation, audit flags, unreachable nodes), misbehaving or
// persistently unreachable nodes are excluded, and the round retries
// with exponential backoff, degrading gracefully to any quorum of at
// least two reachable computers. The returned report's Trace() is
// byte-identical across runs for the same seed and plan.
func RunSupervised(tree Tree, agents []Agent, rate float64, plan *FaultPlan) (*RoundReport, error) {
	return supervise.Run(distmech.Config{
		Tree:   tree,
		Agents: agents,
		Rate:   rate,
		Faults: plan,
	}, supervise.Options{})
}

// MechanismByName constructs a registered mechanism ("verification",
// "noverification", "vcg", "archertardos", "classical") over the given
// model (nil = linear).
func MechanismByName(name string, m Model) (Mechanism, error) {
	return mech.ByName(name, m)
}

// ShapleyShares computes the cooperative-game attribution of the
// system's optimal latency: each computer's Shapley cost share in the
// game whose coalitions pay their own optimal total latency. Exact
// enumeration for n <= 12, parallel permutation sampling otherwise.
func ShapleyShares(trueValues []float64, rate float64, samples int, seed uint64) ([]float64, error) {
	g, err := coop.NewCostGame(trueValues, rate)
	if err != nil {
		return nil, err
	}
	if len(trueValues) <= 12 {
		return g.ShapleyExact()
	}
	return g.ShapleyMonteCarlo(samples, seed)
}
