// Privacy: the paper's future-work directions, end to end. Sealed
// bidding with hash commitments, a secure-sum aggregation that reveals
// only the scalar the PR algorithm needs, a fully distributed
// mechanism round over a spanning tree with parent-audited payments,
// and a redundant auditor panel with majority voting.
package main

import (
	"fmt"
	"log"

	"repro/internal/distmech"
	"repro/internal/faults"
	"repro/internal/mech"
	"repro/internal/numeric"
	"repro/internal/payproto"
)

func main() {
	trues := []float64{1, 2, 5, 10}
	const rate = 8.0
	rng := numeric.NewRand(2026)

	// --- Phase 1: sealed bids (commit, then reveal). ---
	fmt.Println("1) sealed bidding: commit-reveal with SHA-256")
	commits := make([]payproto.Commitment, len(trues))
	opens := make([]payproto.Opening, len(trues))
	for i, t := range trues {
		c, op, err := payproto.Commit(t, rng) // everyone truthful here
		if err != nil {
			log.Fatal(err)
		}
		commits[i], opens[i] = c, op
		fmt.Printf("   C%d commits %x...\n", i+1, c.Digest[:8])
	}
	bids, err := payproto.SealedRound(commits, opens)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   all reveals verified; bids = %v\n\n", bids)

	// --- Phase 2: secure aggregation — the coordinator learns only S. ---
	fmt.Println("2) secure sum: agents share 1/b_i among 3 servers")
	x, s, err := payproto.PrivateAllocation(bids, rate, 3, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   revealed aggregate S = %.4f (individual bids stay secret)\n", s)
	fmt.Printf("   each agent computes its own load locally: %v\n\n", fmtF(x))

	// --- Phase 3: distributed mechanism round over a tree. ---
	fmt.Println("3) distributed round on a binary tree (node 3 over-claims its payment)")
	agents := mech.Truthful(trues)
	res, err := distmech.Run(distmech.Config{
		Tree:   distmech.Binary(len(trues)),
		Agents: agents,
		Rate:   rate,
		Faults: faults.New(0, faults.Byzantine(0, 3)),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   messages: %d (= 4(n-1)), completion: %.3fs of simulated network time\n",
		res.Messages, res.CompletionTime)
	fmt.Printf("   audited payments: %v\n", fmtF(res.Payments))
	fmt.Printf("   flagged over-claimers: %v\n\n", res.Flagged)

	// --- Phase 4: redundant payment auditors. ---
	fmt.Println("4) auditor panel (1 of 5 corrupted)")
	panel := []payproto.Auditor{
		{ID: "alpha"}, {ID: "bravo"}, {ID: "charlie", Corrupt: true},
		{ID: "delta"}, {ID: "echo"},
	}
	audit, err := payproto.AuditedPayments(agents, rate, panel, 1e-9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   consensus payments: %v\n", fmtF(audit.Payments))
	fmt.Printf("   dissenting auditors: %v\n", audit.Dissenters)
}

func fmtF(xs []float64) []string {
	out := make([]string, len(xs))
	for i, v := range xs {
		out[i] = fmt.Sprintf("%.3f", v)
	}
	return out
}
