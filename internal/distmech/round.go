package distmech

import (
	"fmt"
	"math"

	"repro/internal/faults"
	"repro/internal/mech"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Config parameterizes a distributed mechanism round.
type Config struct {
	// Tree is the spanning tree used for aggregation. Node 0 is the
	// coordinator.
	Tree Topology
	// Agents are the computers, one per tree node (node 0 included:
	// the coordinator is itself a computer, as in a peer-to-peer
	// deployment).
	Agents []mech.Agent
	// Rate is the total job arrival rate R.
	Rate float64
	// HopDelay is the per-message network latency in simulated
	// seconds (default 0.001).
	HopDelay float64
	// Faults injects message- and node-level faults into the round
	// (see package faults). A crashed node never responds, cutting off
	// its whole subtree: parents time out waiting for it and proceed
	// with partial aggregates, and the round completes over the
	// reachable nodes. A Byzantine node over-claims its payment, which
	// its parent's audit flags. The root (node 0) cannot crash, and a
	// *faults.Plan naming a node outside the tree is a
	// *faults.RangeError. Nil injects nothing.
	Faults faults.Injector
	// Timeout is how long a parent waits for a child's aggregate
	// before giving up, in simulated seconds. The default is a
	// cascading depth-aware budget (4 hops beyond the largest child
	// budget), long enough for a healthy subtree of any shape to
	// respond even when timeouts fire further down.
	Timeout float64
	// Deadline cuts the whole round off at this simulated time; work
	// still pending then surfaces as ErrDeadlineExceeded. Zero means
	// no deadline.
	Deadline float64
	// Obs receives round counters, fault-injection counts and trace
	// events (see package obs). Nil disables all instrumentation at
	// zero cost.
	Obs *obs.Observer
}

// Result is the outcome of a distributed round.
type Result struct {
	// S is the aggregated sum of inverse bids.
	S float64
	// Alloc is the locally computed allocation (assembled here for
	// inspection; in the field each node knows only its own entry).
	Alloc []float64
	// Payments are the audited per-node payments.
	Payments []float64
	// Utilities are the per-node utilities.
	Utilities []float64
	// Flagged lists nodes whose claimed payment failed the parent
	// audit.
	Flagged []int
	// Missing lists nodes cut off by crashes or lost messages (the
	// unreachable nodes and their subtrees); their allocations and
	// payments are zero.
	Missing []int
	// ClaimsOutstanding counts payment claims the audit convergecast
	// never received (lost or stalled messages): the round's
	// allocation is complete but its audit coverage is not.
	ClaimsOutstanding int
	// Messages is the total number of logical tree messages sent.
	Messages int
	// Lost counts messages the fault layer dropped.
	Lost int
	// Duplicated counts messages the fault layer delivered twice.
	Duplicated int
	// CompletionTime is the simulated time at which the round ended.
	CompletionTime float64
}

// Run executes one distributed round on the discrete-event engine:
//
//  1. the coordinator broadcasts a request down the tree;
//  2. a convergecast aggregates partial sums of 1/b_i upward;
//  3. the coordinator broadcasts (S, R) downward;
//  4. every node locally derives its allocation x_i = R/(b_i*S) and —
//     after execution, when its own ť_i is local knowledge — its own
//     payment from (S, R, b_i, ť_i) alone;
//  5. payment claims convergecast upward, with each parent recomputing
//     its child's payment from the child's disclosed (b, ť) and
//     flagging mismatches.
//
// All messages travel through the fault layer (Config.Faults): drops,
// duplicates, jitter, reordering, sender stalls, fail-stop crashes and
// Byzantine payment claims all act on this one path, and the receivers
// are duplicate- and late-message-safe. In a fault-free round the
// message count is exactly 4(n-1) and the completion time
// ~ (4*depth)*HopDelay, both properties the tests pin down.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Tree.N()
	inj := cfg.Faults
	if inj == nil {
		inj = faults.None
	}
	dead := func(i int) bool {
		c := inj.Class(i)
		return c == faults.NodeCrashed || c == faults.NodeSilent
	}
	if dead(0) {
		return nil, ErrRootCrashed
	}
	hop := cfg.HopDelay
	if hop == 0 {
		hop = 0.001
	}
	// A parent must wait long enough for a request to reach its
	// deepest descendant and the aggregate to travel back — and, under
	// faults, for its children's own timeouts to expire first, so the
	// budgets must cascade: timeout(i) > max_c timeout(c) + round trip.
	// The topology is public, so each node computes its own budget.
	timeoutBudget := make([]float64, n)
	timeoutFor := func(i int) float64 {
		if cfg.Timeout > 0 {
			return cfg.Timeout
		}
		return timeoutBudget[i]
	}

	eng := sim.New()
	met := cfg.Obs.RoundMetrics()
	tr := &faults.Transport{Eng: eng, Inj: inj, Hop: hop, Obs: cfg.Obs.FaultMetrics()}
	children := cfg.Tree.Children()
	// timeoutBudget[i] = 4 hops (request + reply round trip with
	// slack) beyond the largest child budget.
	var computeBudget func(i int) float64
	computeBudget = func(i int) float64 {
		worst := 0.0
		for _, c := range children[i] {
			if b := computeBudget(c); b > worst {
				worst = b
			}
		}
		if len(children[i]) == 0 {
			timeoutBudget[i] = 0
			return 0
		}
		timeoutBudget[i] = worst + 4*hop
		return timeoutBudget[i]
	}
	res := &Result{
		Alloc:     make([]float64, n),
		Payments:  make([]float64, n),
		Utilities: make([]float64, n),
	}

	// Per-node aggregation state for the convergecast.
	partial := make([]float64, n)  // accumulated sum of 1/b over own subtree
	awaiting := make([]int, n)     // children not yet reported
	requested := make([]bool, n)   // node already processed the request
	reportedUp := make([]bool, n)  // node already sent its aggregate
	claimsLeft := make([]int, n)   // children whose payment claim is pending
	claimed := make([]float64, n)  // payment each node claims for itself
	ready := make([]bool, n)       // node has computed its own claim
	childDone := make([][]bool, n) // which children reported, by child position
	claimDone := make([][]bool, n) // which children's claims were audited
	missing := make([]bool, n)     // cut off during aggregation
	timeouts := make([]*sim.Event, n)
	flagged := make([]bool, n)
	var S float64

	childPos := func(p, c int) int {
		for k, cc := range children[p] {
			if cc == c {
				return k
			}
		}
		return -1
	}

	// selfPayment computes node i's payment from purely local data
	// plus the aggregate S: compensation ť*x plus bonus
	// L_{-i} - L_real where L_{-i} = R^2/(S - 1/b) and
	// L_real = R^2/S - b*x^2 + ť*x^2.
	selfPayment := func(i int, s float64) (payment, utility float64) {
		a := cfg.Agents[i]
		x := cfg.Rate / (a.Bid * s)
		lExcl := cfg.Rate * cfg.Rate / (s - 1/a.Bid)
		lReal := cfg.Rate*cfg.Rate/s - a.Bid*x*x + a.Exec*x*x
		bonus := lExcl - lReal
		comp := a.Exec * x
		return comp + bonus, bonus
	}

	var disseminate func(i int, s float64)
	var sendClaim func(i int)

	// Phase 5: claims travel upward; parents audit. Duplicate claims
	// and claims arriving after the parent closed its audit are
	// ignored.
	sendClaim = func(i int) {
		claim := claimed[i]
		p := cfg.Tree.Parent[i]
		if p == -1 {
			return // the root's own claim is audited by convention (publicly recomputable)
		}
		pos := childPos(p, i)
		tr.Send(i, p, "claim", func() {
			if claimDone[p] == nil || claimDone[p][pos] {
				return // duplicate or parent never initialized
			}
			claimDone[p][pos] = true
			// Parent p recomputes i's payment from i's disclosed
			// (bid, exec) and the public S.
			want, _ := selfPayment(i, S)
			if math.Abs(want-claim) > 1e-9*(1+math.Abs(want)) {
				flagged[i] = true
				met.AuditFlagged(1)
				cfg.Obs.Emit(obs.Event{
					Time: eng.Now(), Layer: "distmech", Kind: "audit-flag",
					Node: i, Value: claim - want,
				})
			}
			claimsLeft[p]--
			if claimsLeft[p] == 0 && ready[p] {
				sendClaim(p)
			}
		})
	}

	// markMissing cuts off a whole subtree (rooted at a child that
	// never reported — crashed itself or behind a crash or a lost
	// message).
	var markMissing func(i int)
	markMissing = func(i int) {
		missing[i] = true
		for _, c := range children[i] {
			markMissing(c)
		}
	}

	// Phase 3/4: S travels downward over the reachable tree; nodes
	// compute allocations and payments, then leaves of the reachable
	// tree start the claim convergecast. Duplicate deliveries of the
	// aggregate are ignored.
	disseminate = func(i int, s float64) {
		if ready[i] {
			return
		}
		res.Alloc[i] = cfg.Rate / (cfg.Agents[i].Bid * s)
		pay, util := selfPayment(i, s)
		res.Payments[i] = pay
		res.Utilities[i] = util
		claimed[i] = pay
		if f := inj.ClaimFactor(i); f != 1 {
			claimed[i] = pay*f + 0.01
		}
		ready[i] = true
		reachable := 0
		for pos, c := range children[i] {
			if !childDone[i][pos] {
				continue // subtree cut off during aggregation
			}
			reachable++
			c := c
			tr.Send(i, c, "disseminate", func() { disseminate(c, s) })
		}
		claimsLeft[i] = reachable
		if reachable == 0 {
			sendClaim(i)
		}
	}

	// Phase 2: convergecast of partial sums, with parent timeouts for
	// children that never report. Duplicate aggregates and aggregates
	// arriving after the parent already reported up are ignored.
	var reportUp func(i int)
	reportUp = func(i int) {
		if reportedUp[i] {
			return
		}
		reportedUp[i] = true
		p := cfg.Tree.Parent[i]
		value := partial[i]
		if p == -1 {
			S = value
			cfg.Obs.Emit(obs.Event{
				Time: eng.Now(), Layer: "distmech", Kind: "aggregate-complete",
				Node: 0, Value: S,
			})
			disseminate(0, S)
			return
		}
		pos := childPos(p, i)
		tr.Send(i, p, "aggregate", func() {
			if reportedUp[p] || childDone[p][pos] {
				return // late (parent moved on) or duplicate
			}
			partial[p] += value
			childDone[p][pos] = true
			awaiting[p]--
			if awaiting[p] == 0 {
				if timeouts[p] != nil {
					timeouts[p].Cancel()
				}
				reportUp(p)
			}
		})
	}

	// Phase 1: request broadcast; initializes per-node state. Crashed
	// and silent nodes swallow the request (the message is still sent
	// and counted) and their parent's timeout eventually cuts the
	// subtree.
	var request func(i int)
	request = func(i int) {
		if requested[i] || dead(i) {
			return
		}
		requested[i] = true
		partial[i] = 1 / cfg.Agents[i].Bid
		awaiting[i] = len(children[i])
		childDone[i] = make([]bool, len(children[i]))
		claimDone[i] = make([]bool, len(children[i]))
		for _, c := range children[i] {
			c := c
			tr.Send(i, c, "request", func() { request(c) })
		}
		if len(children[i]) == 0 {
			reportUp(i)
			return
		}
		timeouts[i] = eng.Schedule(timeoutFor(i), func() {
			if reportedUp[i] || awaiting[i] == 0 {
				return
			}
			met.TimeoutFired()
			cfg.Obs.Emit(obs.Event{
				Time: eng.Now(), Layer: "distmech", Kind: "timeout",
				Node: i, Value: timeoutFor(i),
			})
			for pos, c := range children[i] {
				if !childDone[i][pos] {
					markMissing(c)
					met.SubtreeCut(1)
					cfg.Obs.Emit(obs.Event{
						Time: eng.Now(), Layer: "distmech", Kind: "subtree-cut",
						Node: c,
					})
				}
			}
			awaiting[i] = 0
			reportUp(i)
		})
	}
	computeBudget(0)
	request(0)
	if cfg.Deadline > 0 {
		eng.RunUntil(cfg.Deadline)
	} else {
		eng.Run()
	}

	res.Messages = tr.Sent
	res.Lost = tr.Lost
	res.Duplicated = tr.Duplicated
	res.CompletionTime = eng.Now()
	met.AddMessages(tr.Sent, tr.Lost, tr.Duplicated)
	fail := func(outcome string) {
		met.RoundDone(outcome, res.CompletionTime)
		cfg.Obs.Emit(obs.Event{
			Time: res.CompletionTime, Layer: "distmech", Kind: "round-failed",
			Node: -1, Detail: outcome,
		})
	}

	for i := range missing {
		if missing[i] {
			res.Missing = append(res.Missing, i)
		}
	}
	if n-len(res.Missing) < 2 {
		fail("quorum-lost")
		return nil, fmt.Errorf("%w (%d of %d)", ErrQuorumLost, n-len(res.Missing), n)
	}

	if S == 0 {
		if cfg.Deadline > 0 && eng.Pending() > 0 {
			fail("deadline")
			return nil, fmt.Errorf("%w: aggregation still pending at t=%g",
				ErrDeadlineExceeded, cfg.Deadline)
		}
		fail("partial-aggregate")
		return nil, ErrAggregationIncomplete
	}
	// Nodes that contributed to S but never received it back have no
	// allocation; the round under-serves the rate and must be redone.
	unserved := 0
	for i := 0; i < n; i++ {
		if !missing[i] && !ready[i] {
			unserved++
		}
	}
	if unserved > 0 {
		if cfg.Deadline > 0 && eng.Pending() > 0 {
			fail("deadline")
			return nil, fmt.Errorf("%w: dissemination still pending at t=%g",
				ErrDeadlineExceeded, cfg.Deadline)
		}
		fail("partial-dissemination")
		return nil, fmt.Errorf("%w (%d nodes)", ErrDisseminationIncomplete, unserved)
	}
	// Audit coverage: claims that never arrived (lost or still in
	// flight at the deadline) leave their subtree unaudited.
	for i := 0; i < n; i++ {
		if !missing[i] && ready[i] {
			res.ClaimsOutstanding += claimsLeft[i]
		}
	}
	// Root claims are checked directly here (the root's payment is
	// recomputable by everyone from S).
	for i := range flagged {
		if flagged[i] {
			res.Flagged = append(res.Flagged, i)
		}
	}
	if inj.ClaimFactor(0) != 1 {
		res.Flagged = append([]int{0}, res.Flagged...)
		met.AuditFlagged(1)
		cfg.Obs.Emit(obs.Event{
			Time: res.CompletionTime, Layer: "distmech", Kind: "audit-flag", Node: 0,
		})
	}
	res.S = S
	// Safety: allocation conserves the rate.
	if !feasible(res.Alloc, cfg.Rate) {
		fail("conservation")
		return nil, ErrConservation
	}
	met.ClaimsPending(res.ClaimsOutstanding)
	met.RoundDone("ok", res.CompletionTime)
	cfg.Obs.Emit(obs.Event{
		Time: res.CompletionTime, Layer: "distmech", Kind: "round-ok",
		Node: -1, Value: S,
	})
	return res, nil
}

func feasible(x []float64, rate float64) bool {
	var k numeric.KahanSum
	for _, v := range x {
		if v < 0 || math.IsNaN(v) {
			return false
		}
		k.Add(v)
	}
	return math.Abs(k.Value()-rate) <= 1e-6*(1+rate)
}
