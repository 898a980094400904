package mech

// VCG is the Vickrey-Clarke-Groves mechanism with the Clarke pivot
// rule, computed on bids alone — the textbook baseline *without*
// verification. VCG requires the objective to be the sum of the
// agents' valuations, so it is stated in the utilitarian convention
// (ValuationTotalLatency): each agent's cost is its total-latency
// share x_i*l_i(x_i) and
//
//	P_i = L*(b_{-i}) - sum_{j != i} TotalCost(b_j, x_j(b)).
//
// VCG is dominant-strategy truthful in the bids, but because payments
// are fixed before execution, a slow executor keeps its payment; the
// latency increase it causes is punished only through its own
// valuation, never with the amplified penalty the verification
// mechanism imposes. The ablation benchmarks quantify the difference.
type VCG struct {
	// Model is the latency model; the zero value uses LinearModel.
	Model Model
}

func (m VCG) model() Model {
	if m.Model == nil {
		return LinearModel{}
	}
	return m.Model
}

// Name implements Mechanism.
func (m VCG) Name() string { return "vcg-clarke" }

// Run implements Mechanism, on the same leave-one-out engine as the
// compensation-and-bonus mechanisms: the Clarke pivot needs exactly
// the exclusion optima and "everyone but i" cost sums the engine
// produces in one pass.
func (m VCG) Run(agents []Agent, rate float64) (*Outcome, error) {
	return runFresh(m, agents, rate)
}

// runInto implements intoRunner.
func (m VCG) runInto(o *Outcome, s *scratch, agents []Agent, rate float64) error {
	if len(agents) < 2 {
		return ErrNeedTwoAgents
	}
	if err := validateAgents(agents, rate); err != nil {
		return err
	}
	mdl := m.model()
	bids := s.gatherBids(agents)
	o.reset(m.Name(), mdl, ValuationTotalLatency, rate, len(agents))
	x, err := modelAllocInto(mdl, bids, rate, o.Alloc)
	if err != nil {
		return err
	}
	o.Alloc = x
	if err := s.leaveOneOutOptima(mdl, bids, rate); err != nil {
		return err
	}
	o.BidLatency = s.bidCosts(mdl, bids, x)
	o.RealLatency = realTotal(mdl, agents, x)
	for i, a := range agents {
		// Equivalent compensation-and-bonus presentation of Clarke:
		// declared-cost reimbursement plus bid-based marginal surplus.
		o.Compensation[i] = s.cost[i]
		o.Bonus[i] = s.loo[i] - o.BidLatency
		o.Payment[i] = s.loo[i] - s.looCost[i]
		o.Valuation[i] = -mdl.TotalCost(a.Exec, x[i])
		o.Utility[i] = o.Payment[i] + o.Valuation[i]
	}
	return nil
}
