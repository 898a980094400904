package mech

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/numeric"
)

// Engine amortizes allocations across many runs of one mechanism —
// the truthfulness grid searches, collusion scans and Monte Carlo
// replications evaluate the same mechanism thousands of times on
// same-sized populations, and with an Engine the steady-state cost of
// each evaluation is zero heap allocations for the linear model.
//
// The Outcome returned by Run is owned by the engine and is valid only
// until the next Run call; callers that need to retain one across runs
// must Clone it first. An Engine is not safe for concurrent use —
// create one per goroutine.
type Engine struct {
	m  Mechanism
	ir intoRunner
	o  Outcome
	s  scratch
}

// intoRunner is implemented by mechanisms that can write their result
// into a reused Outcome and scratch space.
type intoRunner interface {
	runInto(o *Outcome, s *scratch, agents []Agent, rate float64) error
}

// NewEngine returns an engine evaluating m. Mechanisms without scratch
// support (e.g. ArcherTardos) still work, falling back to their plain
// Run.
func NewEngine(m Mechanism) *Engine {
	e := &Engine{m: m}
	if ir, ok := m.(intoRunner); ok {
		e.ir = ir
	}
	return e
}

// Run evaluates the mechanism, reusing the engine's outcome and
// scratch buffers. The returned Outcome is invalidated by the next Run.
func (e *Engine) Run(agents []Agent, rate float64) (*Outcome, error) {
	if e.ir == nil {
		return e.m.Run(agents, rate)
	}
	if err := e.ir.runInto(&e.o, &e.s, agents, rate); err != nil {
		return nil, err
	}
	return &e.o, nil
}

// runFresh executes an intoRunner mechanism into a fresh Outcome; it
// backs the mechanisms' plain Run methods.
func runFresh(r intoRunner, agents []Agent, rate float64) (*Outcome, error) {
	var s scratch
	o := &Outcome{}
	if err := r.runInto(o, &s, agents, rate); err != nil {
		return nil, err
	}
	return o, nil
}

// Clone returns a deep copy of the outcome, detached from any engine
// buffers.
func (o *Outcome) Clone() *Outcome {
	c := *o
	c.Alloc = append([]float64(nil), o.Alloc...)
	c.Compensation = append([]float64(nil), o.Compensation...)
	c.Bonus = append([]float64(nil), o.Bonus...)
	c.Payment = append([]float64(nil), o.Payment...)
	c.Valuation = append([]float64(nil), o.Valuation...)
	c.Utility = append([]float64(nil), o.Utility...)
	return &c
}

// reset prepares the outcome for n agents, reusing slice capacity and
// zeroing every per-agent entry.
func (o *Outcome) reset(name string, mdl Model, kind ValuationKind, rate float64, n int) {
	o.Mechanism, o.Model, o.Kind, o.Rate = name, mdl.Name(), kind, rate
	o.BidLatency, o.RealLatency = 0, 0
	o.Alloc = numeric.Resize(o.Alloc, n)
	o.Compensation = numeric.Resize(o.Compensation, n)
	o.Bonus = numeric.Resize(o.Bonus, n)
	o.Payment = numeric.Resize(o.Payment, n)
	o.Valuation = numeric.Resize(o.Valuation, n)
	o.Utility = numeric.Resize(o.Utility, n)
	clear(o.Alloc)
	clear(o.Compensation)
	clear(o.Bonus)
	clear(o.Payment)
	clear(o.Valuation)
	clear(o.Utility)
}

// scratch holds the reusable working buffers of one mechanism
// evaluation.
type scratch struct {
	bids    []float64 // reported values
	cost    []float64 // per-agent bid-valued total costs
	looCost []float64 // leave-one-out sums of cost
	loo     []float64 // leave-one-out optimal totals
	excl    []float64 // exclusion buffer for the reference fallback
}

// gatherBids fills s.bids from the agent reports.
func (s *scratch) gatherBids(agents []Agent) []float64 {
	s.bids = numeric.Resize(s.bids, len(agents))
	for i, a := range agents {
		s.bids[i] = a.Bid
	}
	return s.bids
}

// leaveOneOutOptima fills s.loo[i] with the optimal total latency of
// the system without agent i: in one pass for LeaveOneOutModel
// implementations, otherwise by the per-exclusion reference path
// against a reused exclusion buffer.
func (s *scratch) leaveOneOutOptima(mdl Model, values []float64, rate float64) error {
	n := len(values)
	s.loo = numeric.Resize(s.loo, n)
	if lm, ok := mdl.(LeaveOneOutModel); ok {
		out, err := lm.LeaveOneOutOptima(values, rate, s.loo)
		s.loo = out
		return err
	}
	if n == 0 {
		return nil
	}
	s.excl = numeric.Resize(s.excl, n-1)
	for i := range values {
		sub := alloc.ExcludeInto(s.excl, values, i)
		v, err := mdl.OptimalTotal(sub, rate)
		if err != nil {
			return fmt.Errorf("mech: exclusion optimum for agent %d: %w", i, err)
		}
		s.loo[i] = v
	}
	return nil
}

// bidCosts fills s.cost[i] = TotalCost(bid_i, x_i) and s.looCost with
// its leave-one-out sums, returning the compensated full sum (the bid
// total latency).
func (s *scratch) bidCosts(mdl Model, bids, x []float64) float64 {
	s.cost = numeric.Resize(s.cost, len(x))
	for i := range x {
		s.cost[i] = mdl.TotalCost(bids[i], x[i])
	}
	s.looCost = numeric.LeaveOneOutSums(s.cost, s.looCost)
	return numeric.Sum(s.cost)
}

// modelAllocInto computes the model allocation into dst when the model
// supports in-place allocation, falling back to a fresh slice.
func modelAllocInto(mdl Model, values []float64, rate float64, dst []float64) ([]float64, error) {
	if ip, ok := mdl.(InPlaceAllocator); ok {
		return ip.AllocInto(values, rate, dst)
	}
	return mdl.Alloc(values, rate)
}

// realTotal returns the realized total latency (every agent executing
// at its execution value).
func realTotal(mdl Model, agents []Agent, x []float64) float64 {
	var k numeric.KahanSum
	for i, a := range agents {
		k.Add(mdl.TotalCost(a.Exec, x[i]))
	}
	return k.Value()
}
