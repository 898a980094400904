package lbmech

import (
	"errors"
	"fmt"

	"repro/internal/game"
	"repro/internal/mech"
	"repro/internal/protocol"
)

// System is a heterogeneous distributed system of self-interested
// computers governed by a load balancing mechanism: the high-level
// handle for configuring and running the mechanism.
type System struct {
	agents    []mech.Agent
	rate      float64
	model     mech.Model
	mechanism mech.Mechanism
}

// Option configures a System.
type Option func(*System) error

// WithModel selects the latency model: LinearModel() (default) or
// MM1Model().
func WithModel(m Model) Option {
	return func(s *System) error {
		if m == nil {
			return errors.New("lbmech: nil model")
		}
		s.model = m
		s.mechanism = mech.CompensationBonus{Model: m}
		return nil
	}
}

// WithMechanism overrides the mechanism, e.g. VCG() or Classical()
// for baseline comparisons. The mechanism must be consistent with the
// chosen model — prefer constructing it with the same Model value.
func WithMechanism(m Mechanism) Option {
	return func(s *System) error {
		if m == nil {
			return errors.New("lbmech: nil mechanism")
		}
		s.mechanism = m
		return nil
	}
}

// NewSystem creates a system of computers with the given true latency
// parameters (all initially truthful) facing the given total job
// arrival rate. By default it uses the linear latency model and the
// paper's compensation-and-bonus mechanism with verification.
func NewSystem(trueValues []float64, rate float64, opts ...Option) (*System, error) {
	if len(trueValues) < 2 {
		return nil, mech.ErrNeedTwoAgents
	}
	if rate < 0 {
		return nil, fmt.Errorf("lbmech: negative rate %g", rate)
	}
	for i, t := range trueValues {
		if t <= 0 {
			return nil, fmt.Errorf("lbmech: invalid true value trueValues[%d] = %g", i, t)
		}
	}
	s := &System{
		agents:    mech.Truthful(trueValues),
		rate:      rate,
		model:     mech.LinearModel{},
		mechanism: mech.CompensationBonus{},
	}
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// N returns the number of computers.
func (s *System) N() int { return len(s.agents) }

// Rate returns the total job arrival rate.
func (s *System) Rate() float64 { return s.rate }

// Agents returns a copy of the current agent population.
func (s *System) Agents() []Agent {
	return append([]Agent(nil), s.agents...)
}

// SetBid sets computer i's reported value.
func (s *System) SetBid(i int, bid float64) error {
	if i < 0 || i >= len(s.agents) {
		return fmt.Errorf("lbmech: computer index %d out of range", i)
	}
	if bid <= 0 {
		return fmt.Errorf("lbmech: invalid bid %g", bid)
	}
	s.agents[i].Bid = bid
	return nil
}

// SetExec sets computer i's execution value. The paper's model allows
// only ť >= t (a computer cannot run faster than its capacity).
func (s *System) SetExec(i int, exec float64) error {
	if i < 0 || i >= len(s.agents) {
		return fmt.Errorf("lbmech: computer index %d out of range", i)
	}
	if exec < s.agents[i].True {
		return fmt.Errorf("lbmech: execution value %g below true value %g", exec, s.agents[i].True)
	}
	s.agents[i].Exec = exec
	return nil
}

// Reset returns every computer to truthful play.
func (s *System) Reset() {
	for i := range s.agents {
		s.agents[i].Bid = s.agents[i].True
		s.agents[i].Exec = s.agents[i].True
	}
}

// Allocation returns the load each computer receives under the
// current bids (the PR algorithm for the linear model).
func (s *System) Allocation() ([]float64, error) {
	return s.model.Alloc(mech.Bids(s.agents), s.rate)
}

// OptimalLatency returns the minimum total latency achievable if every
// computer were truthful.
func (s *System) OptimalLatency() (float64, error) {
	return s.model.OptimalTotal(mech.Trues(s.agents), s.rate)
}

// Run executes the mechanism on the current plays: allocation,
// verified payments and utilities.
func (s *System) Run() (*Outcome, error) {
	return s.mechanism.Run(s.agents, s.rate)
}

// VerifyTruthfulness grid-searches deviations for computer i and
// reports whether any beats truth-telling (none should, for the
// paper's mechanism).
func (s *System) VerifyTruthfulness(i int) (*TruthfulnessReport, error) {
	return game.VerifyTruthfulness(s.mechanism, s.agents, s.rate, i, game.DefaultGrid(), 0)
}

// RunProtocol executes the full message-level protocol round —
// bid collection, PR allocation, simulated execution, execution-value
// estimation (the verification step) and payment delivery — with jobs
// simulated jobs and the given seed. It is only available for the
// linear model.
func (s *System) RunProtocol(jobs int, seed uint64) (*ProtocolResult, error) {
	if _, ok := s.model.(mech.LinearModel); !ok {
		return nil, errors.New("lbmech: protocol rounds require the linear model")
	}
	strategies := make([]protocol.Strategy, len(s.agents))
	for i, a := range s.agents {
		strategies[i] = protocol.FactorStrategy{
			BidFactor:  a.Bid / a.True,
			ExecFactor: a.Exec / a.True,
		}
	}
	return protocol.Run(protocol.Config{
		Trues:      mech.Trues(s.agents),
		Strategies: strategies,
		Rate:       s.rate,
		Jobs:       jobs,
		Seed:       seed,
	})
}
