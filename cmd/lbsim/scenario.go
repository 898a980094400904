package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/faults"
	"repro/internal/mech"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/rounds"
)

// computer is one machine in a scenario file.
type computer struct {
	// True is the private latency parameter (for the linear model) or
	// mean service time (for mm1).
	True float64 `json:"true"`
	// BidFactor scales the reported value; 0 means 1 (truthful).
	BidFactor float64 `json:"bid_factor,omitempty"`
	// ExecFactor scales the execution value; 0 means 1 (full
	// capacity).
	ExecFactor float64 `json:"exec_factor,omitempty"`
}

// scenario is a complete simulation description loaded from JSON, so
// that custom systems can be simulated without writing Go: it names
// the latency model, the arrival rate, and per-computer true values
// with optional bid/execution deviation factors, and runs as a full
// verification-protocol round.
type scenario struct {
	// Name labels the scenario in reports.
	Name string `json:"name"`
	// Model selects the latency family: "linear" (default) or "mm1".
	Model string `json:"model,omitempty"`
	// Rate is the total job arrival rate.
	Rate float64 `json:"rate"`
	// Jobs is the execution-simulation budget (0 = protocol default).
	Jobs int `json:"jobs,omitempty"`
	// Seed drives the randomness (0 allowed).
	Seed uint64 `json:"seed,omitempty"`
	// Computers are the machines.
	Computers []computer `json:"computers"`
	// FaultSpec composes a fault plan for the round in the package
	// faults spec syntax, e.g. "drop=0.05,silent=2".
	FaultSpec string `json:"faults,omitempty"`
	// AllowDropouts tolerates agents whose bids never arrive.
	AllowDropouts bool `json:"allow_dropouts,omitempty"`

	// Obs receives metrics and trace events from the round (the
	// -metrics and -trace flags).
	Obs *obs.Observer `json:"-"`
}

// models maps a scenario's model name to the protocol round's latency
// model.
var models = map[string]mech.Model{"linear": mech.LinearModel{}, "mm1": mech.MM1Model{}}

// loadScenario parses and validates a scenario from JSON.
func loadScenario(r io.Reader) (*scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// validate checks the scenario's internal consistency and fills
// defaults.
func (s *scenario) validate() error {
	if s.Model == "" {
		s.Model = "linear"
	}
	if models[s.Model] == nil {
		return fmt.Errorf("scenario: unknown model %q (want linear or mm1)", s.Model)
	}
	if s.Rate <= 0 {
		return fmt.Errorf("scenario: invalid rate %g", s.Rate)
	}
	if len(s.Computers) < 2 {
		return errors.New("scenario: need at least two computers")
	}
	for i := range s.Computers {
		c := &s.Computers[i]
		if c.True <= 0 {
			return fmt.Errorf("scenario: computer %d has invalid true value %g", i, c.True)
		}
		if c.BidFactor == 0 {
			c.BidFactor = 1
		}
		if c.ExecFactor == 0 {
			c.ExecFactor = 1
		}
		if c.BidFactor < 0 || c.ExecFactor < 0 {
			return fmt.Errorf("scenario: computer %d has negative factors", i)
		}
	}
	if _, err := s.injector(); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	return nil
}

// trues returns the true-value vector.
func (s *scenario) trues() []float64 {
	out := make([]float64, len(s.Computers))
	for i, c := range s.Computers {
		out[i] = c.True
	}
	return out
}

// strategies returns the per-computer protocol strategies.
func (s *scenario) strategies() []protocol.Strategy {
	out := make([]protocol.Strategy, len(s.Computers))
	for i, c := range s.Computers {
		out[i] = protocol.FactorStrategy{BidFactor: c.BidFactor, ExecFactor: c.ExecFactor}
	}
	return out
}

// computerSpecs returns the population as the multi-round system's
// computers.
func (s *scenario) computerSpecs() []rounds.ComputerSpec {
	out := make([]rounds.ComputerSpec, len(s.Computers))
	for i, st := range s.strategies() {
		out[i] = rounds.ComputerSpec{True: s.Computers[i].True, Strategy: st}
	}
	return out
}

// agents returns the population as the distributed round's agents,
// named C1..Cn.
func (s *scenario) agents() []mech.Agent {
	out := make([]mech.Agent, len(s.Computers))
	for i, c := range s.Computers {
		out[i] = mech.Agent{Name: fmt.Sprintf("C%d", i+1), True: c.True,
			Bid: c.BidFactor * c.True, Exec: c.ExecFactor * c.True}
	}
	return out
}

// linearOnly refuses a scenario that runner cannot run: the multi-round
// system and the distributed round price linear latencies only, and
// each has its own answer to an unresponsive computer in place of
// allow_dropouts.
func (s *scenario) linearOnly(runner string) error {
	if s.Model != "linear" {
		return fmt.Errorf("scenario %s: %s runs linear populations only, not %s", s.Name, runner, s.Model)
	}
	if s.AllowDropouts {
		return fmt.Errorf("scenario %s: %s does not read allow_dropouts", s.Name, runner)
	}
	return nil
}

// injector composes the scenario's fault plan, nil when it names none.
func (s *scenario) injector() (faults.Injector, error) {
	if s.FaultSpec == "" {
		return nil, nil
	}
	plan, err := faults.ParseSpec(s.FaultSpec)
	if err != nil {
		return nil, err
	}
	return plan, nil
}

// run executes the scenario as a full protocol round under its model.
func (s *scenario) run() (*protocol.Result, error) {
	inj, err := s.injector()
	if err != nil {
		return nil, err
	}
	cfg := protocol.Config{
		Model:         models[s.Model],
		Trues:         s.trues(),
		Strategies:    s.strategies(),
		Rate:          s.Rate,
		Jobs:          s.Jobs,
		Seed:          s.Seed,
		Faults:        inj,
		AllowDropouts: s.AllowDropouts,
		Obs:           s.Obs,
	}
	return protocol.Run(cfg)
}
