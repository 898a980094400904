package distmech

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/faults"
	"repro/internal/mech"
)

// Typed round-outcome errors. Supervisors classify failures by
// matching these with errors.Is, so every way a round can fail has
// exactly one sentinel.
var (
	// ErrRootCrashed means the fault plan marks the coordinator
	// (node 0) crashed or silent; the round cannot even start.
	ErrRootCrashed = errors.New("distmech: the coordinator (node 0) cannot crash")
	// ErrQuorumLost means fewer than two nodes stayed reachable — the
	// minimum the PR allocation needs.
	ErrQuorumLost = errors.New("distmech: fewer than two reachable nodes")
	// ErrAggregationIncomplete means the convergecast never delivered
	// an aggregate S to the coordinator.
	ErrAggregationIncomplete = errors.New("distmech: aggregation did not complete")
	// ErrDeadlineExceeded means the round was cut off by
	// Config.Deadline with work still pending.
	ErrDeadlineExceeded = errors.New("distmech: round deadline exceeded")
	// ErrDisseminationIncomplete means some nodes contributed to the
	// aggregate but never received it back, so their allocations are
	// unassigned and the round under-serves the rate.
	ErrDisseminationIncomplete = errors.New("distmech: aggregate never reached some contributors")
	// ErrConservation means the assembled allocation does not conserve
	// the arrival rate.
	ErrConservation = errors.New("distmech: allocation failed conservation")
)

// ValueError reports an out-of-domain numeric Config field.
type ValueError struct {
	// Field names the offending Config field.
	Field string
	// Value is the rejected value.
	Value float64
}

// Error implements error.
func (e *ValueError) Error() string {
	return fmt.Sprintf("distmech: invalid %s %g", e.Field, e.Value)
}

// Validate checks a Config before any simulation work: tree shape,
// agent count and parameters, numeric field domains, and the nodes a
// fault plan names. It returns typed errors (ValueError,
// *faults.RangeError, mech.ErrNeedTwoAgents or a topology error)
// rather than panicking or silently ignoring bad entries.
func (cfg Config) Validate() error {
	if err := cfg.Tree.Validate(); err != nil {
		return err
	}
	n := cfg.Tree.N()
	if len(cfg.Agents) != n {
		return fmt.Errorf("distmech: %d agents for %d tree nodes", len(cfg.Agents), n)
	}
	if n < 2 {
		return mech.ErrNeedTwoAgents
	}
	if cfg.Rate <= 0 || math.IsNaN(cfg.Rate) {
		return &ValueError{Field: "rate", Value: cfg.Rate}
	}
	for i, a := range cfg.Agents {
		if a.Bid <= 0 || math.IsNaN(a.Bid) {
			return &ValueError{Field: fmt.Sprintf("agent %d bid", i), Value: a.Bid}
		}
		if a.Exec <= 0 || math.IsNaN(a.Exec) {
			return &ValueError{Field: fmt.Sprintf("agent %d exec", i), Value: a.Exec}
		}
	}
	if cfg.HopDelay < 0 || math.IsNaN(cfg.HopDelay) {
		return &ValueError{Field: "hop delay", Value: cfg.HopDelay}
	}
	if cfg.Timeout < 0 || math.IsNaN(cfg.Timeout) {
		return &ValueError{Field: "timeout", Value: cfg.Timeout}
	}
	if cfg.Deadline < 0 || math.IsNaN(cfg.Deadline) {
		return &ValueError{Field: "deadline", Value: cfg.Deadline}
	}
	return faults.CheckNodes(cfg.Faults, n)
}
