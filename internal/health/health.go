// Package health closes the loop between observation and allocation:
// the paper's verification step — "the processing rate with which the
// jobs were actually executed is known to the mechanism" — run
// continuously against live traffic instead of once per round, driving
// serving decisions the way an SRE control loop does.
//
// A Controller consumes per-computer realized-latency estimates
// (estimate.Estimate streams, fed from live traffic or a synthetic
// probe Source), verifies each against the computer's declared value
// with estimate.Verify, and runs a per-computer state machine:
//
//	healthy → suspect → degraded → ejected → probing → healthy
//
// with nginx-style max_fails / fail_timeout semantics and one policy,
// the constants below: a computer that fails verification MaxFails (3)
// times inside a FailWindow (6) tick sliding window is degraded (its
// capacity halved), a second failing window ejects it, an ejected
// computer sits out FailTimeout (8) ticks before being probed, and a
// probed computer that passes RecoverStreak (4) consecutive checks is
// reinstated at SlowStartWeight (0.25) and ramps back to full weight
// over SlowStartTicks (6) control intervals. These are the settings
// the 32-seed chaos gate (chaos_test.go) verifies.
//
// Trip and recovery are deliberately asymmetric (hysteresis): a fail
// requires estimate.Verify to flag the estimate (more than 5% above
// the declaration at z > 3), while a recovery credit requires
// z < zRecover (1). Observations landing between the two thresholds
// are a dead band that neither strikes nor heals, so a computer
// hovering at the boundary cannot oscillate the control loop at
// observation frequency. A computer flapping deterministically (see
// faults.Flap) can heal only in a healthy phase of at least
// RecoverStreak ticks, so a flapper healthy for at most 3 ticks per
// cycle never heals between its bad phases.
//
// On every tick whose state or weights changed, the controller seals a
// corrected registry epoch (registry.SealCorrected) with degraded and
// slow-starting computers' rates discounted and ejected computers
// removed, so lock-free snapshot readers always see a health-adjusted
// allocation. The controller is deterministic: decisions are pure
// functions of the observation sequence, machines are visited in
// ascending id order, and the sealed corrected epochs are bitwise
// reproducible for any registry shard count (the chaos tests pin
// this).
//
// The controller is not safe for concurrent use; it is a single
// control loop. Registry readers and writers stay fully concurrent —
// only Tick itself must be serialized.
package health

import (
	"fmt"
	"math"

	"repro/internal/estimate"
	"repro/internal/obs"
	"repro/internal/registry"
)

// State is one computer's position in the serving state machine.
type State uint8

const (
	// Healthy computers serve at full (or slow-start) weight.
	Healthy State = iota
	// Suspect computers failed verification recently but below the
	// max_fails trip; they serve at full weight under scrutiny.
	Suspect
	// Degraded computers tripped max_fails; they serve at
	// DegradedWeight while the controller watches for a second strike.
	Degraded
	// Ejected computers are removed from corrected epochs entirely.
	Ejected
	// Probing computers are still out of serving but receiving
	// synthetic probes; a recovery streak reinstates them.
	Probing
)

// String names the state.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Degraded:
		return "degraded"
	case Ejected:
		return "ejected"
	case Probing:
		return "probing"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// NumStates is the size of the state space (for table-driven tests).
const NumStates = 5

// The control policy.
const (
	// MaxFails is the nginx max_fails analog: verification failures
	// inside one FailWindow before the computer is degraded.
	MaxFails = 3
	// FailWindow is the sliding window, in control ticks, over which
	// fails accumulate.
	FailWindow = 6
	// FailTimeout is the nginx fail_timeout analog: ticks an ejected
	// computer sits out before the controller starts probing it.
	FailTimeout = 8
	// RecoverStreak is how many consecutive recovery credits — checks
	// under z < zRecover — reinstate a probing computer, or heal a
	// suspect or degraded one. It must exceed a flapping computer's
	// healthy phase, or the flapper can heal every cycle instead of
	// being ejected.
	RecoverStreak = 4
	// SlowStartWeight is the capped weight a reinstated computer
	// re-enters at.
	SlowStartWeight = 0.25
	// SlowStartTicks is how many control ticks the weight takes to
	// ramp from SlowStartWeight back to 1.
	SlowStartTicks = 6

	// zRecover is the z threshold a recovery credit must stay under;
	// it sits below estimate.Verify's trip threshold of 3, leaving the
	// dead band between them.
	zRecover = 1
	// degradedWeight is the capacity factor of a degraded computer.
	degradedWeight = 0.5
)

// Observation is one realized-latency estimate for one computer,
// delivered to the controller at a control tick. Estimates for
// computers in Probing state are the recovery probes; estimates for
// ejected computers are ignored (no traffic is routed to them, so
// anything arriving is stale).
type Observation struct {
	// ID is the registry id of the observed computer.
	ID int
	// Est is the realized execution-value estimate ť̂ (see package
	// estimate).
	Est estimate.Estimate
}

// Transition records one state change.
type Transition struct {
	// ID is the computer; Tick the control tick of the change.
	ID, Tick int
	// From and To are the states.
	From, To State
	// Reason is the canonical cause: verify-fail, max-fails,
	// two-strike, recovered, fail-timeout, probe-fail, probe-timeout,
	// reinstated.
	Reason string
	// Z is the z-score of the deciding observation (NaN when the
	// transition was not observation-driven).
	Z float64
}

// TickReport is the outcome of one control tick.
type TickReport struct {
	// Tick is the control tick just processed (1-based).
	Tick int
	// Transitions lists state changes in ascending computer-id order.
	Transitions []Transition
	// Sealed is the corrected epoch sealed this tick, nil when nothing
	// changed and the previous epoch still describes the population.
	Sealed *registry.Snapshot
}

// machine is one computer's state-machine instance.
type machine struct {
	id       int
	declared float64
	state    State
	weight   float64

	failTicks    []int // ticks of recent verification fails (pruned to the window)
	streak       int   // consecutive recovery credits
	ejectedAt    int   // tick of the last ejection
	reinstatedAt int   // tick of the last slow-start reinstatement, -1 when none
}

// Controller is the health control loop. See the package comment.
type Controller struct {
	reg  *registry.Registry
	met  *obs.HealthMetrics
	tr   *obs.Observer
	ids  []int // tracked ids, ascending
	byID map[int]*machine
	tick int

	dirty   bool // state/weight changed since the last corrected seal
	corr    registry.Correction
	seen    map[int]int  // scratch: id -> first observation index this tick
	pending []Transition // scratch: transitions of the machine being stepped
}

// New returns a controller over reg (which may be nil for a pure
// state-machine use, e.g. tests or sources that manage their own
// allocation). ob receives the HealthMetrics bundle and the trace
// events; it may be nil.
func New(reg *registry.Registry, ob *obs.Observer) *Controller {
	return &Controller{
		reg:  reg,
		met:  ob.HealthMetrics(),
		tr:   ob,
		byID: map[int]*machine{},
		corr: registry.Correction{Weights: map[int]float64{}, Drop: map[int]bool{}},
		seen: map[int]int{},
	}
}

// Track registers a computer with the controller: its registry id and
// the execution value it declared (the bid its verification is tested
// against). Tracking an already-tracked id updates the declaration
// and resets the machine to Healthy.
func (c *Controller) Track(id int, declared float64) error {
	if declared <= 0 || math.IsNaN(declared) || math.IsInf(declared, 0) {
		return fmt.Errorf("health: invalid declared value %g for computer %d", declared, id)
	}
	if id < 0 {
		return fmt.Errorf("health: invalid computer id %d", id)
	}
	if m, ok := c.byID[id]; ok {
		m.declared = declared
		c.resetMachine(m)
		c.dirty = true
		return nil
	}
	c.byID[id] = &machine{id: id, declared: declared, state: Healthy, weight: 1, reinstatedAt: -1}
	c.ids = insertSorted(c.ids, id)
	c.dirty = true
	return nil
}

// Forget stops tracking a computer (it left the population). Its
// pending corrections are lifted.
func (c *Controller) Forget(id int) {
	if _, ok := c.byID[id]; !ok {
		return
	}
	delete(c.byID, id)
	c.ids = removeSorted(c.ids, id)
	c.dirty = true
}

// State returns a computer's current state and effective weight.
func (c *Controller) State(id int) (State, float64, bool) {
	m, ok := c.byID[id]
	if !ok {
		return 0, 0, false
	}
	return m.state, m.weight, true
}

// Tracked returns the tracked ids in ascending order. The slice is
// owned by the controller.
func (c *Controller) Tracked() []int { return c.ids }

// Tick runs one control interval: verifies the tick's observations,
// steps every machine (ascending id order), and — when any state or
// weight changed — seals a corrected registry epoch. Computers with no
// observation this tick are treated per state: serving computers count
// a silent fail (a timeout is a fail, as in nginx), probing computers
// count a probe timeout, ejected computers are simply waiting.
func (c *Controller) Tick(observations []Observation) TickReport {
	c.tick++
	rep := TickReport{Tick: c.tick}

	// Index the tick's observations without allocating per machine:
	// each machine walks the shared slice from its first index.
	clear(c.seen)
	for i := range observations {
		id := observations[i].ID
		if _, ok := c.seen[id]; !ok {
			c.seen[id] = i
		}
	}

	for _, id := range c.ids {
		m := c.byID[id]
		before := m.state
		weightBefore := m.weight
		c.step(m, observations)
		if m.state != before || m.weight != weightBefore {
			c.dirty = true
		}
		rep.Transitions = append(rep.Transitions, c.pending...)
		c.pending = c.pending[:0]
	}

	// Seal a corrected epoch when anything changed. The correction is
	// rebuilt from scratch off the machines (ascending ids), so it can
	// never leak a stale entry.
	if c.dirty && c.reg != nil {
		clear(c.corr.Weights)
		clear(c.corr.Drop)
		for _, id := range c.ids {
			m := c.byID[id]
			switch {
			case m.state == Ejected || m.state == Probing:
				c.corr.Drop[id] = true
			case m.weight < 1:
				c.corr.Weights[id] = m.weight
			}
		}
		snap, err := c.reg.SealCorrected(&c.corr)
		if err == nil {
			rep.Sealed = snap
			c.met.CorrectedSealed()
		}
		// err is impossible: machine weights are always in (0, 1].
		c.dirty = false
	}

	// Export the tick's state census.
	var counts [NumStates]int
	var capacity float64
	for _, id := range c.ids {
		m := c.byID[id]
		counts[m.state]++
		if m.state != Ejected && m.state != Probing {
			capacity += m.weight
		}
	}
	if n := len(c.ids); n > 0 {
		capacity /= float64(n)
	}
	c.met.States(counts[Healthy], counts[Suspect], counts[Degraded], counts[Ejected], counts[Probing], capacity)
	return rep
}
