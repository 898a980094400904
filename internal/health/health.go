// Package health closes the loop between observation and allocation:
// the paper's verification step — "the processing rate with which the
// jobs were actually executed is known to the mechanism" — run
// continuously against live traffic instead of once per round, driving
// serving decisions the way an SRE control loop does.
//
// A Controller consumes per-computer realized-latency estimates
// (estimate.Estimate streams, fed from live traffic or a synthetic
// probe Source), verifies each against the computer's declared value
// with estimate.VerifyWithMargin, and runs a per-computer state
// machine:
//
//	healthy → suspect → degraded → ejected → probing → healthy
//
// with nginx-style max_fails / fail_timeout semantics: a computer that
// fails verification MaxFails times inside a FailWindow-tick sliding
// window is degraded (its capacity discounted), a second failing
// window — or two audit strikes fed from supervise.Classify verdicts —
// ejects it, an ejected computer sits out FailTimeout ticks before
// being probed, and a probed computer that passes RecoverStreak
// consecutive checks is reinstated at a capped weight that ramps back
// to full over SlowStartTicks control intervals.
//
// Trip and recovery are deliberately asymmetric (hysteresis): a fail
// requires the estimate to exceed declared·(1+Margin) at z > ZTrip,
// while a recovery credit requires z < ZRecover with ZRecover < ZTrip.
// Observations landing between the two thresholds are a dead band that
// neither strikes nor heals, so a computer hovering at the boundary —
// or flapping deterministically, see faults.Flap — cannot oscillate
// the control loop at observation frequency.
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
	"errors"
	"fmt"
	"math"

	"repro/internal/estimate"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/supervise"
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

// Config tunes the control loop. The zero value gets production-ish
// defaults; see each field.
type Config struct {
	// ZTrip is the one-sided z threshold a verification failure must
	// exceed (default 3, ~0.1% per-observation false positives).
	ZTrip float64
	// ZRecover is the z threshold a recovery credit must stay under
	// (default 1). Values >= ZTrip are clamped to ZTrip/2: recovery
	// must be strictly harder than not-failing or hysteresis is lost.
	ZRecover float64
	// Margin is the practical-significance margin passed to
	// estimate.VerifyWithMargin (default 0.05: slowdowns under 5% are
	// not worth punishing).
	Margin float64
	// MaxFails is the nginx max_fails analog: verification failures
	// inside one FailWindow before the computer is degraded
	// (default 3).
	MaxFails int
	// FailWindow is the sliding window, in control ticks, over which
	// fails accumulate (default 8).
	FailWindow int
	// AuditStrikes is the two-strike audit policy: supervised-round
	// audit flags (supervise.Classify verdicts) before immediate
	// ejection from any state (default 2).
	AuditStrikes int
	// FailTimeout is the nginx fail_timeout analog: ticks an ejected
	// computer sits out before the controller starts probing it
	// (default 10).
	FailTimeout int
	// RecoverStreak is how many consecutive recovery credits — probes
	// under z < ZRecover — reinstate a probing computer, or heal a
	// suspect/degraded one (default 3).
	RecoverStreak int
	// DegradedWeight is the capacity factor of a degraded computer
	// (default 0.5).
	DegradedWeight float64
	// SlowStartWeight is the capped weight a reinstated computer
	// re-enters at (default 0.25).
	SlowStartWeight float64
	// SlowStartTicks is how many control ticks the weight takes to
	// ramp from SlowStartWeight back to 1 (default 8).
	SlowStartTicks int
}

func (c Config) withDefaults() Config {
	if c.ZTrip <= 0 {
		c.ZTrip = 3
	}
	if c.ZRecover <= 0 {
		c.ZRecover = 1
	}
	if c.ZRecover >= c.ZTrip {
		c.ZRecover = c.ZTrip / 2
	}
	if c.Margin < 0 || math.IsNaN(c.Margin) {
		c.Margin = 0
	} else if c.Margin == 0 {
		c.Margin = 0.05
	}
	if c.MaxFails <= 0 {
		c.MaxFails = 3
	}
	if c.FailWindow <= 0 {
		c.FailWindow = 8
	}
	if c.AuditStrikes <= 0 {
		c.AuditStrikes = 2
	}
	if c.FailTimeout <= 0 {
		c.FailTimeout = 10
	}
	if c.RecoverStreak <= 0 {
		c.RecoverStreak = 3
	}
	if c.DegradedWeight <= 0 || c.DegradedWeight > 1 || math.IsNaN(c.DegradedWeight) {
		c.DegradedWeight = 0.5
	}
	if c.SlowStartWeight <= 0 || c.SlowStartWeight > 1 || math.IsNaN(c.SlowStartWeight) {
		c.SlowStartWeight = 0.25
	}
	if c.SlowStartTicks <= 0 {
		c.SlowStartTicks = 8
	}
	return c
}

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
	// two-strike, audit-two-strike, recovered, fail-timeout,
	// probe-fail, probe-timeout, reinstated.
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
	auditStrikes int
	ejectedAt    int // tick of the last ejection
	reinstatedAt int // tick of the last slow-start reinstatement, -1 when none
}

// Controller is the health control loop. See the package comment.
type Controller struct {
	cfg  Config
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
// allocation). met receives the HealthMetrics bundle; ob the trace
// events. Both may be nil.
func New(cfg Config, reg *registry.Registry, ob *obs.Observer) *Controller {
	return &Controller{
		cfg:  cfg.withDefaults(),
		reg:  reg,
		met:  ob.HealthMetrics(),
		tr:   ob,
		byID: map[int]*machine{},
		corr: registry.Correction{Weights: map[int]float64{}, Drop: map[int]bool{}},
		seen: map[int]int{},
	}
}

// Config returns the effective (defaulted) configuration.
func (c *Controller) Config() Config { return c.cfg }

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

// ErrUntracked reports audit feedback for an untracked computer.
var ErrUntracked = errors.New("health: untracked computer")

// Audit feeds one supervised-round audit strike for a computer,
// sharing supervise.Classify's verdict semantics: an audit flag is
// definitive evidence (a payment over-claim caught red-handed), so
// AuditStrikes of them eject immediately from any state at the next
// Tick, bypassing the statistical max_fails path.
func (c *Controller) Audit(id int) error {
	m, ok := c.byID[id]
	if !ok {
		return ErrUntracked
	}
	m.auditStrikes++
	return nil
}

// ApplyVerdict feeds a supervise.Classify verdict into the audit
// path: every roster-local index in v.ExcludeAudit is translated
// through ids (the roster's registry ids) and counted as an audit
// strike. Unknown or out-of-range indices are skipped, mirroring the
// classifier's own sanitization.
func (c *Controller) ApplyVerdict(v supervise.Verdict, ids []int) {
	for _, local := range v.ExcludeAudit {
		if local >= 0 && local < len(ids) {
			_ = c.Audit(ids[local]) // untracked roster members are not ours to judge
		}
	}
}

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
