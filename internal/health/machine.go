package health

// This file is the per-computer state machine: step advances one
// machine by one control tick. Everything here is deterministic —
// decisions depend only on the machine's state, the policy constants
// and the tick's observations, never on wall-clock time or map order —
// and allocation-free in steady state (the fail-tick window reuses
// its backing array; transitions go through the controller's pending
// scratch).

import (
	"math"

	"repro/internal/estimate"
	"repro/internal/obs"
)

// step advances machine m by one control tick, using the tick's
// shared observation slice (m's observations are found via the seen
// index). Transitions are appended to c.pending.
func (c *Controller) step(m *machine, observations []Observation) {
	switch m.state {
	case Ejected:
		// Hold-down: sit out FailTimeout ticks, then start probing.
		if c.tick-m.ejectedAt >= FailTimeout {
			c.transition(m, Probing, "fail-timeout", math.NaN())
			m.streak = 0
		}
	case Probing:
		c.stepProbing(m, observations)
	default:
		c.stepServing(m, observations)
	}
}

// stepServing handles the Healthy / Suspect / Degraded states: verify
// the tick's observations, slide the fail window, and apply the
// max_fails / recover-streak rules.
func (c *Controller) stepServing(m *machine, observations []Observation) {
	failed, recovered, z := c.verifyTick(m, observations)

	if failed {
		m.failTicks = append(m.failTicks, c.tick)
		m.streak = 0
	} else if recovered {
		m.streak++
	}
	// Slide the window: fails older than FailWindow ticks expire.
	cut := 0
	for cut < len(m.failTicks) && m.failTicks[cut] <= c.tick-FailWindow {
		cut++
	}
	if cut > 0 {
		m.failTicks = m.failTicks[:copy(m.failTicks, m.failTicks[cut:])]
	}

	switch m.state {
	case Healthy:
		if failed {
			c.transition(m, Suspect, "verify-fail", z)
		} else {
			c.rampSlowStart(m)
		}
	case Suspect:
		switch {
		case len(m.failTicks) >= MaxFails:
			c.transition(m, Degraded, "max-fails", z)
			m.weight = degradedWeight
			m.streak = 0
			// The fails that tripped the window are spent: the second
			// strike must be a fresh failing window.
			m.failTicks = m.failTicks[:0]
		case m.streak >= RecoverStreak:
			c.heal(m, z)
		}
	case Degraded:
		switch {
		case len(m.failTicks) >= MaxFails:
			// Second failing window: the two-strike ejection.
			c.eject(m, "two-strike", z)
		case m.streak >= RecoverStreak:
			c.heal(m, z)
		}
	}
}

// stepProbing handles the Probing state: a probe failure or timeout
// sends the computer back to ejected hold-down; RecoverStreak clean
// probes reinstate it with slow-start.
func (c *Controller) stepProbing(m *machine, observations []Observation) {
	failed, recovered, z := c.verifyTick(m, observations)
	switch {
	case failed:
		reason := "probe-fail"
		if math.IsNaN(z) {
			reason = "probe-timeout"
		}
		c.transition(m, Ejected, reason, z)
		m.ejectedAt = c.tick
		m.streak = 0
	case recovered:
		m.streak++
		if m.streak >= RecoverStreak {
			c.transition(m, Healthy, "reinstated", z)
			m.weight = SlowStartWeight
			m.reinstatedAt = c.tick
			m.streak = 0
			m.failTicks = m.failTicks[:0]
			c.met.Transitioned("reinstated-slow-start", false, true)
		}
	}
	// Dead-band probes neither strike nor heal: the streak holds.
}

// verifyTick verifies m's observations for this tick. It returns
// whether the tick counts as a fail, whether it counts as a recovery
// credit, and the deciding z-score (NaN for a silent tick or an
// invalid verdict). A computer that answers nothing is failing (a
// timeout is a fail, as in nginx max_fails); stepProbing names such a
// fail a probe timeout.
func (c *Controller) verifyTick(m *machine, observations []Observation) (failed, recovered bool, z float64) {
	start, ok := c.seen[m.id]
	if !ok {
		c.met.VerdictObserved("silent", math.NaN())
		return true, false, math.NaN()
	}
	// A tick may carry several estimates for one computer (several
	// traffic slices); one failing verdict fails the tick, and the
	// tick is a recovery credit only if every verdict clears the
	// recover threshold.
	recovered = true
	z = math.NaN()
	for i := start; i < len(observations); i++ {
		o := &observations[i]
		if o.ID != m.id {
			continue
		}
		v := estimate.Verify(o.Est, m.declared)
		switch {
		case v.Invalid:
			// A measurement the controller cannot verify is a strike,
			// not a pass — same contract as Verdict.Flagged.
			c.met.VerdictObserved("invalid", math.NaN())
			return true, false, math.NaN()
		case v.Deviating:
			c.met.VerdictObserved("fail", v.ZScore)
			return true, false, v.ZScore
		case v.ZScore < zRecover:
			c.met.VerdictObserved("pass", v.ZScore)
		default:
			// Dead band: between recover and trip thresholds.
			c.met.VerdictObserved("dead-band", v.ZScore)
			recovered = false
		}
		z = v.ZScore
	}
	return false, recovered, z
}

// rampSlowStart advances a reinstated machine's weight toward 1.
func (c *Controller) rampSlowStart(m *machine) {
	if m.reinstatedAt < 0 || m.weight >= 1 {
		return
	}
	k := c.tick - m.reinstatedAt
	if k >= SlowStartTicks {
		m.weight = 1
		m.reinstatedAt = -1
		return
	}
	w0 := SlowStartWeight
	m.weight = w0 + (1-w0)*float64(k)/float64(SlowStartTicks)
}

// heal returns a suspect or degraded machine to Healthy at full
// weight.
func (c *Controller) heal(m *machine, z float64) {
	c.transition(m, Healthy, "recovered", z)
	m.weight = 1
	m.reinstatedAt = -1
	m.streak = 0
	m.failTicks = m.failTicks[:0]
}

// eject moves a machine to Ejected and starts its hold-down clock.
func (c *Controller) eject(m *machine, reason string, z float64) {
	c.transition(m, Ejected, reason, z)
	m.ejectedAt = c.tick
	m.streak = 0
	m.failTicks = m.failTicks[:0]
	m.weight = 1 // weight is meaningless while out; reset for re-entry bookkeeping
	m.reinstatedAt = -1
	c.met.Transitioned("ejection", true, false)
}

// transition records a state change.
func (c *Controller) transition(m *machine, to State, reason string, z float64) {
	from := m.state
	m.state = to
	c.pending = append(c.pending, Transition{
		ID: m.id, Tick: c.tick, From: from, To: to, Reason: reason, Z: z,
	})
	c.met.Transitioned(reason, false, false)
	c.tr.Emit(obs.Event{
		Layer: "health", Kind: reason, Node: m.id,
		Detail: from.String() + "->" + to.String(),
		Value:  float64(c.tick),
	})
}

// resetMachine returns a machine to the initial Healthy state.
func (c *Controller) resetMachine(m *machine) {
	m.state = Healthy
	m.weight = 1
	m.failTicks = m.failTicks[:0]
	m.streak = 0
	m.reinstatedAt = -1
}

// insertSorted inserts v into ascending-sorted xs.
func insertSorted(xs []int, v int) []int {
	xs = append(xs, v)
	i := len(xs) - 1
	for i > 0 && xs[i-1] > v {
		xs[i] = xs[i-1]
		i--
	}
	xs[i] = v
	return xs
}

// removeSorted removes v from ascending-sorted xs, preserving order.
func removeSorted(xs []int, v int) []int {
	for i, x := range xs {
		if x == v {
			copy(xs[i:], xs[i+1:])
			return xs[:len(xs)-1]
		}
	}
	return xs
}
