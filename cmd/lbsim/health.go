package main

// The -health runner: a chaos demo of the serving control loop. The
// population is registered with the registry and the health
// controller, each computer declaring its true value, the fault plan
// (crash, stall, Byzantine, flapping — see internal/faults) is
// injected over a window of control ticks, and the controller's
// per-tick verification drives the degrade → eject → probe →
// slow-start arc live: every state transition as an event line,
// periodic state-table snapshots with each computer's corrected
// traffic share, and a final census. Everything is seeded, so the same
// population and flags replay the same story.

import (
	"fmt"
	"io"
	"math"

	"repro/internal/faults"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/report"
)

// faultFrom is the first control tick the fault plan is active: the
// controller settles for four ticks first.
const faultFrom = 5

// runHealth runs the population through ticks control ticks with its
// fault plan active over [faultFrom, faultUntil) (faultUntil <= 0:
// to the end), printing a state table every `every` ticks (<= 0:
// only the final one).
func runHealth(w io.Writer, s *scenario, ticks, faultUntil, every int, ob *obs.Observer) error {
	if ticks <= 0 {
		return fmt.Errorf("-health %d: need at least one control tick", ticks)
	}
	for i, c := range s.Computers {
		if c.BidFactor != 1 || c.ExecFactor != 1 {
			return fmt.Errorf("%s: computer %d has bid_factor %g and exec_factor %g, want 1 and 1: the fault plan, not the population, decides who misbehaves",
				loop, i, c.BidFactor, c.ExecFactor)
		}
	}
	inj, err := s.injector()
	if err != nil {
		return err
	}
	if err := faults.CheckNodes(inj, len(s.Computers)); err != nil {
		return err
	}
	if inj != nil {
		inj = faults.Reseed(inj, s.Seed)
	}

	reg, err := registry.New(registry.Config{Rate: s.Rate})
	if err != nil {
		return err
	}
	src := health.NewSource(s.Seed, inj, health.SourceConfig{FaultFrom: faultFrom, FaultUntil: faultUntil})
	ctl := health.New(reg, ob)
	for _, c := range s.Computers {
		id, err := reg.Add(c.True)
		if err != nil {
			return err
		}
		src.Add(id, c.True)
		if err := ctl.Track(id, c.True); err != nil {
			return err
		}
	}

	fmt.Fprintf(w, "Health control loop: %d computers, %d ticks, plan %q active [%d, %s).\n",
		len(s.Computers), ticks, s.FaultSpec, faultFrom, untilLabel(faultUntil))
	fmt.Fprintf(w, "Policy: max_fails %d/%d ticks, fail_timeout %d, recover streak %d, slow-start %.2f over %d ticks.\n\n",
		health.MaxFails, health.FailWindow, health.FailTimeout, health.RecoverStreak, health.SlowStartWeight, health.SlowStartTicks)

	var sealed *registry.Snapshot
	corrected := 0
	for tick := 1; tick <= ticks; tick++ {
		rep := ctl.Tick(src.Tick(tick))
		for _, tr := range rep.Transitions {
			z := "-"
			if !math.IsNaN(tr.Z) {
				z = fmt.Sprintf("z=%.1f", tr.Z)
			}
			fmt.Fprintf(w, "tick %3d  computer %d  %s -> %s  (%s %s)\n",
				tr.Tick, tr.ID, tr.From, tr.To, tr.Reason, z)
		}
		if rep.Sealed != nil {
			sealed = rep.Sealed
			corrected++
		}
		if every > 0 && tick%every == 0 {
			stateTable(ctl, sealed, tick).Render(w)
			fmt.Fprintln(w)
		}
	}

	if every <= 0 || ticks%every != 0 {
		stateTable(ctl, sealed, ticks).Render(w)
	}
	healthy := 0
	for _, id := range ctl.Tracked() {
		if st, _, _ := ctl.State(id); st == health.Healthy {
			healthy++
		}
	}
	epoch := uint64(0)
	if sealed != nil {
		epoch = sealed.Epoch()
	}
	fmt.Fprintf(w, "\n%d/%d computers healthy after %d ticks; %d corrected epochs sealed (last epoch %d).\n",
		healthy, len(s.Computers), ticks, corrected, epoch)
	return nil
}

// stateTable renders the live census: per computer its state, serving
// weight and traffic share under the last corrected epoch.
func stateTable(ctl *health.Controller, sealed *registry.Snapshot, tick int) *report.Table {
	tab := report.NewTable(
		fmt.Sprintf("State at tick %d:", tick),
		"Computer", "State", "Weight", "Traffic share")
	for _, id := range ctl.Tracked() {
		st, weight, _ := ctl.State(id)
		share := "-"
		if sealed != nil {
			if x, ok := sealed.Load(id); ok && sealed.Rate() > 0 {
				share = fmt.Sprintf("%.1f%%", 100*x/sealed.Rate())
			} else if !ok {
				share = "0% (out)"
			}
		}
		tab.AddRow(
			fmt.Sprintf("%d", id),
			st.String(),
			fmt.Sprintf("%.2f", weight),
			share,
		)
	}
	return tab
}

func untilLabel(until int) string {
	if until <= 0 {
		return "end"
	}
	return fmt.Sprintf("%d", until)
}
