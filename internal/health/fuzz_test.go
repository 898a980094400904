package health

import (
	"bytes"
	"math"
	"testing"
)

// allowedEdges is the complete transition relation of the state
// machine. Anything outside it is a bug.
var allowedEdges = map[[2]State]bool{
	{Healthy, Suspect}:  true, // verify-fail
	{Suspect, Degraded}: true, // max-fails
	{Suspect, Healthy}:  true, // recovered
	{Degraded, Ejected}: true, // two-strike
	{Degraded, Healthy}: true, // recovered
	{Ejected, Probing}:  true, // fail-timeout
	{Probing, Ejected}:  true, // probe-fail / probe-timeout
	{Probing, Healthy}:  true, // reinstated
}

// FuzzControllerInvariants drives a controller with arbitrary
// observation / silence sequences and checks the structural invariants
// of the state machine: no invalid state is ever reachable, the serving
// weight stays in (0, 1], every transition follows an allowed edge,
// ejection holds for at least FailTimeout ticks, and reinstatement
// needs at least RecoverStreak probe ticks (the hysteresis floor — no
// instant flap back to serving).
func FuzzControllerInvariants(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{9, 9, 9, 0, 0, 0, 9, 9, 9, 0, 0, 0})
	f.Add([]byte{255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Add([]byte("degrade me, probe me, bring me back"))
	// The whole arc under the shipped policy: two failing windows
	// eject, passes through the hold-down and the probe streak
	// reinstate, and the slow-start ramp runs out.
	arc := bytes.Repeat([]byte{1}, 2*MaxFails)
	arc = append(arc, bytes.Repeat([]byte{0}, FailTimeout+RecoverStreak+SlowStartTicks)...)
	f.Add(arc)

	f.Fuzz(func(t *testing.T, events []byte) {
		if len(events) > 512 {
			events = events[:512]
		}
		c := New(nil, nil)
		const id = 5
		if err := c.Track(id, 10); err != nil {
			t.Fatal(err)
		}

		ejectedAt, probingAt := -1, -1
		for tick, b := range events {
			var obs []Observation
			switch b % 6 {
			case 0: // clean pass
				obs = []Observation{obsAt(id, 10, -2)}
			case 1: // hard fail
				obs = []Observation{obsAt(id, 10, 6)}
			case 2: // dead band
				obs = []Observation{obsAt(id, 10, 2)}
			case 3: // silent tick
			case 4: // a pass and a dead-band estimate in one tick
				obs = []Observation{obsAt(id, 10, -2), obsAt(id, 10, 2)}
			case 5: // invalid measurement
				obs = []Observation{{ID: id, Est: obsAt(id, 10, 0).Est}}
				obs[0].Est.StdErr = -1
			}

			rep := c.Tick(obs)

			state, weight, ok := c.State(id)
			if !ok {
				t.Fatal("tracked computer vanished")
			}
			if int(state) >= NumStates {
				t.Fatalf("tick %d: invalid state %d", tick, state)
			}
			if !(weight > 0 && weight <= 1) || math.IsNaN(weight) {
				t.Fatalf("tick %d: weight %g outside (0, 1]", tick, weight)
			}

			for _, tr := range rep.Transitions {
				if !allowedEdges[[2]State{tr.From, tr.To}] {
					t.Fatalf("tick %d: illegal transition %v -> %v (%s)", tick, tr.From, tr.To, tr.Reason)
				}
				switch {
				case tr.To == Ejected:
					ejectedAt, probingAt = tr.Tick, -1
				case tr.From == Ejected && tr.To == Probing:
					if ejectedAt >= 0 && tr.Tick-ejectedAt < FailTimeout {
						t.Fatalf("hold-down violated: ejected at %d, probing at %d, fail_timeout %d",
							ejectedAt, tr.Tick, FailTimeout)
					}
					probingAt = tr.Tick
				case tr.From == Probing && tr.To == Healthy:
					if probingAt >= 0 && tr.Tick-probingAt < RecoverStreak {
						t.Fatalf("hysteresis violated: probing at %d, reinstated at %d, streak %d",
							probingAt, tr.Tick, RecoverStreak)
					}
					if weight > SlowStartWeight {
						t.Fatalf("reinstated at weight %g > slow-start cap %g", weight, SlowStartWeight)
					}
				}
			}
		}
	})
}
