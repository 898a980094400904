package health

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/registry"
)

// chaosFaulty maps the fault roles of the chaos population: 12
// computers, ids 0..11 from serial registry adds, with one crashed,
// one stalled, one Byzantine and one flapping. Everyone else is
// honest.
var chaosFaulty = map[int]string{
	1: "crash", 4: "stall", 7: "byzantine", 10: "flap",
}

func chaosPlan(seed uint64) *faults.Plan {
	return faults.New(seed,
		faults.Crash(1),
		faults.Stall(40, 1, 4),
		faults.Byzantine(1.6, 7),
		faults.Flap(6, 0.5, 10),
	)
}

// chaosRun is one seeded replication: a 12-computer population under
// the chaos plan with a fault window [5, 60) and 120 control ticks,
// so the run exercises injection, detection, ejection, repair,
// probing and slow-start reinstatement. It returns the bitwise
// serializations of the transition log and the corrected-epoch
// stream, plus the final controller for state assertions.
func chaosRun(t *testing.T, seed uint64, shards int) (transcript, epochs string, c *Controller) {
	t.Helper()
	reg, err := registry.New(registry.Config{Rate: 10, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	src := NewSource(seed, chaosPlan(seed), SourceConfig{FaultFrom: 5, FaultUntil: 60})
	// The shipped policy, no override: RecoverStreak exceeds the
	// flapping computer's healthy half-phase (period 6, duty 0.5 → 3
	// clean ticks per cycle), so the flapper cannot heal from
	// suspect/degraded every cycle and is ejected.
	c = New(reg, nil)

	for i := 0; i < 12; i++ {
		declared := 2 + 0.5*float64(i)
		id, err := reg.Add(declared)
		if err != nil {
			t.Fatal(err)
		}
		if id != i {
			t.Fatalf("serial add id = %d, want %d", id, i)
		}
		src.Add(id, declared)
		if err := c.Track(id, declared); err != nil {
			t.Fatal(err)
		}
	}

	var tlog, elog strings.Builder
	for tick := 1; tick <= 120; tick++ {
		rep := c.Tick(src.Tick(tick))
		for _, tr := range rep.Transitions {
			fmt.Fprintf(&tlog, "%d:%d:%v>%v:%s:%016x\n",
				tr.Tick, tr.ID, tr.From, tr.To, tr.Reason, math.Float64bits(tr.Z))
		}
		if rep.Sealed == nil {
			continue
		}
		s := rep.Sealed
		d, w := s.Correction()
		fmt.Fprintf(&elog, "%d:%d:%016x:%d:%d:%d", rep.Tick, s.Epoch(), math.Float64bits(s.Sum()), s.N(), d, w)
		for _, id := range s.IDs(nil) {
			v, _ := s.Value(id)
			l, _ := s.Load(id)
			fmt.Fprintf(&elog, "|%d:%016x:%016x", id, math.Float64bits(v), math.Float64bits(l))
		}
		elog.WriteByte('\n')
	}
	return tlog.String(), elog.String(), c
}

// TestChaosReplications is the acceptance gate of the shipped policy:
// across 32 seeded replications, at registry shard counts 1, 4 and 32,
// the controller ejects every faulty computer within the detection
// budget, never degrades or ejects an honest one, and reinstates every
// repaired computer through the slow-start ramp back to full weight.
func TestChaosReplications(t *testing.T) {
	for seed := uint64(1); seed <= 32; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			transcript, epochs, c := chaosRun(t, seed, 4)
			// The gate holds at every shard count: 1 and 32 shards
			// replay the 4-shard run bitwise.
			for _, shards := range []int{1, 32} {
				if tr, ep, _ := chaosRun(t, seed, shards); tr != transcript || ep != epochs {
					t.Fatalf("shards %d: transition log or corrected-epoch stream differs from 4 shards", shards)
				}
			}

			// Parse ejection and reinstatement ticks per computer out of
			// the transition transcript.
			ejectedAt := map[int]int{}
			reinstatedAt := map[int]int{}
			touched := map[int]bool{}
			for _, line := range strings.Split(strings.TrimSpace(transcript), "\n") {
				var tick, id int
				var edge, reason, zbits string
				if _, err := fmt.Sscanf(line, "%d:%d:%s", &tick, &id, &edge); err != nil {
					t.Fatalf("bad transcript line %q: %v", line, err)
				}
				parts := strings.Split(line, ":")
				edge, reason, zbits = parts[2], parts[3], parts[4]
				_ = zbits
				touched[id] = true
				if strings.HasSuffix(edge, ">ejected") && reason != "probe-timeout" && reason != "probe-fail" {
					if _, ok := ejectedAt[id]; !ok {
						ejectedAt[id] = tick
					}
				}
				if reason == "reinstated" {
					reinstatedAt[id] = tick
				}
			}

			// Zero false positives: honest computers end healthy at full
			// weight and never transitioned at all.
			for id := 0; id < 12; id++ {
				if chaosFaulty[id] != "" {
					continue
				}
				if touched[id] {
					t.Errorf("honest computer %d transitioned (false positive)", id)
				}
				st, w, _ := c.State(id)
				if st != Healthy || w != 1 {
					t.Errorf("honest computer %d ended %v at weight %g", id, st, w)
				}
			}

			// Every faulty computer is ejected within the detection
			// budget: faults start at tick 5; two failing max_fails
			// windows back to back bound the two-strike path, with the
			// flapping computer allowed its healthy half-phases.
			steady := 5 + 2*FailWindow
			budget := map[string]int{"crash": steady, "stall": steady, "byzantine": steady, "flap": 5 + 4*FailWindow}
			for id, role := range chaosFaulty {
				at, ok := ejectedAt[id]
				if !ok {
					t.Errorf("%s computer %d never ejected", role, id)
					continue
				}
				if at > budget[role] {
					t.Errorf("%s computer %d ejected at tick %d, budget %d", role, id, at, budget[role])
				}
			}

			// Every faulty computer is repaired at tick 60 and must come
			// back through probing + slow-start to full weight by the end.
			for id, role := range chaosFaulty {
				at, ok := reinstatedAt[id]
				if !ok {
					t.Errorf("%s computer %d never reinstated after repair", role, id)
					continue
				}
				if at < 60 {
					t.Errorf("%s computer %d reinstated at tick %d, before repair at 60", role, id, at)
				}
				st, w, _ := c.State(id)
				if st != Healthy || w != 1 {
					t.Errorf("%s computer %d ended %v at weight %g, want healthy at 1", role, id, st, w)
				}
			}
		})
	}
}

// TestChaosReplayIdentical pins determinism: the transition log and
// the corrected-epoch stream are byte-identical across repeated runs
// and across registry shard counts.
func TestChaosReplayIdentical(t *testing.T) {
	for _, seed := range []uint64{3, 17} {
		baseT, baseE, _ := chaosRun(t, seed, 1)
		if baseT == "" || baseE == "" {
			t.Fatalf("seed %d: empty transcript or epoch stream", seed)
		}
		for _, shards := range []int{1, 4, 32} {
			for rep := 0; rep < 2; rep++ {
				gotT, gotE, _ := chaosRun(t, seed, shards)
				if gotT != baseT {
					t.Fatalf("seed %d shards %d rep %d: transition log diverged", seed, shards, rep)
				}
				if gotE != baseE {
					t.Fatalf("seed %d shards %d rep %d: corrected-epoch stream diverged", seed, shards, rep)
				}
			}
		}
	}
}
