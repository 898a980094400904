package protocol

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/faults"
)

func TestLostBidsBecomeDropouts(t *testing.T) {
	cfg := Config{
		Trues:         []float64{1, 2, 3, 4, 5, 6},
		Rate:          10,
		Jobs:          1000,
		Seed:          3,
		AllowDropouts: true,
		Faults:        faults.New(5, faults.Drop(0.15)),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost == 0 {
		t.Fatal("drop plan lost nothing")
	}
	if len(res.Dropped)+len(res.Active) != 6 {
		t.Fatalf("dropped %v + active %v != 6", res.Dropped, res.Active)
	}
	if len(res.Dropped) == 0 {
		t.Skip("seed lost no bid-phase messages; nothing to assert")
	}
	// A second run is byte-identical: the fault schedule is a pure
	// function of (seed, seq).
	res2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Dropped) != fmt.Sprint(res2.Dropped) || res.Lost != res2.Lost {
		t.Fatalf("non-deterministic faults: %v/%d vs %v/%d",
			res.Dropped, res.Lost, res2.Dropped, res2.Lost)
	}
}

func TestLostBidWithoutDropoutsAborts(t *testing.T) {
	cfg := Config{
		Trues:  []float64{1, 2, 3},
		Rate:   6,
		Jobs:   500,
		Seed:   3,
		Faults: faults.New(1, faults.Drop(1)),
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("total message loss should abort the round")
	}
}

// TestLostCompletionReportTrustsBid: when an agent's completion
// report is lost the coordinator cannot audit it and falls back to
// the bid (estimate with zero samples).
func TestLostCompletionReportTrustsBid(t *testing.T) {
	cfg := Config{
		Trues:  []float64{1, 2, 3},
		Rate:   6,
		Jobs:   1000,
		Seed:   9,
		Faults: faults.New(2, faults.Drop(0)), // base plan; drops come from the wrapper below
	}
	// Drop exactly the completed messages via a targeted injector.
	cfg.Faults = completedDropper{faults.None}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost != 3 {
		t.Fatalf("lost = %d, want 3 completion reports", res.Lost)
	}
	for i, est := range res.Estimates {
		if est.N != 0 {
			t.Fatalf("agent %d estimate has %d samples despite lost report", i, est.N)
		}
		if est.Value != cfg.Trues[i] { // truthful round: bid == true value
			t.Fatalf("agent %d estimate %v != bid %v", i, est.Value, cfg.Trues[i])
		}
		if res.Verdicts[i].Deviating {
			t.Fatalf("agent %d flagged with no evidence", i)
		}
	}
}

// completedDropper drops every completion report and nothing else.
type completedDropper struct{ faults.Injector }

func (d completedDropper) Deliver(m faults.Message) faults.Decision {
	if m.Kind == MsgCompleted.String() {
		return faults.Decision{Drop: true}
	}
	return d.Injector.Deliver(m)
}

// TestFaultPlanOutsidePopulationRejected: a plan naming an agent the
// round does not have is a typed error, not a fault-free round.
func TestFaultPlanOutsidePopulationRejected(t *testing.T) {
	var re *faults.RangeError
	_, err := Run(Config{
		Trues: []float64{1, 2, 3}, Rate: 6, Jobs: 500,
		Faults: faults.New(0, faults.Crash(7), faults.Silent(3)),
	})
	if !errors.As(err, &re) || re.Node != 3 || re.N != 3 {
		t.Fatalf("err = %v, want node 3 outside [0, 3)", err)
	}
}
