package protocol

import (
	"testing"

	"repro/internal/faults"
)

func TestDropoutsExcludedAndRoundProceeds(t *testing.T) {
	res, err := Run(Config{
		Trues:         []float64{1, 2, 4, 8},
		Faults:        faults.New(0, faults.Silent(2)),
		Rate:          6,
		Jobs:          5000,
		Seed:          4,
		AllowDropouts: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dropped) != 1 || res.Dropped[0] != "C3" {
		t.Errorf("dropped = %v, want [C3]", res.Dropped)
	}
	if len(res.Active) != 3 {
		t.Fatalf("active = %v", res.Active)
	}
	want := []int{0, 1, 3}
	for i, a := range res.Active {
		if a != want[i] {
			t.Errorf("active[%d] = %d, want %d", i, a, want[i])
		}
	}
	// The allocation was recomputed over the three responders and
	// conserves the full rate.
	var sum float64
	for _, x := range res.Outcome.Alloc {
		sum += x
	}
	if sum < 5.999 || sum > 6.001 {
		t.Errorf("allocation sums to %v, want 6", sum)
	}
	// Message count: 4 requests, then 4 messages for each of the 3
	// responders (bid, assign, completed, payment).
	if res.Messages != 4+4*3 {
		t.Errorf("messages = %d, want 16", res.Messages)
	}
}

func TestDropoutsDisabledStillAborts(t *testing.T) {
	_, err := Run(Config{
		Trues:  []float64{1, 2, 4},
		Faults: faults.New(0, faults.Silent(0)),
		Rate:   5,
	})
	if err == nil {
		t.Fatal("expected abort without AllowDropouts")
	}
}

func TestTooManyDropouts(t *testing.T) {
	_, err := Run(Config{
		Trues:         []float64{1, 2, 4},
		Faults:        faults.New(0, faults.Silent(0, 1)),
		Rate:          5,
		AllowDropouts: true,
	})
	if err == nil {
		t.Fatal("expected error with fewer than two responders")
	}
}

func TestNoDropoutsIdentityMapping(t *testing.T) {
	res, err := Run(Config{Trues: []float64{1, 2}, Rate: 4, Jobs: 1000, Seed: 5, AllowDropouts: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dropped) != 0 {
		t.Errorf("dropped = %v", res.Dropped)
	}
	if len(res.Active) != 2 || res.Active[0] != 0 || res.Active[1] != 1 {
		t.Errorf("active = %v", res.Active)
	}
}
