package main

import "testing"

// TestSpeed checks the host-speed arithmetic: a host whose kernel runs
// at twice the nominal time has speed 0.5, the median of all the given
// units counts, and no units means nominal.
func TestSpeed(t *testing.T) {
	n := float64(refNominal)
	slow := &hostRef{units: []float64{2 * n, 2 * n, 9 * n}}
	if got := speed(slow); got != 0.5 {
		t.Errorf("speed of a host at twice nominal = %g, want 0.5", got)
	}
	fast := &hostRef{units: []float64{n / 2, n / 2, n / 2, n / 2}}
	if got := speed(slow, fast); got != 2 {
		t.Errorf("speed over two refs = %g, want the median unit's 2", got)
	}
	if got := speed(&hostRef{}); got != 1 {
		t.Errorf("speed with no units = %g, want 1", got)
	}
}

// TestBurst runs the real kernel: every unit is timed.
func TestBurst(t *testing.T) {
	k, err := newRefKernel()
	if err != nil {
		t.Fatal(err)
	}
	defer k.close()
	var h hostRef
	if err := h.burst(k, 3); err != nil {
		t.Fatal(err)
	}
	if len(h.units) != 3 {
		t.Fatalf("burst(3) timed %d units", len(h.units))
	}
	for _, u := range h.units {
		if u <= 0 {
			t.Fatalf("unit timed at %g ns", u)
		}
	}
}
