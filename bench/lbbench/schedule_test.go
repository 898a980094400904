package main

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

// TestPoissonNeverResets drives the same schedule with a consumer that
// keeps up and one that serves at half the arrival rate. Both see the
// same arrival times, and the slow one's lateness grows by about one
// mean gap per arrival instead of the schedule stretching.
func TestPoissonNeverResets(t *testing.T) {
	const rate = 1000.0 // arrivals per second: mean gap 1ms
	const n = 4000
	fast := newPoisson(0, rate, rand.New(rand.NewPCG(1, 2)))
	slow := newPoisson(0, rate, rand.New(rand.NewPCG(1, 2)))
	var now, first, last int64
	for i := 0; i < n; i++ {
		a := slow.pop()
		if f := fast.pop(); f != a {
			t.Fatalf("arrival %d: %d vs %d — the schedule depends on its consumer", i, a, f)
		}
		now = max(now, a)
		late := now - a
		if i < n/10 {
			first += late
		} else if i >= n-n/10 {
			last += late
		}
		now += int64(2 * time.Millisecond) // service time: twice the mean gap
	}
	if last <= first {
		t.Fatalf("lateness did not grow: first tenth %d, last tenth %d", first, last)
	}
	// Each arrival adds about 2ms of service against 1ms of schedule.
	meanLast := float64(last) / (n / 10)
	if want := float64(n-n/20) * 1e6; math.Abs(meanLast-want)/want > 0.1 {
		t.Fatalf("mean lateness of the last tenth %.3gms, want about %.3gms", meanLast/1e6, want/1e6)
	}
	// The schedule itself kept its rate.
	if got := float64(fast.peek()) / 1e9; math.Abs(got-n/rate)/(n/rate) > 0.05 {
		t.Fatalf("%d arrivals spanned %.3gs, want about %.3gs", n, got, n/rate)
	}
}

func TestPacerSleeps(t *testing.T) {
	p, err := newPacer()
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	for _, d := range []time.Duration{50 * time.Microsecond, 2 * time.Millisecond} {
		start := time.Now()
		if err := p.sleep(int64(d)); err != nil {
			t.Fatal(err)
		}
		if got := time.Since(start); got < d {
			t.Fatalf("slept %v, want at least %v", got, d)
		}
	}
}
