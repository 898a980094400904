package health

import (
	"math"
	"testing"

	"repro/internal/estimate"
	"repro/internal/registry"
)

// obsAt builds an observation whose verification z-score against the
// declared value (under estimate.Verify's 5% margin) is exactly z.
func obsAt(id int, declared, z float64) Observation {
	se := 0.01 * declared
	v := declared*1.05 + z*se
	return Observation{ID: id, Est: estimate.Estimate{Value: v, StdErr: se, N: 64}}
}

func mustTrack(t *testing.T, c *Controller, id int, declared float64) {
	t.Helper()
	if err := c.Track(id, declared); err != nil {
		t.Fatalf("Track(%d, %g): %v", id, declared, err)
	}
}

func wantState(t *testing.T, c *Controller, id int, s State) {
	t.Helper()
	got, _, ok := c.State(id)
	if !ok {
		t.Fatalf("computer %d untracked", id)
	}
	if got != s {
		t.Fatalf("computer %d: state = %v, want %v (tick context above)", id, got, s)
	}
}

// TestLifecycleTransitions drives one computer through the full arc:
// healthy → suspect → degraded → ejected → probing → healthy with
// slow-start, checking state, weight and transition reasons at every
// stage. Every tick count comes from the policy constants.
func TestLifecycleTransitions(t *testing.T) {
	c := New(nil, nil)
	mustTrack(t, c, 7, 10)

	fail := []Observation{obsAt(7, 10, 5)}
	pass := []Observation{obsAt(7, 10, -2)}

	var reasons []string
	tick := func(o []Observation) TickReport {
		rep := c.Tick(o)
		for _, tr := range rep.Transitions {
			reasons = append(reasons, tr.Reason)
		}
		return rep
	}

	// MaxFails fails inside the window: healthy → suspect → degraded.
	for i := 1; i < MaxFails; i++ {
		tick(fail)
		wantState(t, c, 7, Suspect)
	}
	tick(fail)
	wantState(t, c, 7, Degraded)
	if _, w, _ := c.State(7); w != degradedWeight {
		t.Fatalf("degraded weight = %g, want %g", w, degradedWeight)
	}

	// A second failing window: degraded → ejected.
	for i := 1; i < MaxFails; i++ {
		tick(fail)
		wantState(t, c, 7, Degraded)
	}
	tick(fail)
	wantState(t, c, 7, Ejected)

	// Hold-down: FailTimeout ticks out (observations ignored), then
	// probing starts.
	for i := 1; i < FailTimeout; i++ {
		tick(pass)
		wantState(t, c, 7, Ejected)
	}
	tick(pass)
	wantState(t, c, 7, Probing)

	// RecoverStreak clean probes: probing → healthy at slow-start
	// weight.
	for i := 1; i < RecoverStreak; i++ {
		tick(pass)
		wantState(t, c, 7, Probing)
	}
	tick(pass)
	wantState(t, c, 7, Healthy)
	if _, w, _ := c.State(7); w != SlowStartWeight {
		t.Fatalf("slow-start weight = %g, want %g", w, SlowStartWeight)
	}

	// The weight ramps back to 1 over SlowStartTicks, then stays.
	for k := 1; k <= SlowStartTicks+1; k++ {
		tick(pass)
		want := 1.0
		if k < SlowStartTicks {
			want = SlowStartWeight + (1-SlowStartWeight)*float64(k)/SlowStartTicks
		}
		if _, w, _ := c.State(7); w != want {
			t.Fatalf("slow-start tick %d: weight = %g, want %g", k, w, want)
		}
	}

	wantReasons := []string{"verify-fail", "max-fails", "two-strike", "fail-timeout", "reinstated"}
	if len(reasons) != len(wantReasons) {
		t.Fatalf("transition reasons = %v, want %v", reasons, wantReasons)
	}
	for i := range reasons {
		if reasons[i] != wantReasons[i] {
			t.Fatalf("transition %d: reason = %q, want %q (all: %v)", i, reasons[i], wantReasons[i], reasons)
		}
	}
}

// TestSuspectHeals pins the short arc: one fail, then a recovery
// streak of RecoverStreak clean checks returns the computer to healthy
// at full weight without ever degrading.
func TestSuspectHeals(t *testing.T) {
	c := New(nil, nil)
	mustTrack(t, c, 0, 4)

	c.Tick([]Observation{obsAt(0, 4, 9)})
	wantState(t, c, 0, Suspect)
	for i := 1; i < RecoverStreak; i++ {
		c.Tick([]Observation{obsAt(0, 4, -1)})
		wantState(t, c, 0, Suspect)
	}
	rep := c.Tick([]Observation{obsAt(0, 4, -1)})
	wantState(t, c, 0, Healthy)
	if _, w, _ := c.State(0); w != 1 {
		t.Fatalf("healed weight = %g, want 1", w)
	}
	if len(rep.Transitions) != 1 || rep.Transitions[0].Reason != "recovered" {
		t.Fatalf("heal transitions = %+v, want one 'recovered'", rep.Transitions)
	}
}

// TestDeadBandHolds pins the hysteresis: observations between ZRecover
// and ZTrip neither strike nor heal, so a boundary-hovering computer
// stays put indefinitely.
func TestDeadBandHolds(t *testing.T) {
	c := New(nil, nil)
	mustTrack(t, c, 3, 2)

	c.Tick([]Observation{obsAt(3, 2, 5)})
	wantState(t, c, 3, Suspect)
	for i := 0; i < 20; i++ {
		rep := c.Tick([]Observation{obsAt(3, 2, 2)}) // between 1 and 3
		if len(rep.Transitions) != 0 {
			t.Fatalf("dead-band tick %d produced transitions: %+v", i, rep.Transitions)
		}
	}
	wantState(t, c, 3, Suspect)
}

// TestFailWindowSlides pins the sliding window: fails spaced wider
// than FailWindow never accumulate to max_fails.
func TestFailWindowSlides(t *testing.T) {
	c := New(nil, nil)
	mustTrack(t, c, 1, 1)

	for i := 0; i < 5; i++ {
		c.Tick([]Observation{obsAt(1, 1, 5)}) // fail
		for j := 0; j < FailWindow; j++ {
			c.Tick([]Observation{obsAt(1, 1, 2)}) // dead band, window slides
		}
		wantState(t, c, 1, Suspect)
	}
}

// TestSilentTickIsAFail pins the timeout semantics: a serving computer
// with no observation counts a fail (nginx max_fails counts timeouts).
func TestSilentTickIsAFail(t *testing.T) {
	c := New(nil, nil)
	mustTrack(t, c, 2, 5)

	c.Tick(nil)
	wantState(t, c, 2, Suspect)
	for i := 1; i < MaxFails; i++ {
		c.Tick(nil)
	}
	wantState(t, c, 2, Degraded)
	for i := 0; i < MaxFails; i++ {
		c.Tick(nil)
	}
	wantState(t, c, 2, Ejected)
}

// TestInvalidEstimateIsAFail pins the Verdict.Flagged contract: an
// unverifiable measurement is a strike, not a pass.
func TestInvalidEstimateIsAFail(t *testing.T) {
	c := New(nil, nil)
	mustTrack(t, c, 0, 5)
	bad := Observation{ID: 0, Est: estimate.Estimate{Value: math.NaN(), StdErr: 1, N: 8}}
	c.Tick([]Observation{bad})
	wantState(t, c, 0, Suspect)
}

// TestProbeFailRestartsHoldDown pins probing → ejected: a failing
// probe sends the computer back to a full hold-down period.
func TestProbeFailRestartsHoldDown(t *testing.T) {
	c := New(nil, nil)
	mustTrack(t, c, 4, 8)

	// Two silent failing windows eject it, then walk to probing.
	var rep TickReport
	for i := 0; i < 2*MaxFails; i++ {
		rep = c.Tick(nil)
	}
	wantState(t, c, 4, Ejected)
	if len(rep.Transitions) != 1 || rep.Transitions[0].Reason != "two-strike" {
		t.Fatalf("ejection transitions = %+v, want one 'two-strike'", rep.Transitions)
	}
	for i := 0; i < FailTimeout; i++ {
		c.Tick(nil)
	}
	wantState(t, c, 4, Probing)

	// One failing probe: straight back to ejected, full hold-down.
	rep = c.Tick([]Observation{obsAt(4, 8, 6)})
	wantState(t, c, 4, Ejected)
	if len(rep.Transitions) != 1 || rep.Transitions[0].Reason != "probe-fail" {
		t.Fatalf("probe-fail transitions = %+v", rep.Transitions)
	}
	for i := 1; i < FailTimeout; i++ {
		c.Tick(nil)
		wantState(t, c, 4, Ejected)
	}
	c.Tick(nil)
	wantState(t, c, 4, Probing)

	// A silent probe is a probe-timeout, same consequence.
	rep = c.Tick(nil)
	wantState(t, c, 4, Ejected)
	if len(rep.Transitions) != 1 || rep.Transitions[0].Reason != "probe-timeout" {
		t.Fatalf("probe-timeout transitions = %+v", rep.Transitions)
	}
}

// TestCorrectedSealing pins the registry integration: state changes
// seal corrected epochs with ejected computers dropped and degraded /
// slow-starting ones discounted, while quiet ticks seal nothing.
func TestCorrectedSealing(t *testing.T) {
	reg, err := registry.New(registry.Config{Rate: 2, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 3)
	for i := range ids {
		id, err := reg.Add(4)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	c := New(reg, nil)
	for _, id := range ids {
		mustTrack(t, c, id, 4)
	}

	allPass := func() []Observation {
		var o []Observation
		for _, id := range ids {
			o = append(o, obsAt(id, 4, -2))
		}
		return o
	}
	failOne := func(bad int) []Observation {
		var o []Observation
		for _, id := range ids {
			z := -2.0
			if id == bad {
				z = 6
			}
			o = append(o, obsAt(id, 4, z))
		}
		return o
	}

	// Track marked the controller dirty, so the first tick seals.
	rep := c.Tick(allPass())
	if rep.Sealed == nil {
		t.Fatal("first tick sealed nothing")
	}
	if d, w := rep.Sealed.Correction(); d != 0 || w != 0 {
		t.Fatalf("clean epoch correction = (%d, %d), want (0, 0)", d, w)
	}
	base := rep.Sealed.Sum()

	// A quiet tick seals nothing new.
	if rep = c.Tick(allPass()); rep.Sealed != nil {
		t.Fatalf("quiet tick sealed epoch %d", rep.Sealed.Epoch())
	}

	// Degrade ids[1]: MaxFails fails. The degraded epoch discounts it.
	for i := 0; i < MaxFails; i++ {
		rep = c.Tick(failOne(ids[1]))
	}
	wantState(t, c, ids[1], Degraded)
	if rep.Sealed == nil {
		t.Fatal("degradation sealed nothing")
	}
	if d, w := rep.Sealed.Correction(); d != 0 || w != 1 {
		t.Fatalf("degraded epoch correction = (%d, %d), want (0, 1)", d, w)
	}
	// Discounting a bid to weight 0.5 halves its 1/b contribution.
	wantSum := base - (1-degradedWeight)*(1.0/4)
	if math.Abs(rep.Sealed.Sum()-wantSum) > 1e-12 {
		t.Fatalf("degraded epoch sum = %g, want %g", rep.Sealed.Sum(), wantSum)
	}

	// Eject it: the epoch drops it entirely and its load goes to 0.
	for i := 0; i < MaxFails; i++ {
		rep = c.Tick(failOne(ids[1]))
	}
	wantState(t, c, ids[1], Ejected)
	if rep.Sealed == nil {
		t.Fatal("ejection sealed nothing")
	}
	if rep.Sealed.Contains(ids[1]) {
		t.Fatalf("ejected computer %d still in corrected epoch", ids[1])
	}
	if d, _ := rep.Sealed.Correction(); d != 1 {
		t.Fatalf("ejected epoch dropped = %d, want 1", d)
	}
	if got := rep.Sealed.N(); got != 2 {
		t.Fatalf("ejected epoch N = %d, want 2", got)
	}

	// The registry itself is untouched: a plain seal still has all 3.
	if snap := reg.Seal(); snap.N() != 3 {
		t.Fatalf("registry mutated: plain seal N = %d, want 3", snap.N())
	}
}

// TestTrackValidation pins input sanitization.
func TestTrackValidation(t *testing.T) {
	c := New(nil, nil)
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if err := c.Track(1, bad); err == nil {
			t.Fatalf("Track accepted declared = %g", bad)
		}
	}
	if err := c.Track(-1, 5); err == nil {
		t.Fatal("Track accepted negative id")
	}
}

// TestForget pins roster removal: a forgotten computer disappears from
// the census and its corrections are lifted.
func TestForget(t *testing.T) {
	c := New(nil, nil)
	mustTrack(t, c, 1, 2)
	mustTrack(t, c, 2, 2)
	c.Forget(1)
	if _, _, ok := c.State(1); ok {
		t.Fatal("forgotten computer still tracked")
	}
	if got := c.Tracked(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Tracked() = %v, want [2]", got)
	}
	c.Forget(1) // idempotent
}

// TestStateString covers the census labels.
func TestStateString(t *testing.T) {
	want := map[State]string{
		Healthy: "healthy", Suspect: "suspect", Degraded: "degraded",
		Ejected: "ejected", Probing: "probing", State(99): "state(99)",
	}
	for s, w := range want {
		if got := s.String(); got != w {
			t.Fatalf("State(%d).String() = %q, want %q", int(s), got, w)
		}
	}
}
