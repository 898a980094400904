package supervise

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/distmech"
	"repro/internal/faults"
	"repro/internal/mech"
)

func agents(n int) []mech.Agent {
	out := make([]mech.Agent, n)
	for i := range out {
		out[i] = mech.Agent{Bid: 1 + 0.15*float64(i), Exec: (1 + 0.15*float64(i)) * 0.9}
	}
	return out
}

func baseConfig(tree distmech.Topology) distmech.Config {
	return distmech.Config{
		Tree:   tree,
		Agents: agents(tree.N()),
		Rate:   20,
	}
}

// checkAccepted asserts the acceptance criteria: the allocation
// conserves the rate over the serving quorum and every excluded node
// holds zero.
func checkAccepted(t *testing.T, r *Report) {
	t.Helper()
	if r.Final == nil {
		t.Fatal("accepted report has no final result")
	}
	sum := 0.0
	for _, x := range r.Alloc {
		if x < 0 || math.IsNaN(x) {
			t.Fatalf("allocation entry %v", x)
		}
		sum += x
	}
	if math.Abs(sum-r.Rate) > 1e-9*(1+r.Rate) {
		t.Fatalf("allocation sums to %v, want %v", sum, r.Rate)
	}
	serving := map[int]bool{}
	for _, i := range r.Serving {
		serving[i] = true
	}
	for i, x := range r.Alloc {
		if !serving[i] && x != 0 {
			t.Fatalf("excluded node %d allocated %v", i, x)
		}
	}
	for _, i := range append(append([]int{}, r.ExcludedAudit...), r.ExcludedUnreachable...) {
		if r.Alloc[i] != 0 || r.Payments[i] != 0 {
			t.Fatalf("excluded node %d has alloc %v payment %v", i, r.Alloc[i], r.Payments[i])
		}
	}
}

func TestCleanRoundAcceptsFirstAttempt(t *testing.T) {
	cfg := baseConfig(distmech.Star(8))
	rep, err := Run(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Attempts) != 1 || rep.Attempts[0].Class != ClassOK {
		t.Fatalf("attempts = %+v", rep.Attempts)
	}
	if rep.Degraded || len(rep.Serving) != 8 {
		t.Fatalf("degraded=%v serving=%v", rep.Degraded, rep.Serving)
	}
	checkAccepted(t, rep)

	// The supervised result matches the bare round.
	res, err := distmech.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Alloc {
		if res.Alloc[i] != rep.Alloc[i] || res.Payments[i] != rep.Payments[i] {
			t.Fatalf("node %d: supervised (%v,%v) vs bare (%v,%v)",
				i, rep.Alloc[i], rep.Payments[i], res.Alloc[i], res.Payments[i])
		}
	}
}

func TestCrashedSubtreeIsReparentedNotDropped(t *testing.T) {
	// Chain 0-1-2-3-4-5-6-7 with node 3 fail-stop: static exclusion
	// reparents 4 onto 2 so nodes 4..7 are still served.
	cfg := baseConfig(distmech.Chain(8))
	cfg.Faults = faults.New(0, faults.Crash(3))
	rep, err := Run(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Attempts) != 1 {
		t.Fatalf("want one attempt, got %d", len(rep.Attempts))
	}
	if !rep.Degraded || len(rep.Serving) != 7 {
		t.Fatalf("degraded=%v serving=%v", rep.Degraded, rep.Serving)
	}
	if fmt.Sprint(rep.StaticExcluded) != "[3]" {
		t.Fatalf("static exclusions = %v", rep.StaticExcluded)
	}
	checkAccepted(t, rep)
	if rep.Alloc[7] == 0 {
		t.Fatal("node 7 behind the crash was not served")
	}
}

func TestByzantineNodeIsExcludedOnRetry(t *testing.T) {
	cfg := baseConfig(distmech.Star(6))
	cfg.Faults = faults.New(1, faults.Byzantine(1.3, 2))
	rep, err := Run(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Attempts) != 2 {
		t.Fatalf("attempts = %+v", rep.Attempts)
	}
	if rep.Attempts[0].Class != ClassAudit {
		t.Fatalf("first attempt class = %v", rep.Attempts[0].Class)
	}
	if fmt.Sprint(rep.ExcludedAudit) != "[2]" {
		t.Fatalf("audit exclusions = %v", rep.ExcludedAudit)
	}
	if rep.Attempts[0].Backoff <= 0 {
		t.Fatal("retry without backoff")
	}
	if rep.TotalBackoff != rep.Attempts[0].Backoff {
		t.Fatalf("total backoff %v", rep.TotalBackoff)
	}
	checkAccepted(t, rep)
	if !rep.Degraded {
		t.Fatal("excluding a cheater should mark the round degraded")
	}
}

func TestByzantineCoordinatorAborts(t *testing.T) {
	cfg := baseConfig(distmech.Star(5))
	cfg.Faults = faults.New(1, faults.Byzantine(1.2, 0))
	rep, err := Run(cfg, Options{})
	if !errors.Is(err, ErrCoordinatorMisbehaving) {
		t.Fatalf("err = %v", err)
	}
	var abort *AbortError
	if !errors.As(err, &abort) || abort.Class != ClassAudit {
		t.Fatalf("abort = %+v", abort)
	}
	if rep == nil || len(rep.Attempts) != 1 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestCrashedCoordinatorAborts(t *testing.T) {
	cfg := baseConfig(distmech.Star(5))
	cfg.Faults = faults.New(1, faults.Crash(0))
	rep, err := Run(cfg, Options{})
	if !errors.Is(err, distmech.ErrRootCrashed) {
		t.Fatalf("err = %v", err)
	}
	var abort *AbortError
	if !errors.As(err, &abort) || abort.Class != ClassConfig {
		t.Fatalf("abort = %+v", abort)
	}
	if rep == nil || len(rep.Attempts) != 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestQuorumErrorWhenTooFewSurvive(t *testing.T) {
	cfg := baseConfig(distmech.Star(3))
	cfg.Faults = faults.New(1, faults.Crash(1), faults.Silent(2))
	rep, err := Run(cfg, Options{})
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("err = %v", err)
	}
	var qe *QuorumError
	if !errors.As(err, &qe) || qe.Alive != 1 || qe.Quorum != 2 {
		t.Fatalf("quorum error = %+v", qe)
	}
	if len(rep.Attempts) != 0 {
		t.Fatalf("attempts before quorum check: %+v", rep.Attempts)
	}
}

func TestConfigErrorAbortsBeforeAnyAttempt(t *testing.T) {
	cfg := baseConfig(distmech.Star(4))
	cfg.Rate = -1
	rep, err := Run(cfg, Options{})
	var abort *AbortError
	if !errors.As(err, &abort) || abort.Class != ClassConfig {
		t.Fatalf("err = %v", err)
	}
	var ve *distmech.ValueError
	if !errors.As(err, &ve) || ve.Field != "rate" {
		t.Fatalf("cause = %v", err)
	}
	if len(rep.Attempts) != 0 {
		t.Fatal("attempts despite config error")
	}
}

func TestExhaustedIsTyped(t *testing.T) {
	// Drop everything: no attempt can ever finish aggregation.
	cfg := baseConfig(distmech.Star(4))
	cfg.Faults = faults.New(7, faults.Drop(1))
	rep, err := Run(cfg, Options{MaxAttempts: 3})
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v", err)
	}
	var ex *ExhaustedError
	if !errors.As(err, &ex) || ex.Attempts != 3 {
		t.Fatalf("exhausted = %+v", ex)
	}
	if len(rep.Attempts) != 3 {
		t.Fatalf("attempts = %d", len(rep.Attempts))
	}
	// Backoff doubles: 0.05 + 0.1 (none after the final attempt).
	if math.Abs(rep.TotalBackoff-0.15) > 1e-12 {
		t.Fatalf("total backoff = %v", rep.TotalBackoff)
	}
}

func TestBackoffSchedule(t *testing.T) {
	wants := []float64{0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 5, 5}
	for i, want := range wants {
		if got := backoff(i); math.Abs(got-want) > 1e-12 {
			t.Errorf("backoff(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestTraceIsByteIdentical(t *testing.T) {
	cfg := baseConfig(distmech.Binary(12))
	cfg.Faults = faults.New(11,
		faults.Drop(0.1), faults.Jitter(0.0005), faults.Byzantine(1.2, 5))
	run := func() string {
		rep, _ := Run(cfg, Options{})
		return rep.Trace()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, same plan, different traces:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "supervised round: n=12") {
		t.Fatalf("trace header missing:\n%s", a)
	}
}

func TestRetriesReseedTheFaultSchedule(t *testing.T) {
	// A heavy but not total drop plan: some attempt should eventually
	// see a luckier schedule. With a frozen schedule every retry would
	// fail identically.
	cfg := baseConfig(distmech.Star(6))
	cfg.Faults = faults.New(3, faults.Drop(0.05))
	rep, err := Run(cfg, Options{MaxAttempts: 10})
	if err != nil {
		t.Fatalf("never recovered: %v\n%s", err, rep.Trace())
	}
	checkAccepted(t, rep)
	if len(rep.Attempts) < 2 {
		t.Skip("seed recovered on the first attempt; reseeding not exercised")
	}
}

// TestChaosMatrix sweeps fault plans across topologies and seeds: the
// supervisor must either return an allocation conserving the rate
// over the reachable quorum, or a typed error — and never panic.
func TestChaosMatrix(t *testing.T) {
	topologies := map[string]func(int) distmech.Topology{
		"star":   distmech.Star,
		"chain":  distmech.Chain,
		"binary": distmech.Binary,
	}
	plans := map[string]string{
		"none":     "",
		"drop":     "drop=0.15",
		"dup":      "dup=0.3",
		"jitter":   "jitter=0.002",
		"reorder":  "reorder=0.3@0.004",
		"crash":    "crash=3+7",
		"silent":   "silent=5",
		"stall":    "stall=2@0.5:2",
		"byz":      "byz=4@1.3",
		"flap":     "flap=2+6@2:0.5",
		"kitchen":  "drop=0.05,dup=0.1,jitter=0.001,crash=9,byz=6@1.2,flap=8@4:0.25",
		"deadline": "drop=0.1",
		"crash0":   "crash=0",
	}
	for tname, topo := range topologies {
		for pname, spec := range plans {
			for seed := uint64(1); seed <= 2; seed++ {
				tname, topo, pname, spec, seed := tname, topo, pname, spec, seed
				t.Run(fmt.Sprintf("%s/%s/seed%d", tname, pname, seed), func(t *testing.T) {
					t.Parallel()
					plan, err := faults.ParseSpec(spec)
					if err != nil {
						t.Fatal(err)
					}
					cfg := baseConfig(topo(12))
					cfg.Faults = faults.Reseed(plan, seed)
					opts := Options{}
					if pname == "deadline" {
						opts.Deadline = 0.02
					}
					rep, err := Run(cfg, opts)
					if rep == nil {
						t.Fatal("nil report")
					}
					if err == nil {
						checkAccepted(t, rep)
						return
					}
					var (
						abort *AbortError
						ex    *ExhaustedError
						qe    *QuorumError
					)
					if !errors.As(err, &abort) && !errors.As(err, &ex) && !errors.As(err, &qe) {
						t.Fatalf("untyped error %T: %v\n%s", err, err, rep.Trace())
					}
				})
			}
		}
	}
}

func TestClassifyTable(t *testing.T) {
	cases := []struct {
		name  string
		res   *distmech.Result
		err   error
		class FailureClass
		retry bool
	}{
		{"ok", &distmech.Result{}, nil, ClassOK, false},
		{"quorum", nil, distmech.ErrQuorumLost, ClassQuorumLost, true},
		{"deadline", nil, fmt.Errorf("wrap: %w", distmech.ErrDeadlineExceeded), ClassDeadline, true},
		{"aggregate", nil, distmech.ErrAggregationIncomplete, ClassPartialAggregate, true},
		{"dissemination", nil, distmech.ErrDisseminationIncomplete, ClassPartialDissemination, true},
		{"conservation", nil, distmech.ErrConservation, ClassConservation, true},
		{"config", nil, errors.New("bad config"), ClassConfig, false},
		{"nil-nil", nil, nil, ClassConfig, false},
		{"audit", &distmech.Result{Flagged: []int{2}}, nil, ClassAudit, true},
		{"missing", &distmech.Result{Missing: []int{1, 3}}, nil, ClassUnreachable, true},
		{"claims", &distmech.Result{ClaimsOutstanding: 2}, nil, ClassAuditIncomplete, true},
	}
	for _, c := range cases {
		v := Classify(c.res, c.err, 5)
		if v.Class != c.class || v.Retry != c.retry {
			t.Errorf("%s: got class=%v retry=%v, want class=%v retry=%v",
				c.name, v.Class, v.Retry, c.class, c.retry)
		}
		if v.Accept != (c.class == ClassOK) {
			t.Errorf("%s: accept = %v", c.name, v.Accept)
		}
	}
	// Out-of-range and duplicate indices are sanitized.
	v := Classify(&distmech.Result{Flagged: []int{9, -1, 3, 3}, Missing: []int{4, 99}}, nil, 5)
	if fmt.Sprint(v.ExcludeAudit) != "[3]" || fmt.Sprint(v.ExcludeUnreachable) != "[4]" {
		t.Errorf("sanitized excludes = %v / %v", v.ExcludeAudit, v.ExcludeUnreachable)
	}
}
