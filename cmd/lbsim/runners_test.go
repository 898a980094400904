package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/distmech"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/health"
	"repro/internal/mech"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/registry"
	"repro/internal/rounds"
	"repro/internal/supervise"
)

// lbsim runs the command line args and returns its report and error.
func lbsim(args ...string) (string, error) {
	var out bytes.Buffer
	err := run(args, &out)
	return out.String(), err
}

// plan parses a fault spec, nil for none, as the multi-round and tree
// drivers that -rounds and -topology replace did.
func plan(t *testing.T, spec string) faults.Injector {
	t.Helper()
	if spec == "" {
		return nil
	}
	p, err := faults.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// loadFile loads a scenario file.
func loadFile(t *testing.T, path string) *scenario {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := loadScenario(f)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRoundsRunsThePaperSystem pins the -rounds runner on experiment
// True2 to the multi-round config the paper population always had: C1
// bids t and executes at 2t, everyone else truthful, R = 20 and a
// reputation policy forgiving after 10 rounds. Every line after the
// title is what rounds.Run returns for that config.
func TestRoundsRunsThePaperSystem(t *testing.T) {
	for _, tc := range []struct {
		args             []string
		spec             string
		seed             uint64
		strikes, ban, rt int
	}{
		{seed: 1, strikes: 2, ban: 3},
		{args: []string{"-faults", "drop=0.05,crash=7", "-retries", "2"}, spec: "drop=0.05,crash=7", seed: 1, strikes: 2, ban: 3, rt: 2},
		{args: []string{"-strikes", "1", "-ban", "2", "-seed", "5"}, seed: 5, strikes: 1, ban: 2},
	} {
		args := append([]string{"-experiment", "True2", "-jobs", "2000", "-rounds", "20"}, tc.args...)
		got, err := lbsim(args...)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		pop := make([]rounds.ComputerSpec, 16)
		for i, tv := range experiments.PaperTrueValues() {
			pop[i] = rounds.ComputerSpec{True: tv}
		}
		pop[0].Strategy = protocol.FactorStrategy{BidFactor: 1, ExecFactor: 2}
		res, err := rounds.Run(rounds.Config{
			Computers:    pop,
			Rate:         experiments.PaperRate,
			Rounds:       20,
			JobsPerRound: 2000,
			Seed:         tc.seed,
			Policy:       rounds.Policy{Strikes: tc.strikes, BanRounds: tc.ban, ForgiveAfter: 10},
			Faults:       plan(t, tc.spec),
			MaxRetries:   tc.rt,
		})
		if err != nil {
			t.Fatal(err)
		}
		var want strings.Builder
		roundsTable("", res).Render(&want)
		fmt.Fprintf(&want, "\nsuspensions per computer: %v\n", res.Suspensions)
		want.WriteString("note: while C1 is suspended the system runs at the optimum of the honest computers.\n")
		title, body, _ := strings.Cut(got, "\n")
		if !strings.HasPrefix(title, "Multi-round system, experiment True2: ") {
			t.Errorf("%v: title %q", args, title)
		}
		if body != want.String() {
			t.Errorf("%v: output differs from rounds.Run:\n%s\nwant:\n%s", args, body, want.String())
		}
	}
}

// TestTopologyRunsTheTreePopulation pins the -topology runner on
// tree12.json to the supervised round of 12 truthful computers with
// t_i = 1 + 0.15·i at R = 20: it prints supervise.Run's trace, then
// the accepted allocation, or only the trace when the round fails.
func TestTopologyRunsTheTreePopulation(t *testing.T) {
	const path = "testdata/tree12.json"
	s := loadFile(t, path)
	agents := make([]mech.Agent, 12)
	for i := range agents {
		tv := 1 + 0.15*float64(i)
		agents[i] = mech.Agent{Name: fmt.Sprintf("C%d", i+1), True: tv, Bid: tv, Exec: tv}
	}
	if got := s.agents(); len(got) != len(agents) || s.Rate != 20 {
		t.Fatalf("tree12.json holds %d computers at R=%g, want 12 at R=20", len(got), s.Rate)
	}
	for i, a := range s.agents() {
		if a != agents[i] {
			t.Fatalf("computer %d: %+v, want bitwise %+v", i, a, agents[i])
		}
	}
	for _, topo := range []string{"star", "chain", "binary"} {
		for _, tc := range []struct {
			spec     string
			attempts int
			deadline float64
			extra    []string
		}{
			{},
			{spec: "drop=0.1,byz=5@1.2"},
			{spec: "drop=0.05,byz=5@1.2"},
			{spec: "crash=8", attempts: 4, deadline: 0.05, extra: []string{"-max-attempts", "4", "-deadline", "0.05"}},
		} {
			args := []string{"-scenario", path, "-topology", topo}
			if tc.spec != "" {
				args = append(args, "-faults", tc.spec)
			}
			args = append(args, tc.extra...)
			got, err := lbsim(args...)
			rep, werr := supervise.Run(distmech.Config{
				Tree:   shapes[topo](12),
				Agents: agents,
				Rate:   20,
				Faults: plan(t, tc.spec),
			}, supervise.Options{MaxAttempts: tc.attempts, Deadline: tc.deadline})
			want := rep.Trace()
			if werr == nil {
				var tab strings.Builder
				acceptedTable(rep).Render(&tab)
				want += "\n" + tab.String()
			}
			if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
				t.Errorf("%v: err %v, supervise.Run err %v", args, err, werr)
			}
			if got != want {
				t.Errorf("%v: output differs from supervise.Run:\n%s\nwant:\n%s", args, got, want)
			}
		}
	}
}

// TestReplicationsWorkerInvariant pins that the Monte Carlo sweep
// prints experiments.Sweep's rows for the paper system's config, plus
// a mean row, and the same report at any worker count.
func TestReplicationsWorkerInvariant(t *testing.T) {
	sweep := func(workers string) string {
		out, err := lbsim("-experiment", "True2", "-rounds", "6", "-jobs", "500", "-replications", "5",
			"-faults", "drop=0.05", "-retries", "1", "-workers", workers)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	one := sweep("1")
	pop := make([]rounds.ComputerSpec, 16)
	for i, tv := range experiments.PaperTrueValues() {
		pop[i] = rounds.ComputerSpec{True: tv}
	}
	pop[0].Strategy = protocol.FactorStrategy{BidFactor: 1, ExecFactor: 2}
	rows, err := experiments.Sweep(rounds.Config{
		Computers:    pop,
		Rate:         experiments.PaperRate,
		Rounds:       6,
		JobsPerRound: 500,
		Seed:         1,
		Policy:       rounds.Policy{Strikes: 2, BanRounds: 3, ForgiveAfter: 10},
		Faults:       plan(t, "drop=0.05"),
		MaxRetries:   1,
	}, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	experiments.ReplicationTable("Monte Carlo sweep: 5 replications x 6 rounds (seeds derived from 1).", rows).Render(&want)
	body, mean, _ := strings.Cut(one, "\nmean ")
	if body+"\n" != want.String() || mean == "" {
		t.Errorf("sweep differs from experiments.Sweep's rows plus a mean row:\n%s\nwant:\n%s", one, want.String())
	}
	if four := sweep("4"); four != one {
		t.Errorf("-workers 4 differs from -workers 1:\n%s\nvs\n%s", four, one)
	}
}

// demoConfig is the configuration of the health chaos demo the
// -health runner took over: what the demo's flags set.
type demoConfig struct {
	ticks      int
	plan       string
	faultUntil int
	seed       uint64
	shards     int
	every      int
	metrics    bool
}

// demo is the health chaos demo as it ran before it was an lbsim
// runner: computer i of 8 declares 2 + 0.5·i at R = 20, and the fault
// plan is active from tick 5.
func demo(t *testing.T, cfg demoConfig, w io.Writer) {
	t.Helper()
	const computers, faultFrom = 8, 5
	p, err := faults.ParseSpec(cfg.plan)
	if err != nil {
		t.Fatal(err)
	}
	var inj faults.Injector
	if p != nil {
		inj = faults.Reseed(p, cfg.seed)
	}
	var ob *obs.Observer
	if cfg.metrics {
		ob = obs.New(0)
	}
	reg, err := registry.New(registry.Config{Rate: 20, Shards: cfg.shards})
	if err != nil {
		t.Fatal(err)
	}
	src := health.NewSource(cfg.seed, inj, health.SourceConfig{FaultFrom: faultFrom, FaultUntil: cfg.faultUntil})
	ctl := health.New(reg, ob)
	for i := 0; i < computers; i++ {
		declared := 2 + 0.5*float64(i)
		id, err := reg.Add(declared)
		if err != nil {
			t.Fatal(err)
		}
		src.Add(id, declared)
		if err := ctl.Track(id, declared); err != nil {
			t.Fatal(err)
		}
	}

	fmt.Fprintf(w, "Health control loop: %d computers, %d ticks, plan %q active [%d, %s).\n",
		computers, cfg.ticks, cfg.plan, faultFrom, untilLabel(cfg.faultUntil))
	fmt.Fprintf(w, "Policy: max_fails %d/%d ticks, fail_timeout %d, recover streak %d, slow-start %.2f over %d ticks.\n\n",
		health.MaxFails, health.FailWindow, health.FailTimeout, health.RecoverStreak, health.SlowStartWeight, health.SlowStartTicks)
	var sealed *registry.Snapshot
	corrected := 0
	for tick := 1; tick <= cfg.ticks; tick++ {
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
		if cfg.every > 0 && tick%cfg.every == 0 {
			stateTable(ctl, sealed, tick).Render(w)
			fmt.Fprintln(w)
		}
	}
	if cfg.every <= 0 || cfg.ticks%cfg.every != 0 {
		stateTable(ctl, sealed, cfg.ticks).Render(w)
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
		healthy, computers, cfg.ticks, corrected, epoch)
	if ob != nil {
		fmt.Fprintln(w)
		if err := ob.Dump(w, true, false); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHealthRunsTheDemo pins the -health runner on health8.json to the
// chaos demo it replaced: the file holds the demo's eight computers,
// rate, seed and default plan, and each command line prints what the
// demo printed for the same settings, at any registry shard count.
func TestHealthRunsTheDemo(t *testing.T) {
	const path = "testdata/health8.json"
	const defaultPlan = "crash=1,stall=3@0.5:1,byz=5@1.6,flap=6@8:0.75"
	s := loadFile(t, path)
	if len(s.Computers) != 8 || s.Rate != 20 || s.Seed != 1 || s.FaultSpec != defaultPlan {
		t.Fatalf("health8.json: %d computers, R=%g, seed %d, faults %q; want 8, 20, 1, %q",
			len(s.Computers), s.Rate, s.Seed, s.FaultSpec, defaultPlan)
	}
	for i, c := range s.Computers {
		if want := 2 + 0.5*float64(i); math.Float64bits(c.True) != math.Float64bits(want) || c.BidFactor != 1 || c.ExecFactor != 1 {
			t.Fatalf("computer %d: %+v, want true value %v bitwise and unit factors", i, c, want)
		}
	}
	for _, tc := range []struct {
		args []string
		cfg  demoConfig
	}{
		{[]string{"-health", "80"},
			demoConfig{ticks: 80, plan: defaultPlan, faultUntil: 45, seed: 1, every: 20}},
		{[]string{"-health", "60", "-faults", "crash=1,flap=3@8:0.75", "-fault-until", "35"},
			demoConfig{ticks: 60, plan: "crash=1,flap=3@8:0.75", faultUntil: 35, seed: 1, shards: 1, every: 20}},
		{[]string{"-health", "120", "-seed", "7", "-health-every", "0", "-fault-until", "0"},
			demoConfig{ticks: 120, plan: defaultPlan, seed: 7, shards: 64}},
		{[]string{"-health", "60", "-faults", "crash=1,flap=3@8:0.75", "-fault-until", "35", "-metrics"},
			demoConfig{ticks: 60, plan: "crash=1,flap=3@8:0.75", faultUntil: 35, seed: 1, every: 20, metrics: true}},
		{[]string{"-health", "70", "-faults", "crash=1,flap=4@6:0.75", "-fault-until", "40", "-health-every", "7"},
			demoConfig{ticks: 70, plan: "crash=1,flap=4@6:0.75", faultUntil: 40, seed: 1, every: 7}},
	} {
		args := append([]string{"-scenario", path}, tc.args...)
		got, err := lbsim(args...)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		var want strings.Builder
		demo(t, tc.cfg, &want)
		if got != want.String() {
			t.Errorf("%v: output differs from the demo:\n%s\nwant:\n%s", args, got, want.String())
		}
	}
}

// TestHealthEjectsTheFlapper pins the shipped health policy against
// a flapper whose healthy phase is 3 ticks (period 6, half duty): the
// recover streak outlasts the healthy phase, so computer 6 is ejected
// instead of healing every cycle.
func TestHealthEjectsTheFlapper(t *testing.T) {
	out, err := lbsim("-scenario", "testdata/health8.json", "-health", "80", "-faults", "flap=6@6:0.5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "computer 6  degraded -> ejected  (two-strike") {
		t.Errorf("flapping computer 6 never ejected:\n%s", out)
	}
}

// TestFlagsClearTheScenarioFile pins that a flag set on the command
// line overrides the scenario file even when it sets the zero value:
// an empty -faults runs without the file's plan, and -dropouts=false makes
// a silent agent abort a scenario that allows dropouts.
func TestFlagsClearTheScenarioFile(t *testing.T) {
	out, err := lbsim("-scenario", "testdata/health8.json", "-health", "10", "-faults", "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `plan "" active`) || strings.Contains(out, "->") {
		t.Errorf("-faults '' kept the file's plan:\n%s", out)
	}

	path := filepath.Join(t.TempDir(), "dropouts.json")
	if err := os.WriteFile(path, []byte(`{"name": "d", "rate": 6, "jobs": 2000, "allow_dropouts": true,
		"faults": "silent=2", "computers": [{"true": 1}, {"true": 2}, {"true": 3}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = lbsim("-scenario", path)
	if err != nil || !strings.Contains(out, "dropped agents: C3\n") {
		t.Errorf("the file's allow_dropouts: err %v, report:\n%s", err, out)
	}
	out, err = lbsim("-scenario", path, "-dropouts=false")
	if err == nil || errors.Is(err, errUsage) || !strings.Contains(err.Error(), "agent C3 failed to bid") || out != "" {
		t.Errorf("-dropouts=false: err %v with %d bytes of report, want C3's failure to bid and none", err, len(out))
	}
}

// TestRunnerRefusals pins the command lines no runner accepts: a flag
// its runner does not read, two runners at once, populations the
// linear-only -rounds, -topology and -health runners cannot run, and
// a fault plan naming a computer outside the population.
func TestRunnerRefusals(t *testing.T) {
	for _, args := range [][]string{
		{"-strikes", "3"},
		{"-dropouts", "-rounds", "5"},
		{"-deadline", "1", "-rounds", "5"},
		{"-metrics", "-replications", "4"},
		{"-rounds", "5", "-metrics", "-replications", "4"},
		{"-rounds", "5", "-trace", "-replications", "4"},
		{"-rounds", "5", "-topology", "star"},
		{"-topology", "star", "-jobs", "10"},
		{"-topology", "star", "-seed", "2"},
		{"-topology", "chain", "-workers", "2"},
		{"-max-attempts", "2"},
		{"-no-such-flag"},
		{"-health", "5", "-jobs", "10"},
		{"-health", "5", "-dropouts"},
		{"-health", "5", "-strikes", "3"},
		{"-fault-until", "5"},
		{"-health-every", "5"},
		{"-health-every", "5", "-rounds", "5"},
		{"-health", "5", "-rounds", "5"},
		{"-health", "5", "-topology", "star"},
	} {
		out, err := lbsim(args...)
		if !errors.Is(err, errUsage) || out != "" {
			t.Errorf("%v: err %v with %d bytes of report, want a usage error and none", args, err, len(out))
		}
	}

	dropouts := filepath.Join(t.TempDir(), "dropouts.json")
	if err := os.WriteFile(dropouts, []byte(`{"name": "d", "rate": 6, "allow_dropouts": true,
		"computers": [{"true": 1}, {"true": 2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	factor := filepath.Join(t.TempDir(), "factor.json")
	if err := os.WriteFile(factor, []byte(`{"name": "f", "rate": 6,
		"computers": [{"true": 1}, {"true": 2, "exec_factor": 2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	refused := [][]string{
		{"-health", "0"},
		{"-scenario", factor, "-health", "5"},
		{"-experiment", "True2", "-health", "5"},
	}
	for _, path := range []string{"testdata/mm1.json", dropouts} {
		for _, runner := range [][]string{{"-rounds", "2"}, {"-topology", "star"}, {"-health", "2"}} {
			refused = append(refused, append([]string{"-scenario", path}, runner...))
		}
	}
	for _, args := range refused {
		out, err := lbsim(args...)
		if err == nil || errors.Is(err, errUsage) || out != "" {
			t.Errorf("%v: err %v with %d bytes of report, want a scenario error and none", args, err, len(out))
		}
	}

	for _, args := range [][]string{
		{"-health", "10", "-faults", "crash=99"},
		{"-scenario", "testdata/health8.json", "-health", "10", "-faults", "stall=8@0.5:1"},
	} {
		out, err := lbsim(args...)
		var re *faults.RangeError
		if !errors.As(err, &re) || out != "" {
			t.Errorf("%v: err %v with %d bytes of report, want a *faults.RangeError and none", args, err, len(out))
		}
	}
}
