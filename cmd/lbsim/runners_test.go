package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/distmech"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/mech"
	"repro/internal/protocol"
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
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := loadScenario(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
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

// TestRunnerRefusals pins the command lines no runner accepts: a flag
// its runner does not read, both runners at once, and populations the
// linear-only -rounds and -topology runners cannot run.
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
	for _, path := range []string{"testdata/mm1.json", dropouts} {
		for _, runner := range [][]string{{"-rounds", "2"}, {"-topology", "star"}} {
			args := append([]string{"-scenario", path}, runner...)
			out, err := lbsim(args...)
			if err == nil || errors.Is(err, errUsage) || out != "" {
				t.Errorf("%v: err %v with %d bytes of report, want a scenario error and none", args, err, len(out))
			}
		}
	}
}
