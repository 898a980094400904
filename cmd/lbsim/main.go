// Command lbsim is the in-process simulation driver. It builds one
// population, the paper's 16 computers with C1 playing a Table 2
// experiment (-experiment) or a JSON scenario file (-scenario), and
// runs it through one of four runners:
//
//   - by default, one message-level protocol round on a discrete-event
//     cluster: bid collection, allocation, simulated execution,
//     execution-value estimation (verification) and payment delivery;
//   - with -rounds N, the mechanism as a long-lived N-round system whose
//     verification flags feed a reputation policy that suspends
//     computers repeatedly caught executing slower than they bid
//     (-strikes, -ban, -retries); -replications M > 1 makes it a Monte
//     Carlo sweep of M replications with derived seeds over -workers
//     goroutines (0 = all CPUs), identical for any worker count;
//   - with -topology star|chain|binary, one distributed round over that
//     spanning tree under a supervisor that classifies each failure,
//     excludes misbehaving or unreachable nodes and retries
//     (-max-attempts, -deadline), printing its RoundReport trace;
//   - with -health N, N ticks of the serving health control loop
//     (internal/health): each computer declares its true value, a
//     seeded synthetic source reports its execution values with the
//     fault plan active from tick 5 up to -fault-until, and the
//     controller verifies them every tick, degrading, ejecting,
//     probing and reinstating computers and sealing corrected registry
//     epochs; it prints every state transition, a state table every
//     -health-every ticks and a final census.
//
// Usage:
//
//	lbsim -experiment Low2 -jobs 100000 -seed 7      # a paper Table 2 scenario
//	lbsim -scenario system.json                      # a custom JSON scenario
//	lbsim -faults drop=0.1,stall=2@500:10 -dropouts  # inject faults
//	lbsim -experiment True2 -jobs 20000 -rounds 20 -faults drop=0.05,crash=7 -retries 2
//	lbsim -experiment True2 -jobs 2000 -rounds 200 -replications 32 -workers 0
//	lbsim -scenario cmd/lbsim/testdata/tree12.json -topology binary -faults drop=0.1,byz=5@1.2
//	lbsim -scenario cmd/lbsim/testdata/health8.json -health 80
//	lbsim -scenario cmd/lbsim/testdata/health8.json -health 60 -faults crash=1,flap=3@8:0.75 -fault-until 35
//
// A scenario file looks like:
//
//	{
//	  "name": "two-tier", "model": "linear", "rate": 6, "jobs": 50000,
//	  "computers": [
//	    {"true": 1},
//	    {"true": 2, "bid_factor": 0.5, "exec_factor": 2}
//	  ]
//	}
//
// With -scenario, the -jobs, -seed, -faults and -dropouts flags that are
// set on the command line override the file's values, also when they
// set the zero value: an empty -faults runs no plan, and
// -dropouts=false tolerates no dropouts. The -rounds, -topology and
// -health runners take linear scenarios without allow_dropouts. The
// -topology runner reads neither jobs nor seed, and the -health runner
// reads no jobs and refuses a computer whose factors are not 1, since
// there the fault plan decides who misbehaves.
//
// -faults, -metrics, -trace, -cpuprofile and -memprofile apply to every
// runner; any other flag the chosen runner does not read is a usage
// error (exit 2), and so are -metrics and -trace with -replications > 1,
// whose workers share no observer.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/distmech"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/protocol"
	"repro/internal/report"
	"repro/internal/rounds"
	"repro/internal/supervise"
)

// The runners, named as usage errors name them.
const (
	oneRound = "the protocol round"
	multi    = "-rounds"
	tree     = "-topology"
	loop     = "-health"
)

// readBy lists the runners that read each runner-specific flag; the
// flags missing here are read by all four.
var readBy = map[string][]string{
	"jobs":         {oneRound, multi},
	"seed":         {oneRound, multi, loop},
	"dropouts":     {oneRound},
	"rounds":       {multi},
	"strikes":      {multi},
	"ban":          {multi},
	"retries":      {multi},
	"replications": {multi},
	"workers":      {multi},
	"topology":     {tree},
	"max-attempts": {tree},
	"deadline":     {tree},
	"health":       {loop},
	"fault-until":  {loop},
	"health-every": {loop},
}

// errUsage marks a command line that no runner accepts: main exits 2 on
// it, as the flag package does for a malformed flag.
var errUsage = errors.New("usage error")

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, errUsage) {
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsim:", err)
		os.Exit(1)
	}
}

// run parses the command line in args and writes the report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("lbsim", flag.ContinueOnError)
	expName := fs.String("experiment", "True1", "Table 2 experiment name (True1..Low2)")
	scenarioPath := fs.String("scenario", "", "path to a JSON scenario file (overrides -experiment)")
	jobs := fs.Int("jobs", 100000, "number of jobs to simulate, per round with -rounds (overrides the scenario file's when set)")
	seed := fs.Uint64("seed", 1, "random seed (overrides the scenario file's when set)")
	faultSpec := fs.String("faults", "", "fault plan, e.g. drop=0.1,silent=3,stall=2@500:10 (see package faults)")
	dropouts := fs.Bool("dropouts", false, "tolerate agents whose bids never arrive instead of aborting")
	metrics := fs.Bool("metrics", false, "print a metrics snapshot (JSON then Prometheus text) after the run")
	trace := fs.Bool("trace", false, "print the event trace after the run")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	nRounds := fs.Int("rounds", 0, "run the population as a multi-round system for this many rounds")
	strikes := fs.Int("strikes", 2, "with -rounds, verification flags before suspension")
	ban := fs.Int("ban", 3, "with -rounds, suspension length in rounds")
	retries := fs.Int("retries", 0, "with -rounds, per-round retries before degrading to the responsive computers")
	replications := fs.Int("replications", 1, "with -rounds, independent replications with derived seeds (> 1 enables the sweep)")
	workers := fs.Int("workers", 0, "with -rounds, fan-out width for -replications (0 = all CPUs)")
	topology := fs.String("topology", "", "run one supervised distributed round over this spanning tree: star, chain or binary")
	maxAttempts := fs.Int("max-attempts", 6, "with -topology, the supervisor's retry budget")
	deadline := fs.Float64("deadline", 0, "with -topology, per-attempt deadline in simulated seconds (0 = none)")
	ticks := fs.Int("health", 0, "run the population through this many ticks of the health control loop")
	faultUntil := fs.Int("fault-until", 45, "with -health, the first tick the faults are repaired (0 = never)")
	healthEvery := fs.Int("health-every", 20, "with -health, ticks between state tables (0 = final only)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	usage := func(msg string) error {
		fmt.Fprintln(fs.Output(), "lbsim:", msg)
		fs.Usage()
		return errUsage
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	// Every runner but the default is named after the flag that
	// selects it.
	runner := oneRound
	for _, r := range []string{multi, tree, loop} {
		if !set[r[1:]] {
			continue
		}
		if runner != oneRound {
			return usage("give at most one of -rounds, -topology and -health")
		}
		runner = r
	}
	unread := ""
	fs.Visit(func(f *flag.Flag) {
		if rs, ok := readBy[f.Name]; ok && !slices.Contains(rs, runner) && unread == "" {
			unread = f.Name
		}
	})
	if unread != "" {
		return usage(fmt.Sprintf("-%s is not read by %s", unread, runner))
	}
	if (*metrics || *trace) && *replications > 1 {
		return usage("-metrics and -trace are not read with -replications > 1 (the workers share no observer)")
	}

	s, header, err := population(*expName, *scenarioPath, set, *jobs, *seed)
	if err != nil {
		return err
	}
	if set["faults"] {
		s.FaultSpec = *faultSpec
	}
	if set["dropouts"] {
		s.AllowDropouts = *dropouts
	}
	if runner != oneRound {
		if err := s.linearOnly(runner); err != nil {
			return err
		}
	}
	inj, err := s.injector()
	if err != nil {
		return err
	}
	var ob *obs.Observer
	if *metrics || *trace {
		ob = obs.New(0)
	}
	dump := func() error { return ob.Dump(w, *metrics, *trace) }

	stopProfiles, err := profile.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	switch runner {
	case multi:
		cfg := rounds.Config{
			Computers:    s.computerSpecs(),
			Rate:         s.Rate,
			Rounds:       *nRounds,
			JobsPerRound: s.Jobs,
			Seed:         s.Seed,
			Policy:       rounds.Policy{Strikes: *strikes, BanRounds: *ban, ForgiveAfter: 10},
			Faults:       inj,
			MaxRetries:   *retries,
			Obs:          ob,
		}
		if *replications > 1 {
			return runSweep(w, cfg, *replications, *workers)
		}
		res, err := rounds.Run(cfg)
		if err != nil {
			// Flush whatever was recorded up to the failure first; the
			// run's error is the one to report.
			_ = dump()
			return err
		}
		roundsTable(fmt.Sprintf("Multi-round system, %s; %d strikes -> %d-round ban.", header, *strikes, *ban), res).Render(w)
		fmt.Fprintf(w, "\nsuspensions per computer: %v\n", res.Suspensions)
		if *scenarioPath == "" {
			fmt.Fprintln(w, "note: while C1 is suspended the system runs at the optimum of the honest computers.")
		}
	case tree:
		shape, ok := shapes[*topology]
		if !ok {
			return fmt.Errorf("unknown topology %q (want star, chain or binary)", *topology)
		}
		rep, err := supervise.Run(distmech.Config{
			Tree:   shape(len(s.Computers)),
			Agents: s.agents(),
			Rate:   s.Rate,
			Faults: inj,
		}, supervise.Options{MaxAttempts: *maxAttempts, Deadline: *deadline, Obs: ob})
		fmt.Fprint(w, rep.Trace())
		// Flush the snapshot before a failure: a failed round's
		// counters are exactly what an operator needs to see.
		if derr := dump(); derr != nil {
			return derr
		}
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		acceptedTable(rep).Render(w)
		return nil
	case loop:
		if err := runHealth(w, s, *ticks, *faultUntil, *healthEvery, ob); err != nil {
			return err
		}
	default:
		s.Obs = ob
		res, err := s.run()
		if err != nil {
			return err
		}
		printResult(w, header, res)
	}
	if ob != nil {
		fmt.Fprintln(w)
		return dump()
	}
	return nil
}

// population builds the scenario that -experiment or -scenario
// describes, with the header its reports start from. An experiment
// runs -jobs jobs with -seed; a scenario file's jobs and seed give way
// only to flags set on the command line.
func population(expName, path string, set map[string]bool, jobs int, seed uint64) (*scenario, string, error) {
	if path == "" {
		exp, err := experiments.ExperimentByName(expName)
		if err != nil {
			return nil, "", err
		}
		s := &scenario{Model: "linear", Rate: experiments.PaperRate, Jobs: jobs, Seed: seed}
		for _, t := range experiments.PaperTrueValues() {
			s.Computers = append(s.Computers, computer{True: t, BidFactor: 1, ExecFactor: 1})
		}
		s.Computers[0].BidFactor = exp.BidFactor
		s.Computers[0].ExecFactor = exp.ExecFactor
		return s, fmt.Sprintf("experiment %s: C1 bids %.3g*t1, executes at %.3g*t1",
			exp.Name, exp.BidFactor, exp.ExecFactor), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	s, err := loadScenario(f)
	f.Close()
	if err != nil {
		return nil, "", err
	}
	if set["jobs"] {
		s.Jobs = jobs
	}
	if set["seed"] {
		s.Seed = seed
	}
	return s, fmt.Sprintf("scenario %s (%s model, R=%g)", s.Name, s.Model, s.Rate), nil
}

// shapes maps a -topology name to its spanning-tree constructor.
var shapes = map[string]func(n int) distmech.Topology{
	"star":   distmech.Star,
	"chain":  distmech.Chain,
	"binary": distmech.Binary,
}

// runSweep fans count replications of cfg over the parallel harness
// and prints a per-replication summary plus a mean row.
func runSweep(w io.Writer, cfg rounds.Config, count, workers int) error {
	rows, err := experiments.Sweep(cfg, count, workers)
	if err != nil {
		return err
	}
	tab := experiments.ReplicationTable(
		fmt.Sprintf("Monte Carlo sweep: %d replications x %d rounds (seeds derived from %d).",
			count, cfg.Rounds, cfg.Seed), rows)
	var lat, opt, regret, pay float64
	var flags, susp int
	for _, r := range rows {
		lat += r.MeanLatency
		opt += r.MeanOpt
		regret += r.RegretPct
		pay += r.MeanPayment
		flags += r.Flags
		susp += r.Suspensions
	}
	n := float64(len(rows))
	tab.AddRow("mean",
		report.FormatFloat(lat/n),
		report.FormatFloat(opt/n),
		fmt.Sprintf("%.2f", regret/n),
		report.FormatFloat(pay/n),
		fmt.Sprintf("%.1f", float64(flags)/n),
		fmt.Sprintf("%.1f", float64(susp)/n),
		"")
	tab.Render(w)
	return nil
}

// roundsTable renders one row per round of a multi-round run.
func roundsTable(title string, res *rounds.Result) *report.Table {
	tab := report.NewTable(title,
		"Round", "Active", "Latency", "Optimum (active)", "Flagged", "Suspended", "Attempts", "Dropouts")
	for _, rec := range res.Records {
		tab.AddRow(
			fmt.Sprintf("%d", rec.Round),
			fmt.Sprintf("%d", len(rec.Active)),
			report.FormatFloat(rec.Latency),
			report.FormatFloat(rec.OptLatency),
			joinInts(rec.Flagged),
			joinInts(rec.Suspended),
			fmt.Sprintf("%d", rec.Attempts),
			joinInts(rec.Dropouts),
		)
	}
	return tab
}

// acceptedTable renders a supervised round's accepted allocation.
func acceptedTable(rep *supervise.Report) *report.Table {
	tab := report.NewTable("Accepted allocation (excluded nodes hold zero).",
		"Node", "Allocation", "Payment", "Utility")
	for i := range rep.Alloc {
		tab.AddRow(
			fmt.Sprintf("C%d", i+1),
			report.FormatFloat(rep.Alloc[i]),
			report.FormatFloat(rep.Payments[i]),
			report.FormatFloat(rep.Utilities[i]),
		)
	}
	return tab
}

func printResult(w io.Writer, header string, res *protocol.Result) {
	fmt.Fprintln(w, header)
	fmt.Fprintf(w, "protocol messages: %d\n", res.Messages)
	if res.Lost > 0 || len(res.Dropped) > 0 {
		fmt.Fprintf(w, "fault layer: %d messages lost, dropped agents: %s\n",
			res.Lost, joinOrNone(res.Dropped))
	}
	fmt.Fprintf(w, "simulated %d jobs over %.1f s of virtual time\n\n",
		totalJobs(res), res.Sim.Duration)

	tab := report.NewTable("Per-computer results (payments from estimated execution values).",
		"Computer", "Assigned rate", "Estimated t~", "95% CI", "Flagged",
		"Payment", "Oracle payment", "Utility")
	for i := range res.Estimates {
		est := res.Estimates[i]
		flagged := ""
		if res.Verdicts[i].Invalid {
			flagged = "INVALID"
		} else if res.Verdicts[i].Deviating {
			flagged = "DEVIATING"
		}
		tab.AddRow(
			fmt.Sprintf("C%d", res.Active[i]+1),
			report.FormatFloat(res.Outcome.Alloc[i]),
			report.FormatFloat(est.Value),
			fmt.Sprintf("[%s, %s]", report.FormatFloat(est.Lo), report.FormatFloat(est.Hi)),
			flagged,
			report.FormatFloat(res.Outcome.Payment[i]),
			report.FormatFloat(res.Oracle.Payment[i]),
			report.FormatFloat(res.Outcome.Utility[i]),
		)
	}
	tab.Render(w)

	fmt.Fprintf(w, "\nrealized total latency (analytic): %s\n",
		report.FormatFloat(res.Oracle.RealLatency))
	fmt.Fprintf(w, "realized total latency (simulated): %s\n",
		report.FormatFloat(res.Sim.TotalLatencyRate))
}

func totalJobs(res *protocol.Result) int {
	n := 0
	for _, s := range res.Sim.PerNode {
		n += s.Jobs
	}
	return n
}

func joinOrNone(names []string) string {
	if len(names) == 0 {
		return "none"
	}
	return strings.Join(names, ",")
}

// joinInts names 0-based computer indices C1, C2, ...
func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, v := range xs {
		parts[i] = fmt.Sprintf("C%d", v+1)
	}
	return strings.Join(parts, ",")
}
