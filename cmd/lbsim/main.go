// Command lbsim runs the full message-level mechanism protocol on a
// discrete-event simulation: bid collection, allocation, simulated
// execution, execution-value estimation (verification) and payment
// delivery.
//
// Usage:
//
//	lbsim -experiment Low2 -jobs 100000 -seed 7   # a paper Table 2 scenario
//	lbsim -scenario system.json                   # a custom JSON scenario
//	lbsim -faults drop=0.1,stall=2@500:10 -dropouts   # inject faults
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
// set on the command line override the file's values.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lbsim:", err)
		os.Exit(1)
	}
}

// run parses the command line in args and writes the report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	expName := fs.String("experiment", "True1", "Table 2 experiment name (True1..Low2)")
	scenarioPath := fs.String("scenario", "", "path to a JSON scenario file (overrides -experiment)")
	jobs := fs.Int("jobs", 100000, "number of jobs to simulate (overrides the scenario file's when set)")
	seed := fs.Uint64("seed", 1, "random seed (overrides the scenario file's when set)")
	faultSpec := fs.String("faults", "", "fault plan, e.g. drop=0.1,silent=3,stall=2@500:10 (see package faults)")
	dropouts := fs.Bool("dropouts", false, "tolerate agents whose bids never arrive instead of aborting")
	metrics := fs.Bool("metrics", false, "print a metrics snapshot (JSON then Prometheus text) after the run")
	trace := fs.Bool("trace", false, "print the event trace after the run")
	fs.Parse(args)
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	plan, err := faults.ParseSpec(*faultSpec)
	if err != nil {
		return err
	}
	var inj faults.Injector
	if *faultSpec != "" {
		inj = plan
	}

	var ob *obs.Observer
	if *metrics || *trace {
		ob = obs.New(0)
	}

	var res *protocol.Result
	var header string
	if *scenarioPath != "" {
		f, err := os.Open(*scenarioPath)
		if err != nil {
			return err
		}
		s, err := loadScenario(f)
		f.Close()
		if err != nil {
			return err
		}
		if set["jobs"] {
			s.Jobs = *jobs
		}
		if set["seed"] {
			s.Seed = *seed
		}
		if inj != nil {
			s.Faults = inj
		}
		if *dropouts {
			s.AllowDropouts = true
		}
		s.Obs = ob
		res, err = s.run()
		if err != nil {
			return err
		}
		header = fmt.Sprintf("scenario %s (%s model, R=%g)", s.Name, s.Model, s.Rate)
	} else {
		exp, err := experiments.ExperimentByName(*expName)
		if err != nil {
			return err
		}
		strategies := make([]protocol.Strategy, 16)
		strategies[0] = protocol.FactorStrategy{BidFactor: exp.BidFactor, ExecFactor: exp.ExecFactor}
		res, err = protocol.Run(protocol.Config{
			Trues:         experiments.PaperTrueValues(),
			Strategies:    strategies,
			Rate:          experiments.PaperRate,
			Jobs:          *jobs,
			Seed:          *seed,
			Faults:        inj,
			AllowDropouts: *dropouts,
			Obs:           ob,
		})
		if err != nil {
			return err
		}
		header = fmt.Sprintf("experiment %s: C1 bids %.3g*t1, executes at %.3g*t1",
			exp.Name, exp.BidFactor, exp.ExecFactor)
	}
	printResult(w, header, res)
	if *metrics || *trace {
		fmt.Fprintln(w)
		return ob.Dump(w, *metrics, *trace)
	}
	return nil
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
	out := names[0]
	for _, n := range names[1:] {
		out += "," + n
	}
	return out
}
