// Command lbswarm runs distributed selfish load balancing at scale:
// m tasks migrate over n machines with the randomized neighborhood-
// free protocol of arXiv cs/0506098 (each task samples one machine
// per round and moves with probability 1 − ℓ_dest/ℓ_src), and the
// run reports how fast the decentralized dynamics reach the one-shot
// optimum x* the mechanism computes directly.
//
// The machine population is a sealed registry epoch: lbswarm builds a
// bid registry with slopes log-spaced across -spread, seals it, and
// bridges the snapshot into the swarm, so the convergence target is
// literally the epoch's PR allocation. Convergence is reported as
// rounds to ε-balance, total-variation distance to x*, migration
// throughput, and the cs/0506098 O(log log m + n²) scale.
//
// Usage:
//
//	lbswarm                                   # 10^6 tasks on 1024 machines
//	lbswarm -m 10000000 -n 4096 -eps 0.01     # the 10^7-agent headline run
//	lbswarm -spread 32 -place random          # heterogeneous machines
//	lbswarm -join 5000 -leave 5000            # online arrivals/departures
//	lbswarm -sweep-m 100000,1000000,10000000 -sweep-n 16,256,4096
//	lbswarm -workers 4 -cpuprofile cpu.pprof
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/registry"
	"repro/internal/report"
	"repro/internal/swarm"
)

func main() {
	m := flag.Int("m", 1_000_000, "tasks")
	n := flag.Int("n", 1024, "machines")
	spread := flag.Float64("spread", 1, "bid spread: slowest slope / fastest slope (1 = uniform machines)")
	eps := flag.Float64("eps", 0.01, "relative imbalance target for convergence")
	maxRounds := flag.Int("max-rounds", 1000, "round budget per run")
	seed := flag.Uint64("seed", 1, "root seed (the trajectory is a pure function of the config)")
	workers := flag.Int("workers", 0, "fan-out width (0 = GOMAXPROCS); any value replays the same trajectory")
	block := flag.Int("block", 0, "tasks per block (0 = default; part of the stream layout)")
	place := flag.String("place", "single", "initial placement: single (adversarial all-on-one) or random")
	join := flag.Int("join", 0, "tasks arriving per round (online variant)")
	leave := flag.Int("leave", 0, "tasks departing per round (online variant)")
	churnFrom := flag.Int("churn-from", 0, "first churn round (0 = from the start)")
	churnUntil := flag.Int("churn-until", 0, "last churn round (0 = forever)")
	sweepM := flag.String("sweep-m", "", "comma-separated task counts: run the full m × n grid")
	sweepN := flag.String("sweep-n", "", "comma-separated machine counts for the grid (default: -n)")
	metrics := flag.Bool("metrics", false, "print a metrics snapshot (JSON then Prometheus text) after the run")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile")
	memprofile := flag.String("memprofile", "", "write a heap profile")
	flag.Parse()

	if *m < 1 || *n < 1 {
		fatalf("need -m >= 1 and -n >= 1")
	}
	if *spread < 1 || math.IsNaN(*spread) || math.IsInf(*spread, 0) {
		fatalf("-spread must be a finite value >= 1, got %v", *spread)
	}
	if !(*eps >= 0) {
		fatalf("-eps must be >= 0, got %v", *eps)
	}
	var placeSingle bool
	switch *place {
	case "single":
		placeSingle = true
	case "random":
	default:
		fatalf("-place must be single or random, got %q", *place)
	}

	stopProfiles, err := profile.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatalf("%v", err)
	}
	defer stopProfiles()

	var ob *obs.Observer
	var met *obs.SwarmMetrics
	if *metrics {
		ob = obs.New(0)
		met = ob.SwarmMetrics()
	}

	ms, err := intList(*sweepM, *m)
	if err != nil {
		fatalf("-sweep-m: %v", err)
	}
	ns, err := intList(*sweepN, *n)
	if err != nil {
		fatalf("-sweep-n: %v", err)
	}

	tbl := report.NewTable(
		fmt.Sprintf("selfish rebalancing: rounds to %.2g-balance vs the mechanism optimum (spread %g, place %s)", *eps, *spread, *place),
		"m", "n", "workers", "rounds", "bound", "migrated", "moved/s", "decisions/s", "imbalance", "tv(x*)", "wall")
	for _, mm := range ms {
		for _, nn := range ns {
			cfg, err := epochConfig(mm, nn, *spread)
			if err != nil {
				fatalf("%v", err)
			}
			cfg.Seed = *seed
			cfg.Workers = *workers
			cfg.Block = *block
			cfg.PlaceSingle = placeSingle
			cfg.Join, cfg.Leave = *join, *leave
			cfg.ChurnFrom, cfg.ChurnUntil = *churnFrom, *churnUntil
			if *join > 0 {
				cfg.MaxTasks = mm + *join**maxRounds
			}
			cfg.Metrics = met
			s, err := swarm.New(cfg)
			if err != nil {
				fatalf("%v", err)
			}
			start := time.Now()
			rounds, moved := 0, int64(0)
			var last swarm.RoundStats
			converged := false
			for rounds < *maxRounds {
				t0 := time.Now()
				last = s.Round()
				met.RoundTimed(time.Since(t0).Seconds())
				rounds++
				moved += last.Migrations
				if last.Imbalance <= *eps {
					converged = true
					met.BalancedRun()
					break
				}
			}
			wall := time.Since(start)
			roundsCell := strconv.Itoa(rounds)
			if !converged {
				roundsCell = ">" + roundsCell
			}
			secs := wall.Seconds()
			tbl.AddRow(
				fmtCount(mm), strconv.Itoa(nn), strconv.Itoa(s.Workers()),
				roundsCell,
				fmt.Sprintf("%.0f", swarm.BoundUniform(mm, nn)),
				fmtCount64(moved),
				fmtCount64(int64(float64(moved)/secs)),
				fmtCount64(int64(float64(last.Tasks)*float64(rounds)/secs)),
				fmt.Sprintf("%.4f", last.Imbalance),
				fmt.Sprintf("%.5f", last.TVOptimum),
				wall.Round(time.Millisecond).String(),
			)
		}
	}
	tbl.Render(os.Stdout)
	fmt.Println("\nbound is the cs/0506098 O(log log m + n²) scale at constant 1; tv(x*) is the")
	fmt.Println("total-variation distance between the final task shares and the sealed epoch's")
	fmt.Println("PR optimum x*. Any -workers value replays the identical trajectory.")

	if *metrics {
		fmt.Println()
		if err := ob.Dump(os.Stdout, true, false); err != nil {
			fatalf("%v", err)
		}
	}
}

// epochConfig seals a registry epoch of n bids log-spaced across
// [1, spread] and makes its sealed bids the swarm's machine slopes:
// the convergence target is the sealed epoch's PR allocation.
func epochConfig(tasks, n int, spread float64) (swarm.Config, error) {
	reg, err := registry.New(registry.Config{})
	if err != nil {
		return swarm.Config{}, err
	}
	if err := reg.SetRate(float64(tasks)); err != nil {
		return swarm.Config{}, err
	}
	for i := 0; i < n; i++ {
		t := 1.0
		if n > 1 && spread > 1 {
			t = math.Pow(spread, float64(i)/float64(n-1))
		}
		if _, err := reg.Add(t); err != nil {
			return swarm.Config{}, err
		}
	}
	return swarm.Config{Tasks: tasks, T: reg.Seal().Bids(nil)}, nil
}

// intList parses a comma-separated positive int list, or returns
// [def] for an empty spec.
func intList(spec string, def int) ([]int, error) {
	if spec == "" {
		return []int{def}, nil
	}
	parts := strings.Split(spec, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		if v < 1 {
			return nil, fmt.Errorf("value %d out of range", v)
		}
		out = append(out, v)
	}
	return out, nil
}

// fmtCount renders 1000000 as 1.0e6 for the table's m column.
func fmtCount(v int) string {
	if v < 100000 {
		return strconv.Itoa(v)
	}
	return fmt.Sprintf("%.1e", float64(v))
}

// fmtCount64 renders large counts compactly (12.3M, 4.5k).
func fmtCount64(v int64) string {
	switch {
	case v >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(v)/1e6)
	case v >= 10_000:
		return fmt.Sprintf("%.1fk", float64(v)/1e3)
	default:
		return strconv.FormatInt(v, 10)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lbswarm: "+format+"\n", args...)
	os.Exit(1)
}
