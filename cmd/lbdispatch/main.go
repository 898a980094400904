// Command lbdispatch drives per-job dispatch policies against a sealed
// registry epoch at full speed and prices what each policy actually did.
// A population of computers bids ascending latency parameters, the
// registry seals the epoch, and every policy routes the same Poisson
// job stream (split into per-worker substreams whose superposition is
// again Poisson) through the Dispatcher interface. The realized
// per-instance rates are then pushed through a latency model — M/M/1
// queues by default, the paper's linear model with -model linear — and
// compared against the mechanism optimum for the sealed epoch.
//
// The point of the exercise is the herding column: a greedy router
// that sends every job to the instance with the best sealed bid
// collapses the whole stream onto it (max share 1.0, modeled queue
// unstable), while alias-table sampling tracks the sealed allocation
// x_i* and lands within noise of the optimal latency. The classic
// baselines (round-robin, least-connections, power-of-two-choices,
// smooth weighted, ip-hash) fall in between.
//
// Usage:
//
//	lbdispatch
//	lbdispatch -computers 64 -jobs 5000000 -workers 8 -rho 0.85
//	lbdispatch -policies alias,greedy -model linear -dist pareto
//	lbdispatch -eject 1   # SealCorrected demo: eject the fastest instance
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/dispatch"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/report"
	"repro/internal/workload"
)

func main() {
	computers := flag.Int("computers", 16, "number of live computers in the sealed epoch")
	jobs := flag.Int("jobs", 2_000_000, "jobs dispatched per policy")
	workers := flag.Int("workers", 0, "concurrent dispatch workers (0 = GOMAXPROCS)")
	policiesSpec := flag.String("policies", "all", "comma-separated policies, or \"all\" (see dispatch.Policies)")
	seed := flag.Uint64("seed", 1, "hash seed for the randomized policies and the job stream")
	model := flag.String("model", "mm1", "latency model: mm1 (exponential service) or linear (the paper's)")
	rho := flag.Float64("rho", 0.7, "system utilization R/sum(mu) of the M/M/1 model, in (0,1)")
	rate := flag.Float64("rate", 1000, "modeled total arrival rate R (jobs/s)")
	distName := flag.String("dist", "const", "job size distribution: const, exp, lognormal, pareto")
	clients := flag.Uint64("clients", 4096, "distinct client keys in the stream (ip-hash stickiness domain)")
	spread := flag.Float64("spread", 4, "bid spread: slowest bid / fastest bid")
	inflight := flag.Int("inflight", 64, "per-worker in-flight window before Done is reported (0 = fire and forget)")
	eject := flag.Int("eject", 0, "eject the k fastest instances via a SealCorrected epoch before dispatching")
	metrics := flag.Bool("metrics", false, "print a metrics snapshot (JSON then Prometheus text) after the run")
	flag.Parse()

	if *computers < 1 || *jobs < 1 || *spread < 1 || *clients < 1 {
		fatalf("need -computers >= 1, -jobs >= 1, -spread >= 1, -clients >= 1")
	}
	if !(*rho > 0 && *rho < 1) {
		fatalf("-rho must be in (0,1), got %v", *rho)
	}
	if *eject < 0 || *eject >= *computers {
		fatalf("-eject must leave at least one instance (got %d of %d)", *eject, *computers)
	}
	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > *jobs {
		w = *jobs
	}
	dist, err := parseDist(*distName)
	if err != nil {
		fatalf("%v", err)
	}
	policies, err := parsePolicies(*policiesSpec)
	if err != nil {
		fatalf("%v", err)
	}

	var ob *obs.Observer
	if *metrics {
		ob = obs.New(0)
	}

	// Seal the epoch: bids ascend linearly from 1 to the spread, so
	// instance 0 (reported one-based as instance 1) is the fastest and
	// the greedy policy's collapse target.
	reg, err := registry.New(registry.Config{Rate: *rate, Metrics: ob.RegistryMetrics()})
	if err != nil {
		fatalf("registry: %v", err)
	}
	ids := make([]int, *computers)
	for i := range ids {
		t := 1.0
		if *computers > 1 {
			t = 1 + (*spread-1)*float64(i)/float64(*computers-1)
		}
		id, err := reg.Add(t)
		if err != nil {
			fatalf("add computer %d: %v", i, err)
		}
		ids[i] = id
	}
	snap := reg.Seal()
	if *eject > 0 {
		drop := make(map[int]bool, *eject)
		for _, id := range ids[:*eject] {
			drop[id] = true
		}
		snap, err = reg.SealCorrected(&registry.Correction{Drop: drop})
		if err != nil {
			fatalf("corrected seal: %v", err)
		}
		fmt.Printf("corrected epoch %d: ejected the %d fastest instance(s); %d remain\n",
			snap.Epoch(), *eject, snap.N())
	}

	mdl, err := newModel(*model, snap, *rho)
	if err != nil {
		fatalf("%v", err)
	}
	n := snap.N()
	fmt.Printf("epoch %d: %d instances, R=%g, S=%.6g, model=%s, bid spread %gx\n",
		snap.Epoch(), n, snap.Rate(), snap.Sum(), mdl.describe(), *spread)
	fmt.Printf("dispatching %d jobs per policy across %d workers (dist=%s, clients=%d, inflight=%d)\n\n",
		*jobs, w, *distName, *clients, *inflight)

	horizon := float64(*jobs) / snap.Rate()
	tbl := report.NewTable("per-job dispatch: "+mdl.describe(),
		"policy", "Mjobs/s", "mean", "p99", "vs opt", "max share", "unstable")
	accounts := make(map[string]*dispatch.Account, len(policies))
	for _, policy := range policies {
		d, err := dispatch.New(policy, *seed)
		if err != nil {
			fatalf("%v", err)
		}
		err = d.Rebuild(snap)
		ob.DispatchMetrics().Rebuilt(policy, snap.Epoch(), err)
		if err != nil {
			fatalf("rebuild %s: %v", policy, err)
		}
		tal, elapsed := drive(d, *jobs, w, snap.Rate(), dist, *clients, *inflight, *seed)
		acct, err := mdl.account(tal, horizon)
		if err != nil {
			fatalf("account %s: %v", policy, err)
		}
		accounts[policy] = acct
		maxShare, _ := acct.MaxShare()
		ob.DispatchMetrics().Dispatched(policy, acct.Jobs)
		ob.DispatchMetrics().Accounted(maxShare, acct.Unstable)
		tbl.AddRow(policy,
			fmt.Sprintf("%.2f", float64(*jobs)/elapsed.Seconds()/1e6),
			fmtLatency(acct.Mean),
			fmtLatency(acct.P99),
			fmtRatio(acct.Mean/mdl.optMean),
			fmt.Sprintf("%.3f", maxShare),
			fmt.Sprintf("%d", acct.Unstable),
		)
	}
	tbl.Render(os.Stdout)
	fmt.Printf("\noptimal mean latency at the sealed allocation x*: %s (max share %.3f)\n",
		fmtLatency(mdl.optMean), mdl.optMaxShare)

	herdingSummary(snap, mdl, accounts)

	if *metrics {
		fmt.Println()
		if err := ob.Dump(os.Stdout, true, false); err != nil {
			fatalf("%v", err)
		}
	}
}

// drive pushes the job stream through one dispatcher from w workers
// and returns the merged tally plus wall time. Job IDs are globally
// unique and worker-independent (worker k owns a contiguous ID block),
// and client keys derive from the job ID — so for pure-function
// policies the merged tally is byte-identical for any worker count.
func drive(d dispatch.Dispatcher, jobs, w int, rate float64, dist workload.SizeDist, clients uint64, inflight int, seed uint64) (*dispatch.Tally, time.Duration) {
	srcs := workload.SplitPoisson(rate, jobs, w, dist, numeric.NewRand(seed))
	base := make([]int64, w)
	per, rem := jobs/w, jobs%w
	for i := 1; i < w; i++ {
		k := per
		if i-1 < rem {
			k++
		}
		base[i] = base[i-1] + int64(k)
	}
	tallies := make([]*dispatch.Tally, w)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tal := dispatch.NewTally(d.N())
			var ring []int
			rpos := 0
			if inflight > 0 {
				ring = make([]int, 0, inflight)
			}
			src := srcs[i]
			for {
				j, ok := src.Next()
				if !ok {
					break
				}
				id := base[i] + j.ID
				job := dispatch.Job{ID: id, Key: uint64(id)%clients + 1}
				tgt := d.Pick(job)
				tal.Observe(tgt, j.Size)
				if inflight > 0 {
					if len(ring) < inflight {
						ring = append(ring, tgt)
					} else {
						d.Done(job, ring[rpos])
						ring[rpos] = tgt
						rpos = (rpos + 1) % inflight
					}
				}
			}
			for _, tgt := range ring {
				d.Done(dispatch.Job{}, tgt)
			}
			tallies[i] = tal
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	merged := tallies[0]
	for _, tal := range tallies[1:] {
		if err := merged.Merge(tal); err != nil {
			fatalf("merge tallies: %v", err)
		}
	}
	return merged, elapsed
}

// model prices tallies and knows the epoch's optimum under itself.
type model struct {
	name        string
	ts          []float64 // linear: sealed bids per instance
	mus         []float64 // mm1: service rates per instance
	optMean     float64   // modeled mean latency at the sealed x*
	optMaxShare float64   // largest x_i*/R — what herding should look like
}

// newModel derives the per-instance latency model from the sealed
// epoch. For mm1 the service rates are proportional to the sealed
// speeds 1/t_i, scaled so total utilization is rho: mu_i =
// R/(rho·t_i·S), hence x_i*/mu_i = rho for every instance — the sealed
// allocation loads all queues evenly.
func newModel(name string, snap *registry.Snapshot, rho float64) (*model, error) {
	ids := snap.IDs(nil)
	m := &model{name: name}
	var opt numeric.KahanSum
	for _, id := range ids {
		t, _ := snap.Value(id)
		x, _ := snap.Load(id)
		share := x / snap.Rate()
		if share > m.optMaxShare {
			m.optMaxShare = share
		}
		switch name {
		case "linear":
			m.ts = append(m.ts, t)
			opt.Add(share * t * x)
		case "mm1":
			mu := x / rho
			m.mus = append(m.mus, mu)
			opt.Add(share / (mu - x))
		default:
			return nil, fmt.Errorf("unknown -model %q (want mm1 or linear)", name)
		}
	}
	m.optMean = opt.Value()
	return m, nil
}

func (m *model) account(tal *dispatch.Tally, horizon float64) (*dispatch.Account, error) {
	if m.name == "linear" {
		return dispatch.AccountLinear(tal, m.ts, horizon)
	}
	return dispatch.AccountMM1(tal, m.mus, horizon)
}

func (m *model) describe() string {
	if m.name == "linear" {
		return "linear latency model"
	}
	return "M/M/1 queues"
}

// herdingSummary quantifies collapse-vs-tracking when both the greedy
// and alias policies ran: greedy's max share against the sealed
// optimum's, and alias' worst per-instance deviation from x_i*/R.
func herdingSummary(snap *registry.Snapshot, mdl *model, accounts map[string]*dispatch.Account) {
	greedy, alias := accounts["greedy"], accounts["alias"]
	if greedy == nil && alias == nil {
		return
	}
	fmt.Println("\nherding:")
	if greedy != nil {
		share, inst := greedy.MaxShare()
		fmt.Printf("  greedy routes %.1f%% of all jobs to instance %d (optimal share %.1f%%)",
			share*100, inst+1, mdl.optMaxShare*100)
		if greedy.Unstable > 0 {
			fmt.Printf(" — its modeled queue is unstable, latency unbounded")
		}
		fmt.Println()
	}
	if alias != nil {
		worst := 0.0
		ids := snap.IDs(nil)
		for i, s := range alias.Shares {
			x, _ := snap.Load(ids[i])
			if d := math.Abs(s - x/snap.Rate()); d > worst {
				worst = d
			}
		}
		fmt.Printf("  alias tracks the sealed allocation: worst per-instance share deviation from x_i*/R is %.4f\n", worst)
	}
}

func parsePolicies(spec string) ([]string, error) {
	if spec == "all" {
		return dispatch.Policies(), nil
	}
	known := dispatch.Policies()
	var out []string
	for _, p := range strings.Split(spec, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		found := false
		for _, k := range known {
			if p == k {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown policy %q (known: %s)", p, strings.Join(known, ", "))
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no policies selected")
	}
	return out, nil
}

func parseDist(name string) (workload.SizeDist, error) {
	switch name {
	case "const":
		return workload.ConstSize{}, nil
	case "exp":
		return workload.ExpSize{}, nil
	case "lognormal":
		return workload.LognormalSize{Sigma: 1}, nil
	case "pareto":
		return workload.ParetoSize{Alpha: 2.5}, nil
	}
	return nil, fmt.Errorf("unknown -dist %q (want const, exp, lognormal, pareto)", name)
}

func fmtLatency(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%.4g", v)
}

func fmtRatio(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%.3fx", v)
}

func fatalf(format string, args ...any) {
	fmt.Fprintln(os.Stderr, "lbdispatch: "+fmt.Sprintf(format, args...))
	os.Exit(1)
}
