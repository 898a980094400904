// Command lbbench is the cross-process serving benchmark. It builds
// cmd/lbserve, runs it with a write-ahead log as a separate process, and
// drives it from this single load-generator process over one
// connection, both pinned to one CPU: open-loop Poisson bids and sealed
// reads at a fixed rate with periodic seals, then back-to-back batches
// each answered in full before the next. It checks every answer
// (FIFO order, statuses, the final seal and sampled reads against a
// local oracle, the epoch recovered after kill -9) and prints every
// metric by name and unit, ending with one JSON line.
//
// With -trace 1 it instead runs a traced composition of the same
// packages — this binary re-executed with -serve-traced — and prints the
// per-layer metrics.
//
// Run it from the repository root through bench/run.sh, which builds it
// with the build cache under .bench_build:
//
//	bash bench/run.sh -workload all -seed 1
//	bash bench/run.sh -workload seal-1m -seed 3 -trace 1
//	bash bench/run.sh -workload all -runs 5 -out bench/results/set-a.json
//	bash bench/run.sh -compare bench/results/set-a.json bench/results/set-b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// buildDir holds build outputs and scratch files, inside the checkout.
const buildDir = ".bench_build"

func main() {
	os.Exit(run())
}

func run() int {
	workloadSpec := flag.String("workload", "all", "workload name, comma list, or all")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 32, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	runs := flag.Int("runs", 1, "runs per workload, with seeds seed, seed+1, ...")
	out := flag.String("out", "", "also write every run of this invocation to this file")
	compare := flag.String("compare", "", "compare this result file (baseline) with the one given as the argument")
	serveTracedMode := flag.Bool("serve-traced", false, "internal: serve the traced composition")
	walDir := flag.String("wal-dir", "", "internal: WAL directory of -serve-traced")
	walSync := flag.String("wal-sync", "seal", "internal: WAL sync policy of -serve-traced")
	traceOut := flag.String("trace-out", "", "internal: where -serve-traced writes its trace")
	flag.Parse()

	if *serveTracedMode {
		return serveTraced(*walDir, *walSync, *traceOut)
	}
	if *compare != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "lbbench: -compare A.json needs B.json as its argument")
			return 2
		}
		return runCompare("BENCHMARK.json", *compare, flag.Arg(0), os.Stdout)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "lbbench: -trace is 0 or 1")
		return 2
	}
	if *seconds <= 0 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "lbbench: -seconds and -runs must be positive")
		return 2
	}
	ws, err := selectWorkloads(*workloadSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbbench:", err)
		return 2
	}
	if _, err := os.Stat(filepath.Join("cmd", "lbserve")); err != nil {
		fmt.Fprintln(os.Stderr, "lbbench: run from the repository root (no cmd/lbserve here)")
		return 1
	}

	o := &options{
		seconds: *seconds,
		lbserve: filepath.Join(buildDir, "lbserve"),
		scale:   1,
	}
	if o.self, err = os.Executable(); err != nil {
		fmt.Fprintln(os.Stderr, "lbbench:", err)
		return 1
	}
	if o.work, err = filepath.Abs(filepath.Join(buildDir, fmt.Sprintf("work-%d", os.Getpid()))); err != nil {
		fmt.Fprintln(os.Stderr, "lbbench:", err)
		return 1
	}
	defer os.RemoveAll(o.work)
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "lbbench:", err)
		return 1
	}
	build := exec.Command("go", "build", "-o", o.lbserve, "./cmd/lbserve")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "lbbench: go build ./cmd/lbserve:", err)
		return 1
	}
	mach := describeMachine(o.work)
	if mach.PinnedCPU, err = pinToOneCPU(); err != nil {
		fmt.Fprintln(os.Stderr, "lbbench: pinning to one CPU:", err)
		return 1
	}

	var all []*runResult
	byWorkload := map[string][]*runResult{}
	code := 0
	for r := 0; r < *runs; r++ {
		for _, w := range ws {
			o.seed = *seed + uint64(r)
			start := time.Now()
			var res *runResult
			if *trace == 1 {
				res, err = o.runTraced(w)
			} else {
				res, err = o.runUntraced(w)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "lbbench: %s seed %d: %v\n", w.name, o.seed, err)
				return 1
			}
			res.Detail["run_wall_s"] = time.Since(start).Seconds()
			if !res.Correct {
				code = 1
			}
			all = append(all, res)
			byWorkload[w.name] = append(byWorkload[w.name], res)
			printRun(os.Stdout, res)
		}
	}

	outDir := filepath.Join("bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "lbbench:", err)
		return 1
	}
	suffix := ".json"
	if *trace == 1 {
		suffix = ".trace.json"
	}
	for name, rs := range byWorkload {
		if err := writeSet(filepath.Join(outDir, name+suffix), mach, rs); err != nil {
			fmt.Fprintln(os.Stderr, "lbbench:", err)
			return 1
		}
	}
	if *out != "" {
		if err := writeSet(*out, mach, all); err != nil {
			fmt.Fprintln(os.Stderr, "lbbench:", err)
			return 1
		}
	}
	return code
}

// resultSet is the file format of bench/out and bench/results: the
// machine the runs were made on and the runs themselves.
type resultSet struct {
	Machine machine      `json:"machine"`
	Runs    []*runResult `json:"runs"`
}

func writeSet(path string, m machine, rs []*runResult) error {
	b, err := json.MarshalIndent(resultSet{Machine: m, Runs: rs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printRun prints a run's checks and metrics as a table, then its
// result as one JSON line.
func printRun(w *os.File, r *runResult) {
	mode := "end-to-end"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n%s seed=%d %s, %gs measured: correct=%v attempted=%d failed=%d\n",
		r.Workload, r.Seed, mode, r.Seconds, r.Correct, r.Attempted, r.Failed)
	for _, c := range r.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %-20s %s\n", status, c.Name, c.Detail)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	details := make([]string, 0, len(r.Detail))
	for n, v := range r.Detail {
		details = append(details, fmt.Sprintf("%s=%.6g", n, v))
	}
	sort.Strings(details)
	fmt.Fprintf(w, "  (%s)\n", strings.Join(details, " "))
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted uint64                 `json:"attempted"`
		Failed    uint64                 `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Fprintln(w, string(line))
}
