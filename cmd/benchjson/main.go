// Command benchjson converts `go test -bench` text output on stdin
// into a stable JSON document on stdout, so benchmark baselines can be
// committed and diffed (make bench > BENCH_mech.json). The output is
// deterministic for a given input: no timestamps, benchmarks in input
// order. The lines that `go test -count N` repeats for one benchmark
// of one package fold into one entry holding their medians and the
// run count.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	// Name is the benchmark name with the "Benchmark" prefix and the
	// trailing "-<GOMAXPROCS>" suffix stripped.
	Name string `json:"name"`
	// Iterations is the measured b.N.
	Iterations int64 `json:"iterations"`
	// NsPerOp is nanoseconds per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are present when the benchmark ran
	// with -benchmem (-1 when absent).
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	// Metrics holds custom b.ReportMetric values by unit (e.g. the
	// swarm's tasks_moved_per_s and rounds_to_eps columns).
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Runs is the number of lines folded into this entry when the
	// benchmark ran more than once (-count N; absent for one run).
	// Every field above is then the median over those runs: the middle
	// value for an odd count, the mean of the two middle values for an
	// even one (rounded toward zero for the integer fields), and for a
	// custom metric, over the runs that reported it.
	Runs int `json:"runs,omitempty"`
}

// Document is the emitted JSON structure.
type Document struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	Pkg        []string `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// parseLine parses one "BenchmarkFoo-8  100  123 ns/op  45 B/op  6 allocs/op"
// line; ok is false for non-benchmark lines.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	if i := strings.LastIndex(name, "-"); i >= 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Iterations: iters, BytesPerOp: -1, AllocsPerOp: -1}
	// Remaining fields come in "<value> <unit>" pairs.
	for k := 2; k+1 < len(fields); k += 2 {
		val, unit := fields[k], fields[k+1]
		switch unit {
		case "ns/op":
			r.NsPerOp, err = strconv.ParseFloat(val, 64)
		case "B/op":
			r.BytesPerOp, err = strconv.ParseInt(val, 10, 64)
		case "allocs/op":
			r.AllocsPerOp, err = strconv.ParseInt(val, 10, 64)
		default:
			// Custom b.ReportMetric pairs: record them under their
			// unit. Non-numeric values mark a non-benchmark line.
			var f float64
			if f, err = strconv.ParseFloat(val, 64); err == nil {
				if r.Metrics == nil {
					r.Metrics = make(map[string]float64)
				}
				r.Metrics[unit] = f
			}
		}
		if err != nil {
			return Result{}, false
		}
	}
	return r, true
}

// parse reads `go test -bench` output and folds the runs of each
// benchmark, keyed by package and name, into one entry at the position
// of its first run.
func parse(in *bufio.Scanner) (Document, error) {
	var doc Document
	var runs [][]Result
	index := make(map[[2]string]int) // (pkg, name) -> its runs
	pkg := ""
	for in.Scan() {
		line := in.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
			doc.Pkg = append(doc.Pkg, pkg)
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		default:
			if r, ok := parseLine(line); ok {
				key := [2]string{pkg, r.Name}
				i, seen := index[key]
				if !seen {
					i = len(runs)
					index[key] = i
					runs = append(runs, nil)
				}
				runs[i] = append(runs[i], r)
			}
		}
	}
	if err := in.Err(); err != nil {
		return doc, err
	}
	if len(runs) == 0 {
		return doc, fmt.Errorf("benchjson: no benchmark lines on stdin")
	}
	for _, rs := range runs {
		doc.Benchmarks = append(doc.Benchmarks, fold(rs))
	}
	return doc, nil
}

// fold returns the one entry for a benchmark's runs: the run itself
// when there is one, and otherwise the medians described at
// Result.Runs.
func fold(rs []Result) Result {
	if len(rs) == 1 {
		return rs[0]
	}
	r := Result{
		Name:        rs[0].Name,
		Iterations:  median(rs, func(r Result) int64 { return r.Iterations }),
		NsPerOp:     median(rs, func(r Result) float64 { return r.NsPerOp }),
		BytesPerOp:  median(rs, func(r Result) int64 { return r.BytesPerOp }),
		AllocsPerOp: median(rs, func(r Result) int64 { return r.AllocsPerOp }),
		Runs:        len(rs),
	}
	metrics := make(map[string][]float64)
	for _, x := range rs {
		for unit, v := range x.Metrics {
			metrics[unit] = append(metrics[unit], v)
		}
	}
	for unit, vals := range metrics {
		if r.Metrics == nil {
			r.Metrics = make(map[string]float64, len(metrics))
		}
		r.Metrics[unit] = middle(vals)
	}
	return r
}

// median returns the median of field over rs.
func median[T int64 | float64](rs []Result, field func(Result) T) T {
	vals := make([]T, len(rs))
	for i, r := range rs {
		vals[i] = field(r)
	}
	return middle(vals)
}

// middle returns the median of vals, sorting them in place: the middle
// value, or the mean of the two middle values for an even count
// (rounded toward zero for integers).
func middle[T int64 | float64](vals []T) T {
	slices.Sort(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

func run(in *bufio.Scanner, out io.Writer) error {
	doc, err := parse(in)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// check validates a committed BENCH_*.json: it must parse as a
// Document, carry at least one benchmark, and record the machine spec
// (goos and goarch; a cpu line when the platform reports one is
// carried through but not required). CI runs this against
// BENCH_swarm.json so a hand-edited or truncated baseline fails fast.
func check(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("benchjson: %s: %w", path, err)
	}
	if len(doc.Benchmarks) == 0 {
		return fmt.Errorf("benchjson: %s: no benchmarks recorded", path)
	}
	if doc.Goos == "" || doc.Goarch == "" {
		return fmt.Errorf("benchjson: %s: missing machine spec (goos=%q goarch=%q)", path, doc.Goos, doc.Goarch)
	}
	for _, b := range doc.Benchmarks {
		if b.Name == "" || b.Iterations <= 0 {
			return fmt.Errorf("benchjson: %s: malformed benchmark entry %+v", path, b)
		}
	}
	fmt.Printf("benchjson: %s ok (%d benchmarks, %s/%s", path, len(doc.Benchmarks), doc.Goos, doc.Goarch)
	if doc.CPU != "" {
		fmt.Printf(", %s", doc.CPU)
	}
	fmt.Println(")")
	return nil
}

func main() {
	checkPath := flag.String("check", "", "validate an existing BENCH_*.json instead of converting stdin")
	flag.Parse()
	if *checkPath != "" {
		if err := check(*checkPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	if err := run(sc, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
