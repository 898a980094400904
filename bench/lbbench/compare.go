package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// benchmarkDef is the part of BENCHMARK.json that -compare and the
// tests read.
type benchmarkDef struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method).
func quartiles(values []float64) [3]float64 {
	d := slices.Clone(values)
	slices.Sort(d)
	var q [3]float64
	switch len(d) {
	case 0:
		return q
	case 1:
		return [3]float64{d[0], d[0], d[0]}
	}
	const n = 4
	m := len(d) + 1
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), len(d)-1)
		delta := float64(i*m - j*n)
		q[i-1] = (d[j-1]*(n-delta) + d[j]*delta) / n
	}
	return q
}

// verdict judges baseline a against candidate b for one metric: "worse"
// when b's median is worse than a's by more than the allowance, else
// "unresolved" when either side's quartile spread exceeds it (unless
// every run of b beats every run of a), else "better" or "same".
func verdict(a, b []float64, lowerBetter bool, allowance float64) string {
	qa, qb := quartiles(a), quartiles(b)
	worse := qb[1] - qa[1]
	if !lowerBetter {
		worse = -worse
	}
	if worse > allowance {
		return "worse"
	}
	if qa[2]-qa[0] > allowance || qb[2]-qb[0] > allowance {
		bestA, worstB := slices.Min(a), slices.Max(b)
		if !lowerBetter {
			bestA, worstB = slices.Max(a), slices.Min(b)
			if worstB > bestA {
				return "better"
			}
		} else if worstB < bestA {
			return "better"
		}
		return "unresolved"
	}
	if -worse > allowance {
		return "better"
	}
	return "same"
}

// runCompare prints one row per workload and end-to-end metric for two
// result sets — each side's median and quartiles, each side's spread
// (Q3 − Q1 over the median), the change in medians and the allowed
// worsening — and returns 1 if any metric regressed.
func runCompare(benchPath, aPath, bPath string, w io.Writer) int {
	var def benchmarkDef
	var a, b resultSet
	for _, f := range []struct {
		path string
		v    any
	}{{benchPath, &def}, {aPath, &a}, {bPath, &b}} {
		if err := loadJSON(f.path, f.v); err != nil {
			fmt.Fprintln(os.Stderr, "lbbench:", err)
			return 2
		}
	}
	floors := map[string]float64{}
	for _, m := range e2eMetrics {
		floors[m.name] = m.floor
	}
	values := func(set resultSet, workload, metric string) []float64 {
		var out []float64
		for _, r := range set.Runs {
			if r.Workload == workload && !r.Traced && r.Correct {
				if v, ok := r.Metrics[metric]; ok {
					out = append(out, v.Value)
				}
			}
		}
		return out
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tA median [Q1, Q3]\tB median [Q1, Q3]\tA, B spread\tchange\tallowed\tverdict\n")
	code := 0
	for _, wl := range def.Workloads {
		for _, m := range def.EndToEnd {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t(%d runs)\t(%d runs)\t\t\t\tmissing\n", wl.Name, m.Name, m.Unit, len(va), len(vb))
				code = 1
				continue
			}
			qa, qb := quartiles(va), quartiles(vb)
			allowance := max(m.Bound*math.Abs(qa[1]), floors[m.Name])
			v := verdict(va, vb, m.Better == "lower", allowance)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%.1f%%, %.1f%%\t%+.1f%%\t%.4g\t%s\n",
				wl.Name, m.Name, m.Unit, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2],
				100*(qa[2]-qa[0])/qa[1], 100*(qb[2]-qb[0])/qb[1],
				100*(qb[1]-qa[1])/qa[1], allowance, v)
		}
	}
	tw.Flush()
	return code
}
