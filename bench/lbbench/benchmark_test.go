package main

import (
	"path/filepath"
	"regexp"
	"testing"
)

// TestBenchmarkJSONMatchesEmittedMetrics holds BENCHMARK.json to what
// lbbench emits: the same workloads, every declared metric emitted with
// its unit, well-formed names, and the definition's size limits.
func TestBenchmarkJSONMatchesEmittedMetrics(t *testing.T) {
	var def benchmarkDef
	if err := loadJSON(filepath.Join("..", "..", "BENCHMARK.json"), &def); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if n := len(def.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined (limit 2..8)", n, len(workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, lbbench %q (or their reasons differ)", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: reason is %d characters", w.Name, len(w.Why))
		}
	}

	if len(def.EndToEnd) < 1 || len(def.EndToEnd) > 16 || len(def.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("%d end-to-end metrics declared, %d emitted (limit 1..16)", len(def.EndToEnd), len(e2eMetrics))
	}
	maxBound, setupBound := 0.0, 0.0
	for i, m := range def.EndToEnd {
		if m.Name != e2eMetrics[i].name || m.Unit != e2eMetrics[i].unit {
			t.Errorf("end-to-end %d: declared %s (%s), emitted %s (%s)", i, m.Name, m.Unit, e2eMetrics[i].name, e2eMetrics[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be seconds, lower better")
			}
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxBound)
	}

	if len(def.PerLayer) < 1 || len(def.PerLayer) > 128 || len(def.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics declared, %d emitted (limit 1..128)", len(def.PerLayer), len(layerMetrics))
	}
	for i, m := range def.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per-layer %d: declared %s (%s), emitted %s (%s)", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}

	seen := map[string]bool{}
	for _, specs := range [][]metricSpec{e2eMetrics, layerMetrics} {
		for _, m := range specs {
			if !name.MatchString(m.name) || !unit.MatchString(m.unit) || seen[m.name] {
				t.Errorf("metric %q (unit %q) is malformed or repeated", m.name, m.unit)
			}
			seen[m.name] = true
		}
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or repeated", w.name)
		}
		seen[w.name] = true
	}
	if def.RunSeconds < 1 || def.RunSeconds > 60 || len(def.Paths) != 1 || def.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", def.RunSeconds, def.Paths)
	}
}
