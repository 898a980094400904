package main

import (
	"testing"
)

// TestTracedSmoke runs every workload for half a second against the
// traced composition, in this process, with populations cut 64-fold:
// every output check must pass, every per-layer metric but the
// overhead (which needs lbserve) must come out, and the spans must
// account for the connections' time.
func TestTracedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real connections for a few seconds")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := &options{seconds: 0.5, seed: 3, work: t.TempDir(), scale: 64, inproc: true}
			res, vals, rate, err := o.measureTraced(w)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range res.Checks {
				if !c.OK {
					t.Errorf("check %s: %s", c.Name, c.Detail)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range layerMetrics {
				if _, ok := vals[m.name]; !ok && m.name != "trace.overhead_frac" {
					t.Errorf("per-layer metric %s missing", m.name)
				}
			}
			if rate <= 0 || vals["server.process_ns_per_op"] <= 0 || vals["lbclient.encode_ns_per_op"] <= 0 {
				t.Errorf("batch rate %g ops/s, process %g ns/op, encode %g ns/op", rate, vals["server.process_ns_per_op"], vals["lbclient.encode_ns_per_op"])
			}
			if cov := vals["server.coverage"]; cov < 0.5 || cov > 1.0001 {
				t.Errorf("coverage %g", cov)
			}
		})
	}
}
