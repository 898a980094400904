package main

import "fmt"

// metricSpec names one emitted metric. BENCHMARK.json declares the same
// names and units (a test holds the two together) and adds each
// metric's direction and regression bound.
type metricSpec struct {
	name, unit string
	// floor is an absolute regression allowance for metrics whose values
	// are so small that process start-up jitter exceeds the relative
	// bound; -compare allows max(bound·median, floor).
	floor float64
}

// e2eMetrics are measured with tracing off against lbserve itself.
// batch_ops_s and cpu_us_per_op are scaled to the reference kernel's
// nominal host speed (hostref.go).
var e2eMetrics = []metricSpec{
	{name: "setup_s", unit: "s", floor: 0.02},
	{name: "batch_ops_s", unit: "ops/s"},
	{name: "cpu_us_per_op", unit: "us/op"},
	{name: "rss_peak_mb", unit: "MiB"},
	{name: "disk_bytes_per_op", unit: "B/op"},
}

// layerMetrics come from the traced run. Per-op costs and counts are
// taken over the batch phase; lateness, backlog, seal, commit and fsync
// figures over the fixed-rate phase (see bench/README.md).
var layerMetrics = []metricSpec{
	{name: "lbclient.encode_ns_per_op", unit: "ns/op"},
	{name: "lbclient.flush_us_mean", unit: "us"},
	{name: "lbclient.flushes_per_kop", unit: "1/kop"},
	{name: "gen.late_p99_ms", unit: "ms"},
	{name: "gen.outstanding_max", unit: "count"},
	{name: "server.wakeups_per_s", unit: "1/s"},
	{name: "server.reqs_per_wakeup", unit: "count"},
	{name: "server.batch_ops_mean", unit: "count"},
	{name: "server.read_us_mean", unit: "us"},
	{name: "server.read_bytes_per_call", unit: "B"},
	{name: "server.process_ns_per_op", unit: "ns/op"},
	{name: "server.self_ns_per_op", unit: "ns/op"},
	{name: "server.write_us_mean", unit: "us"},
	{name: "server.write_bytes_per_call", unit: "B"},
	{name: "server.overloads", unit: "count"},
	{name: "server.coverage", unit: "fraction"},
	{name: "registry.seal_ms_p50", unit: "ms"},
	{name: "registry.seal_ms_p95", unit: "ms"},
	{name: "registry.batches_per_kop", unit: "1/kop"},
	{name: "registry.coalesced_frac", unit: "fraction"},
	{name: "registry.rebuilds", unit: "count"},
	{name: "wal.append_ns_p50", unit: "ns"},
	{name: "wal.append_ns_p99", unit: "ns"},
	{name: "wal.sealed_us_p50", unit: "us"},
	{name: "wal.published_ms_p50", unit: "ms"},
	{name: "wal.fsyncs_per_kop", unit: "1/kop"},
	{name: "wal.commit_ms_p50", unit: "ms"},
	{name: "wal.commit_ms_p95", unit: "ms"},
	{name: "wal.snapshots", unit: "count"},
	{name: "wal.appended_bytes_per_op", unit: "B/op"},
	{name: "os.server_cpu_frac", unit: "fraction"},
	{name: "os.server_ctxsw_per_kop", unit: "1/kop"},
	{name: "trace.overhead_frac", unit: "fraction"},
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill attaches units to vals, which must hold every spec's metric.
func fill(specs []metricSpec, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := vals[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		out[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	return out, nil
}
