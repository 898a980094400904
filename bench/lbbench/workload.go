package main

import (
	"fmt"
	"strings"
	"time"
)

// workload is one traffic mix against one server configuration. The
// server sees only the requests the generator derives from the seed.
type workload struct {
	name string
	why  string
	// agents is the population admitted during set-up, split evenly
	// across connections.
	agents int
	// rate is the total open-loop arrival rate of the fixed-rate phase,
	// in ops/s, split evenly across connections.
	rate float64
	// load and payment are the shares of sealed reads; the rest of the
	// ops are rebids of the connection's own agents.
	load, payment float64
	// sealEvery is the open loop's seal cadence, on connection 0.
	sealEvery time.Duration
	// sync is lbserve's -wal-sync policy.
	sync string
	// ackLimitMs is the latency limit on the fixed-rate ack p99.
	ackLimitMs float64
}

// workloads are the benchmark's traffic mixes. Each stresses a
// different layer of the admission path; see bench/README.md for what
// each one predicts.
var workloads = []workload{
	{
		name: "rebid-hot", agents: 8192, rate: 250_000, sealEvery: 100 * time.Millisecond, sync: "seal", ackLimitMs: 5,
		why: "8k agents, all rebids: per-op admission cost (encode, socket, decode, batcher, ApplyBatch, WAL append) dominates",
	},
	{
		name: "seal-1m", agents: 1 << 20, rate: 50_000, sealEvery: 400 * time.Millisecond, sync: "seal", ackLimitMs: 50,
		why: "1M agents, all rebids: every rebid misses cache in id-indexed arrays, and seals copy those arrays and write 1M-entry snapshots",
	},
	{
		name: "read-mix", agents: 8192, rate: 250_000, load: 0.45, payment: 0.45, sealEvery: 100 * time.Millisecond, sync: "seal", ackLimitMs: 5,
		why: "90% sealed load/payment reads: bypasses ApplyBatch and the WAL, and every read drains the batch to about one op",
	},
}

// selectWorkloads resolves a -workload value: one name, a comma list,
// or "all".
func selectWorkloads(spec string) ([]workload, error) {
	if spec == "all" {
		return workloads, nil
	}
	var out []workload
	for _, name := range strings.Split(spec, ",") {
		found := false
		for _, w := range workloads {
			if w.name == name {
				out = append(out, w)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	return out, nil
}
