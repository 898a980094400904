package server

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/lbclient"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/wal"
	"repro/internal/wire"
)

// BenchmarkServeBatchDrain measures the server-side admission hot path
// in isolation — decode-shaped rebids of uniformly random agents pushed
// into the batcher and drained through registry.ApplyBatch in windows
// of 4096 with responses encoded — per bid op, no sockets. The
// populations match the serving benchmark's rebid-hot (8k agents) and
// seal-1m (1M agents, where every rebid misses cache) workloads, with
// the registry at the default shard count either unjournaled or
// journaling into a WAL writer (SyncNone, so no fsync sits in the
// loop). Must be 0 allocs/op.
func BenchmarkServeBatchDrain(b *testing.B) {
	for _, pop := range []struct {
		name   string
		agents int
	}{{"8k", 8 << 10}, {"1M", 1 << 20}} {
		for _, journal := range []string{"none", "wal"} {
			b.Run(fmt.Sprintf("agents=%s/journal=%s", pop.name, journal), func(b *testing.B) {
				benchDrain(b, pop.agents, journal == "wal")
			})
		}
	}
}

func benchDrain(b *testing.B, agents int, journaled bool) {
	cfg := registry.Config{Rate: 1000}
	var w *wal.Writer
	if journaled {
		var err error
		if w, err = wal.Create(b.TempDir(), wal.Options{Sync: wal.SyncNone}); err != nil {
			b.Fatal(err)
		}
		cfg.Journal = w
	}
	reg, err := registry.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	met := obs.NewServerMetrics(obs.NewRegistry())
	const window = 4096
	ops := make([]registry.BatchOp, agents)
	for i := range ops {
		ops[i] = registry.BatchOp{Kind: registry.BatchAdd, T: 1 + float64(i%7)}
	}
	if res := reg.ApplyBatch(ops, nil, nil); len(res) != agents || res[agents-1].ID != agents-1 {
		b.Fatalf("admitted %d agents, want %d", len(res), agents)
	}
	// A fixed random id sequence, long enough that the 1M-agent case
	// keeps missing cache; generating it outside the loop keeps the RNG
	// out of the measurement.
	rng := rand.New(rand.NewPCG(1, 2))
	seq := make([]uint32, 1<<20)
	for i := range seq {
		seq[i] = uint32(rng.IntN(agents))
	}
	var bt batcher
	wbuf := make([]byte, 0, 1<<20)
	var q wire.Request
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for done < b.N {
		n := window
		if left := b.N - done; left < n {
			n = left
		}
		wbuf = wbuf[:0]
		for i := 0; i < n; i++ {
			k := done + i
			q = wire.Request{Op: wire.OpRebid, Req: uint64(k + 1), ID: uint64(seq[k&(len(seq)-1)]), T: 1 + float64(k)/(1<<40)}
			bt.push(&q)
		}
		wbuf = bt.drain(reg, met, wbuf)
		done += n
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
	if w != nil {
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServePipelined is the headline: sustained pipelined bid
// ops/s over a real loopback TCP connection — client encode, kernel
// round trip, server decode + batched admission + response encode,
// client decode — with a 4096-request pipeline window. The ops/s
// metric lands in BENCH_serve.json; the acceptance bar is ≥1M.
func BenchmarkServePipelined(b *testing.B) {
	for _, conns := range []int{1, 2} {
		b.Run(fmt.Sprintf("conns=%d", conns), func(b *testing.B) {
			benchPipelined(b, conns)
		})
	}
}

func benchPipelined(b *testing.B, conns int) {
	reg, err := registry.New(registry.Config{Rate: 1000, Shards: 64})
	if err != nil {
		b.Fatal(err)
	}
	const agents = 4096
	ids := make([]int, agents)
	for i := range ids {
		if ids[i], err = reg.Add(1 + float64(i%7)); err != nil {
			b.Fatal(err)
		}
	}
	srv := New(Config{Registry: reg})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Kill()

	const window = 4096
	type result struct {
		n   int
		err error
	}
	results := make(chan result, conns)
	per := b.N / conns
	b.ResetTimer()
	for w := 0; w < conns; w++ {
		n := per
		if w == 0 {
			n = b.N - per*(conns-1)
		}
		go func(n int) {
			c, err := lbclient.Dial(addr, 1<<20)
			if err != nil {
				results <- result{0, err}
				return
			}
			defer c.Close()
			sent, recvd := 0, 0
			for recvd < n {
				for sent < n && sent-recvd < window {
					c.QueueRebid(ids[sent%agents], 1+float64(sent%13))
					sent++
				}
				if err := c.Flush(); err != nil {
					results <- result{recvd, err}
					return
				}
				for recvd < sent {
					p, err := c.Recv()
					if err != nil {
						results <- result{recvd, err}
						return
					}
					if p.Status != wire.StatusOK {
						results <- result{recvd, &wire.StatusError{Op: p.Op, Status: p.Status}}
						return
					}
					recvd++
				}
			}
			results <- result{recvd, nil}
		}(n)
	}
	total := 0
	for w := 0; w < conns; w++ {
		r := <-results
		if r.err != nil {
			b.Fatal(r.err)
		}
		total += r.n
	}
	b.StopTimer()
	if total != b.N {
		b.Fatalf("completed %d ops, want %d", total, b.N)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}
