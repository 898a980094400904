package wal

import (
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/registry"
)

// BenchmarkWALAppend measures the journal fast path — encode, run CRC
// and group-commit buffering, with batched writes reaching the file —
// per update. MB/s and log-B/op count the record bytes the writer
// actually wrote: per update, a kind byte, the id's uvarint (ids
// 0-1023 here, one or two bytes) and the 8-byte bid, plus each run
// record's 9-byte header. SyncNone isolates the in-memory path;
// SyncBatch adds one fsync per 256 KiB batch, the default serving
// configuration.
//
// The plain cases append through Updated, one call per update. The
// group=N cases journal the same updates through Mutations, N per
// call: 128 is a served drain's shard group (4096 ops over 32 shards),
// and 1 is the group of a drain holding one rebid, as between the
// reads of read-mix. Every case writes the same log bytes.
func BenchmarkWALAppend(b *testing.B) {
	ops := make([]registry.BatchOp, 1024)
	for i := range ops {
		ops[i] = registry.BatchOp{Kind: registry.BatchRebid, ID: i, T: 1.5}
	}
	for _, pol := range []SyncPolicy{SyncNone, SyncBatch} {
		b.Run(pol.String(), func(b *testing.B) {
			benchmarkAppend(b, pol, func(w *Writer, i, _ int) int {
				w.Updated(i&1023, 1.5)
				return 1
			})
		})
		for _, group := range []int{1, 128} {
			b.Run(fmt.Sprintf("%s/group=%d", pol, group), func(b *testing.B) {
				benchmarkAppend(b, pol, func(w *Writer, i, n int) int {
					n = min(n, group)
					w.Mutations(ops[i&1023:][:n])
					return n
				})
			})
		}
	}
}

// benchmarkAppend times b.N updates of ids i&1023, i counting from 0,
// into a fresh log under pol. appendFrom journals at most n of the
// updates from the i-th on and returns how many it journaled; group
// sizes that divide 1024 never run past id 1023 in one call.
func benchmarkAppend(b *testing.B, pol SyncPolicy, appendFrom func(w *Writer, i, n int) int) {
	dir := b.TempDir()
	w, err := Create(dir, Options{Sync: pol})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		i += appendFrom(w, i, b.N-i)
	}
	b.StopTimer()
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	logBytes := logSize(b, dir)
	b.ReportMetric(float64(logBytes)/1e6/b.Elapsed().Seconds(), "MB/s")
	b.ReportMetric(float64(logBytes)/float64(b.N), "log-B/op")
}

// logSize returns the record bytes in dir's segments, headers
// excluded.
func logSize(b *testing.B, dir string) int64 {
	segs, _, err := scanDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	var n int64
	for _, s := range segs {
		st, err := os.Stat(s.path)
		if err != nil {
			b.Fatal(err)
		}
		n += st.Size() - segHeaderLen
	}
	return n
}

// benchmarkRecover builds a log of roughly `records` journaled
// mutations (100k live agents, periodic seals, snapshots disabled so
// the whole log replays) and measures a full crash recovery; the
// bytes/sec figure is replay throughput over the log size.
func benchmarkRecover(b *testing.B, records int) {
	dir := b.TempDir()
	w, err := Create(dir, Options{Sync: SyncNone})
	if err != nil {
		b.Fatal(err)
	}
	r, err := registry.New(registry.Config{Rate: 100, Shards: 64, Journal: w})
	if err != nil {
		b.Fatal(err)
	}
	agents := 100_000
	if agents > records/2 {
		agents = records / 2
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < agents; i++ {
		if _, err := r.Add(0.1 + 10*rng.Float64()); err != nil {
			b.Fatal(err)
		}
	}
	for i := agents; i < records; i++ {
		if err := r.Update(rng.IntN(agents), 0.1+10*rng.Float64()); err != nil {
			b.Fatal(err)
		}
		if i%200_000 == 0 {
			r.Seal()
		}
	}
	final := r.Seal()
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	segs, _, err := scanDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	var logBytes int64
	for _, s := range segs {
		st, err := os.Stat(s.path)
		if err != nil {
			b.Fatal(err)
		}
		logBytes += st.Size()
	}
	b.SetBytes(logBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r2, _, err := Recover(dir, registry.Config{Rate: 1, Shards: 64})
		if err != nil {
			b.Fatal(err)
		}
		if r2.Snapshot().Epoch() != final.Epoch() {
			b.Fatalf("recovered epoch %d, want %d", r2.Snapshot().Epoch(), final.Epoch())
		}
	}
}

func BenchmarkWALRecover1M(b *testing.B)  { benchmarkRecover(b, 1_000_000) }
func BenchmarkWALRecover10M(b *testing.B) { benchmarkRecover(b, 10_000_000) }

// BenchmarkWALSnapshot measures streaming and fsyncing one snapshot
// sidecar from its published epoch: in full for a 100k-agent
// population, and as a delta for a 1M-agent one of which every eighth
// agent rebid since the delta's base. MB/s and snap-B/agent count the
// bytes of the file it wrote.
func BenchmarkWALSnapshot(b *testing.B) {
	b.Run("n=100000/full", func(b *testing.B) { benchmarkSnapshot(b, 100_000, 0) })
	b.Run("n=1048576/delta-1of8", func(b *testing.B) { benchmarkSnapshot(b, 1<<20, 8) })
}

// benchmarkSnapshot streams the sidecar of a population of n agents:
// in full when every is 0, and otherwise as a delta on the previous
// capture after every every-th agent rebid.
func benchmarkSnapshot(b *testing.B, n, every int) {
	dir := b.TempDir()
	w := createManual(b, dir, Options{Sync: SyncNone, SnapshotEvery: 1})
	defer w.Close()
	r, err := registry.New(registry.Config{Rate: 100})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < n; i++ {
		if _, err := r.Add(0.1 + 10*rng.Float64()); err != nil {
			b.Fatal(err)
		}
	}
	r.AttachJournal(w)
	base := uint64(0)
	if every > 0 {
		base = r.Seal().Epoch()
		<-w.snapCh // streaming the delta needs only the base's epoch
		for id := 0; id < n; id += every {
			if err := r.Update(id, 0.1+10*rng.Float64()); err != nil {
				b.Fatal(err)
			}
		}
	}
	r.Seal()
	p := <-w.snapCh
	write := func(f io.Writer) error { return streamSidecar(f, p, base) }
	path := filepath.Join(dir, "bench.snap")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writeDurable(path, write); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(st.Size())
	b.ReportMetric(float64(st.Size())/float64(p.live), "snap-B/agent")
}

// BenchmarkWALSeal measures sealing 1M agents with the WAL attached
// (SyncNone) and a snapshot captured every 1 or 8 seals, written by
// the background compactor as when serving. Besides ns/op it reports
// the time each seal held every shard lock — the window in which all
// writers wait — as hold-p50-ms and hold-max-ms, read exactly per seal
// from the running sum of lb_registry_seal_hold_seconds.
func BenchmarkWALSeal(b *testing.B) {
	const n = 1 << 20
	for _, every := range []int{1, 8} {
		b.Run(fmt.Sprintf("n=%d/snapshot-every=%d", n, every), func(b *testing.B) {
			w, err := Create(b.TempDir(), Options{Sync: SyncNone, SnapshotEvery: every})
			if err != nil {
				b.Fatal(err)
			}
			reg := obs.NewRegistry()
			r, err := registry.New(registry.Config{Rate: 20, Shards: 32, Metrics: obs.NewRegistryMetrics(reg)})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if _, err := r.Add(0.5 + float64(i%31)); err != nil {
					b.Fatal(err)
				}
			}
			r.AttachJournal(w)
			holds := make([]float64, 0, b.N)
			last := holdSum(reg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Seal()
				b.StopTimer()
				sum := holdSum(reg)
				holds = append(holds, sum-last)
				last = sum
				b.StartTimer()
			}
			b.StopTimer()
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
			slices.Sort(holds)
			b.ReportMetric(1e3*holds[len(holds)/2], "hold-p50-ms")
			b.ReportMetric(1e3*holds[len(holds)-1], "hold-max-ms")
		})
	}
}

// holdSum returns the running sum of lb_registry_seal_hold_seconds.
func holdSum(reg *obs.Registry) float64 {
	for _, m := range reg.Snapshot() {
		if m.Name == "lb_registry_seal_hold_seconds" {
			return m.Sum
		}
	}
	return 0
}
