package wal

// Tests for the batched journal path: registry.ApplyBatch hands each
// shard group's applied ops to Writer.Mutations in one call, and the
// log that produces must be byte-identical to the per-op path's, must
// recover to the live sealed epochs, must count exactly in the
// lb_wal_* metrics, and must stay allocation-free.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/registry"
)

// perOpOnly exposes only a Writer's six registry.Journal methods, so a
// registry journaling through it takes ApplyBatch's per-op path.
type perOpOnly struct{ w *Writer }

func (j perOpOnly) Added(id int, t float64)           { j.w.Added(id, t) }
func (j perOpOnly) Updated(id int, t float64)         { j.w.Updated(id, t) }
func (j perOpOnly) Removed(id int)                    { j.w.Removed(id) }
func (j perOpOnly) RateChanged(rate float64)          { j.w.RateChanged(rate) }
func (j perOpOnly) Sealed(ev registry.SealEvent)      { j.w.Sealed(ev) }
func (j perOpOnly) Published(snap *registry.Snapshot) { j.w.Published(snap) }

// createManual opens a fresh log whose snapshots are written only by
// settle, on the caller's goroutine, instead of by the background
// compactor — which drops a capture while it is busy, so which
// snapshots (and hence which compacted segments) exist would otherwise
// depend on timing.
func createManual(t *testing.T, dir string, opts Options) *Writer {
	t.Helper()
	w, err := newWriter(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.createSegment(1); err != nil {
		t.Fatal(err)
	}
	return w
}

// settle writes the snapshot the last seal captured, if any.
func settle(w *Writer) {
	select {
	case p := <-w.snapCh:
		w.writeSnapshot(p)
	default:
	}
}

// genOps draws one batch over the ids in live: adds, rebids and
// leaves, plus invalid ops (bad bids, unknown ids, a bad kind) that
// must never reach the journal. Leaves are taken out of live as they
// are drawn, so no later op in the batch targets a departed id.
func genOps(rng *rand.Rand, live *[]int, size int) []registry.BatchOp {
	ops := make([]registry.BatchOp, 0, size)
	for len(ops) < size {
		switch k := rng.IntN(20); {
		case k < 7 || len(*live) == 0:
			ops = append(ops, registry.BatchOp{Kind: registry.BatchAdd, T: 0.1 + 10*rng.Float64()})
		case k < 14:
			id := (*live)[rng.IntN(len(*live))]
			ops = append(ops, registry.BatchOp{Kind: registry.BatchRebid, ID: id, T: 0.1 + 10*rng.Float64()})
		case k < 17:
			i := rng.IntN(len(*live))
			ops = append(ops, registry.BatchOp{Kind: registry.BatchLeave, ID: (*live)[i]})
			(*live)[i] = (*live)[len(*live)-1]
			*live = (*live)[:len(*live)-1]
		case k == 17:
			ops = append(ops, registry.BatchOp{Kind: registry.BatchAdd, T: math.Inf(1)})
		case k == 18:
			ops = append(ops, registry.BatchOp{Kind: registry.BatchRebid, ID: 1 << 40, T: 1})
		default:
			ops = append(ops, registry.BatchOp{Kind: registry.BatchKind(9), ID: 0, T: 1})
		}
	}
	return ops
}

// admitted appends the ids of a batch's successful adds to live.
func admitted(live []int, ops []registry.BatchOp, res []registry.BatchResult) []int {
	for i, rr := range res {
		if ops[i].Kind == registry.BatchAdd && rr.Code == registry.BatchOK {
			live = append(live, rr.ID)
		}
	}
	return live
}

// driveBatches runs one seeded stream of ApplyBatch calls, rate
// changes, and plain and corrected seals through a registry journaling
// into j (w, or a wrapper around w), writing each captured snapshot
// before going on. It closes w and returns every sealed epoch, the
// initial one first.
func driveBatches(t *testing.T, w *Writer, j registry.Journal, shards int, seed uint64) []sealRec {
	t.Helper()
	r, err := registry.New(registry.Config{Rate: 50, Shards: shards, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	settle(w)
	seals := []sealRec{recordSnap(r.Snapshot())}
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	var live []int
	var res []registry.BatchResult
	sc := &registry.BatchScratch{}
	for round := 0; round < 24; round++ {
		ops := genOps(rng, &live, 1+rng.IntN(160))
		res = r.ApplyBatch(ops, res[:0], sc)
		live = admitted(live, ops, res)
		switch p := rng.IntN(10); {
		case p < 3:
			seals = append(seals, recordSnap(r.Seal()))
		case p < 5:
			snap, err := r.SealCorrected(randCorrection(rng, live))
			if err != nil {
				t.Fatal(err)
			}
			seals = append(seals, recordSnap(snap))
		case p < 6:
			if err := r.SetRate(1 + 100*rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		settle(w)
	}
	seals = append(seals, recordSnap(r.Seal()))
	settle(w)
	if seg, _ := w.Tell(); seg < 3 {
		t.Fatalf("log never rotated past segment %d; the stream is too small to test rotation", seg)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return seals
}

// readLogDir returns every file in dir by name.
func readLogDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}

// TestBatchedLogByteIdentical is the batched journal's differential:
// one seeded stream of ApplyBatch calls (adds, rebids, leaves, invalid
// ops) with plain and corrected seals, driven once into a Writer
// directly — one Mutations call per shard group — and once through a
// wrapper that hides Mutations, so every op takes the per-op methods.
// Small segments force rotation and snapshots compact the log; every
// segment and snapshot file must be byte-identical between the two
// runs, both runs must seal identical epochs, and recovery from each
// log must reproduce the final live epoch bitwise.
func TestBatchedLogByteIdentical(t *testing.T) {
	opts := Options{Sync: SyncNone, SegmentBytes: 2 << 10, BatchBytes: 300, SnapshotEvery: 3}
	for _, shards := range []int{1, 4, 32} {
		for seed := uint64(0); seed < 8; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				batchedDir, perOpDir := t.TempDir(), t.TempDir()
				wb := createManual(t, batchedDir, opts)
				batched := driveBatches(t, wb, wb, shards, seed)
				wp := createManual(t, perOpDir, opts)
				perOp := driveBatches(t, wp, perOpOnly{wp}, shards, seed)

				if len(batched) != len(perOp) {
					t.Fatalf("%d sealed epochs batched, %d per-op", len(batched), len(perOp))
				}
				for i := range batched {
					if batched[i].epoch != perOp[i].epoch || batched[i].sum != perOp[i].sum {
						t.Fatalf("seal %d: batched epoch %d S %x, per-op epoch %d S %x",
							i, batched[i].epoch, batched[i].sum, perOp[i].epoch, perOp[i].sum)
					}
				}

				got, want := readLogDir(t, batchedDir), readLogDir(t, perOpDir)
				if len(got) != len(want) {
					t.Fatalf("batched log has %d files, per-op log %d", len(got), len(want))
				}
				snaps := 0
				for name, b := range want {
					if !bytes.Equal(got[name], b) {
						t.Fatalf("%s: batched (%d bytes) differs from per-op (%d bytes)", name, len(got[name]), len(b))
					}
					if filepath.Ext(name) == ".snap" {
						snaps++
					}
				}
				if snaps == 0 {
					t.Fatalf("no snapshot written; the stream is too small to test compaction")
				}

				final := batched[len(batched)-1]
				for _, dir := range []string{batchedDir, perOpDir} {
					r, info, err := Recover(dir, registry.Config{Rate: 1, Shards: shards})
					if err != nil {
						t.Fatal(err)
					}
					if info.SnapshotEpoch == 0 {
						t.Fatalf("recovery replayed the whole log; want snapshot plus tail")
					}
					compareSnap(t, r.Snapshot(), final)
				}
			})
		}
	}
}

// TestConcurrentBatchJournalRecovery is TestConcurrentJournalRecovery
// through ApplyBatch: workers submit batches of their own agents' ops
// while a sealer races them with plain and corrected seals, and the
// log must recover to the last live epoch bitwise at shard counts
// {1,4,32}, matching a serial replay of the merged worker logs. Run
// under -race this is the batched path's race test.
func TestConcurrentBatchJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{Sync: SyncNone, SnapshotEvery: 4, SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	r, err := registry.New(registry.Config{Rate: 25, Shards: 8, Journal: w})
	if err != nil {
		t.Fatal(err)
	}

	const workers, batchesPerWorker = 8, 120
	logs := make([][]workerOp, workers)
	done := make(chan struct{})
	finished := make(chan int, workers)
	for wk := 0; wk < workers; wk++ {
		go func(wk int) {
			rng := rand.New(rand.NewPCG(uint64(wk), 78))
			var mine []int
			var res []registry.BatchResult
			sc := &registry.BatchScratch{}
			var log []workerOp
			for b := 0; b < batchesPerWorker; b++ {
				ops := genOps(rng, &mine, 1+rng.IntN(48))
				res = r.ApplyBatch(ops, res[:0], sc)
				for i, op := range ops {
					rr := res[i]
					// genOps's invalid ops: an infinite bid, an
					// unassigned id, an unknown kind.
					valid := !math.IsInf(op.T, 0) && op.ID != 1<<40 && op.Kind != registry.BatchKind(9)
					if (rr.Code == registry.BatchOK) != valid {
						t.Errorf("worker %d batch %d op %d (%+v): code %d", wk, b, i, op, rr.Code)
						continue
					}
					if !valid {
						continue
					}
					switch op.Kind {
					case registry.BatchAdd:
						log = append(log, workerOp{'a', rr.ID, op.T})
					case registry.BatchRebid:
						log = append(log, workerOp{'u', op.ID, op.T})
					case registry.BatchLeave:
						log = append(log, workerOp{'r', op.ID, 0})
					}
				}
				mine = admitted(mine, ops, res)
			}
			logs[wk] = log
			finished <- wk
		}(wk)
	}
	sealerDone := make(chan struct{})
	go func() {
		defer close(sealerDone)
		rng := rand.New(rand.NewPCG(99, 99))
		for {
			select {
			case <-done:
				return
			default:
			}
			if rng.IntN(3) == 0 {
				c := &registry.Correction{Drop: map[int]bool{rng.IntN(64): true}, Weights: map[int]float64{rng.IntN(64): 0.5}}
				if _, err := r.SealCorrected(c); err != nil {
					t.Error(err)
					return
				}
			} else {
				r.Seal()
			}
		}
	}()
	for i := 0; i < workers; i++ {
		<-finished
	}
	close(done)
	<-sealerDone
	final := recordSnap(r.Seal())
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	checkMergedRecovery(t, dir, 25, logs, final)
}

// TestWALMetricsExactUnderBatching checks the lb_wal_* append counters
// after a seeded ApplyBatch run: lb_wal_appends_total must equal the
// journaled record count and lb_wal_appended_bytes_total its framed
// bytes — 8+17 per add or rebid, 8+9 per leave, 8+17 per plain seal —
// which must also be exactly what reached the segment file; the
// sampled latency histogram must hold one observation per 1024
// mutation records. At one shard every batch is one Mutations call,
// and batches of up to 3000 ops cross several sampling boundaries in
// one call.
func TestWALMetricsExactUnderBatching(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			met := obs.NewWALMetrics(obs.NewRegistry())
			w, err := Create(dir, Options{Sync: SyncNone, Metrics: met})
			if err != nil {
				t.Fatal(err)
			}
			r, err := registry.New(registry.Config{Rate: 10, Shards: shards, Journal: w})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(3, uint64(shards)))
			var live []int
			var res []registry.BatchResult
			sc := &registry.BatchScratch{}
			mutations, leaves, seals := 0, 0, 1 // registry.New seals epoch 1
			for round := 0; round < 20; round++ {
				ops := genOps(rng, &live, 1+rng.IntN(3000))
				res = r.ApplyBatch(ops, res[:0], sc)
				live = admitted(live, ops, res)
				for i, rr := range res {
					if rr.Code == registry.BatchOK {
						mutations++
						if ops[i].Kind == registry.BatchLeave {
							leaves++
						}
					}
				}
				if round%5 == 4 {
					r.Seal()
					seals++
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			records := mutations + seals
			wantBytes := (mutations-leaves)*(8+17) + leaves*(8+9) + seals*(8+17)
			if got := met.Appends.Value(); got != int64(records) {
				t.Fatalf("lb_wal_appends_total = %d, want %d records", got, records)
			}
			if got := met.AppendedBytes.Value(); got != int64(wantBytes) {
				t.Fatalf("lb_wal_appended_bytes_total = %d, want %d", got, wantBytes)
			}
			st, err := os.Stat(filepath.Join(dir, segName(1)))
			if err != nil {
				t.Fatal(err)
			}
			if onDisk := st.Size() - segHeaderLen; onDisk != int64(wantBytes) {
				t.Fatalf("segment holds %d record bytes, want %d", onDisk, wantBytes)
			}
			if got, want := met.AppendSeconds.Count(), int64(mutations/1024); got != want {
				t.Fatalf("lb_wal_append_seconds has %d samples, want %d (one per 1024 of %d mutation records)", got, want, mutations)
			}
		})
	}
}

// TestApplyBatchWALAllocFree pins the server's admission path with the
// WAL attached at zero allocations per ApplyBatch: grouping, the
// per-group Mutations call and the record encoding all reuse their
// buffers. Slot-array growth allocates, so the population is admitted
// first and the measured batches only rebid.
func TestApplyBatchWALAllocFree(t *testing.T) {
	w, err := Create(t.TempDir(), Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r, err := registry.New(registry.Config{Rate: 100, Shards: 8, Journal: w})
	if err != nil {
		t.Fatal(err)
	}
	const n = 256
	ops := make([]registry.BatchOp, n)
	for i := range ops {
		ops[i] = registry.BatchOp{Kind: registry.BatchAdd, T: float64(i + 1)}
	}
	res := make([]registry.BatchResult, 0, n)
	sc := &registry.BatchScratch{}
	res = r.ApplyBatch(ops, res, sc)
	for i := range ops {
		ops[i] = registry.BatchOp{Kind: registry.BatchRebid, ID: res[i].ID, T: float64(i + 2)}
	}
	if a := testing.AllocsPerRun(200, func() {
		res = r.ApplyBatch(ops, res[:0], sc)
	}); a != 0 {
		t.Fatalf("ApplyBatch with the WAL attached allocates %.1f/op, want 0", a)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
}
