package wal

// Tests for the batched journal path: registry.ApplyBatch hands each
// shard group's applied ops to Writer.Mutations in one call, and the
// log that produces must be byte-identical to the per-op path's, must
// recover to the live sealed epochs, must count exactly in the
// lb_wal_* metrics, and must stay allocation-free.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
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
func createManual(t testing.TB, dir string, opts Options) *Writer {
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

// unassignedID is an id far past any registry counter in these tests
// that still fits an int on 32-bit targets: a rebid of it must fail.
const unassignedID = 1 << 30

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
			ops = append(ops, registry.BatchOp{Kind: registry.BatchRebid, ID: unassignedID, T: 1})
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
					valid := !math.IsInf(op.T, 0) && op.ID != unassignedID && op.Kind != registry.BatchKind(9)
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
// journaled mutation entries plus seal records, and
// lb_wal_appended_bytes_total the bytes appended — 1+len(uvarint id)+8
// per add or rebid entry, 1+len(uvarint id) per leave entry, 8+1 per
// run record holding them, 8+17 per plain seal — which must also be
// exactly what reached the segment
// file, whose run records must hold every mutation and fill up to the
// run cap without passing it; the sampled
// latency histogram must hold one observation per 1024 mutation
// entries. At one shard every batch is one Mutations call, and batches
// of up to 3000 ops cross several sampling boundaries in one call.
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
			mutations, entryBytes, seals := 0, 0, 1 // registry.New seals epoch 1
			for round := 0; round < 20; round++ {
				ops := genOps(rng, &live, 1+rng.IntN(3000))
				res = r.ApplyBatch(ops, res[:0], sc)
				live = admitted(live, ops, res)
				for i, rr := range res {
					if rr.Code == registry.BatchOK {
						mutations++
						id, bid := ops[i].ID, 8
						switch ops[i].Kind {
						case registry.BatchAdd:
							id = rr.ID
						case registry.BatchLeave:
							bid = 0
						}
						entryBytes += 1 + len(binary.AppendUvarint(nil, uint64(id))) + bid
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
			data, err := os.ReadFile(filepath.Join(dir, segName(1)))
			if err != nil {
				t.Fatal(err)
			}
			runs, entries, largest := 0, 0, 0
			for _, r := range segmentRecords(t, data) {
				if r.kind == kindRun {
					runs++
					entries += r.entries
					largest = max(largest, r.payload)
				}
			}
			if entries != mutations {
				t.Fatalf("run records hold %d entries, want %d mutations", entries, mutations)
			}
			if largest > runCap || largest <= runCap-17 {
				t.Fatalf("largest run payload %d bytes, want the %d-byte cap reached, never passed", largest, runCap)
			}
			records := mutations + seals
			wantBytes := entryBytes + runs*(8+1) + seals*(8+17)
			if got := met.Appends.Value(); got != int64(records) {
				t.Fatalf("lb_wal_appends_total = %d, want %d entries and seals", got, records)
			}
			if got := met.AppendedBytes.Value(); got != int64(wantBytes) {
				t.Fatalf("lb_wal_appended_bytes_total = %d, want %d", got, wantBytes)
			}
			if onDisk := len(data) - segHeaderLen; onDisk != wantBytes {
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
// first and the measured batches only rebid. A batch is a served
// drain's 4096 ops, so each of the 8 shard groups, about 512 rebids or
// 5.6 KiB of entries, crosses a run boundary.
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
	const n = 4096
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

// maxGroupID bounds the ids TestLargeGroupLogByteIdentical journals:
// below recovery's maxReplayID, and an int on 32-bit targets too,
// where the ids stop at five uvarint bytes instead of six.
const maxGroupID = min(maxReplayID-1, math.MaxInt)

// genGroup draws a group of n adds, rebids and leaves whose ids have
// uvarint lengths of 1 to 6 bytes, about equally often, and records
// each length it drew in lens. The writer takes any id, so the ops
// need not name live agents.
func genGroup(rng *rand.Rand, n int, lens map[int]bool) []registry.BatchOp {
	ops := make([]registry.BatchOp, n)
	for i := range ops {
		l := 1 + rng.IntN(6)
		lo, hi := uint64(1)<<(7*(l-1)), min(uint64(1)<<(7*l), maxGroupID+1)
		if l == 1 || lo >= hi {
			lo = 0
		}
		id := lo + rng.Uint64N(hi-lo)
		lens[len(binary.AppendUvarint(nil, id))] = true
		ops[i] = registry.BatchOp{Kind: registry.BatchKind(1 + rng.IntN(3)), ID: int(id), T: 0.1 + 10*rng.Float64()}
	}
	return ops
}

// journalPerOp journals ops through the per-op methods, as ApplyBatch
// does for a journal without Mutations.
func journalPerOp(w *Writer, ops []registry.BatchOp) {
	for _, op := range ops {
		switch op.Kind {
		case registry.BatchAdd:
			w.Added(op.ID, op.T)
		case registry.BatchRebid:
			w.Updated(op.ID, op.T)
		case registry.BatchLeave:
			w.Removed(op.ID)
		}
	}
}

// TestLargeGroupLogByteIdentical is the writer-level differential for
// groups larger than a run. TestBatchedLogByteIdentical's segments are
// smaller than runCap, so none of its groups meets the run cap; here
// segments (96 KiB) and group-commit batches (20 KiB) are well above
// it, and groups of up to 2000 entries, with ids of every uvarint
// length up to 6 bytes, run through Mutations, one call per group, and
// through Added/Updated/Removed, between rate changes and plain and
// corrected seals. Every segment must be byte-identical, and some
// Mutations call must have closed a run at the cap (it appended more
// than runCap bytes and neither flushed nor rotated), some must have
// flushed the buffer, and some must have rotated the segment.
func TestLargeGroupLogByteIdentical(t *testing.T) {
	opts := Options{Sync: SyncNone, SegmentBytes: 96 << 10, BatchBytes: 20 << 10}
	for seed := uint64(0); seed < 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			batchedDir, perOpDir := t.TempDir(), t.TempDir()
			wb := createManual(t, batchedDir, opts)
			wp := createManual(t, perOpDir, opts)
			rng := rand.New(rand.NewPCG(seed, 0x6c0))
			lens := make(map[int]bool)
			capped, flushed, rotated := false, false, false
			for round := 0; round < 60; round++ {
				ops := genGroup(rng, 1+rng.IntN(2000), lens)
				seg, off := wb.seg, wb.segOff
				_, before := wb.Tell()
				wb.Mutations(ops)
				_, after := wb.Tell()
				switch {
				case wb.seg != seg:
					rotated = true
				case wb.segOff != off:
					flushed = true
				case after-before > runCap:
					capped = true
				}
				journalPerOp(wp, ops)
				switch rng.IntN(6) {
				case 0:
					ev := registry.SealEvent{Epoch: uint64(round + 1), Rate: 50}
					wb.Sealed(ev)
					wp.Sealed(ev)
				case 1:
					ev := registry.SealEvent{Epoch: uint64(round + 1), Rate: 50, Correction: &registry.Correction{
						Drop:    map[int]bool{rng.IntN(1 << 14): true},
						Weights: map[int]float64{rng.IntN(1 << 14): 0.5},
					}}
					wb.Sealed(ev)
					wp.Sealed(ev)
				case 2:
					rate := 1 + 100*rng.Float64()
					wb.RateChanged(rate)
					wp.RateChanged(rate)
				}
			}
			if err := wb.Close(); err != nil {
				t.Fatal(err)
			}
			if err := wp.Close(); err != nil {
				t.Fatal(err)
			}
			if !capped || !flushed || !rotated {
				t.Fatalf("Mutations calls closed a run at the cap: %v, flushed: %v, rotated: %v; want all three", capped, flushed, rotated)
			}
			for l := 1; l <= 6 && uint64(maxGroupID) >= 1<<(7*(l-1)); l++ {
				if !lens[l] {
					t.Fatalf("no id of %d uvarint bytes drawn", l)
				}
			}
			got, want := readLogDir(t, batchedDir), readLogDir(t, perOpDir)
			if len(got) != len(want) || len(want) < 3 {
				t.Fatalf("batched log has %d files, per-op log %d; want the same, and at least 3", len(got), len(want))
			}
			for name, b := range want {
				if !bytes.Equal(got[name], b) {
					t.Fatalf("%s: batched (%d bytes) differs from per-op (%d bytes)", name, len(got[name]), len(b))
				}
			}
		})
	}
}

// TestFailedWriteMidGroup pins the rule that a log write failing inside
// a Mutations call ends the call after the entry that raised it, where
// the per-op methods stop too. Each writer's segment file is closed
// under it before a group whose entries cross the group-commit
// threshold (flush) or the segment end (rotate), so the write that
// entry triggers fails. The batched and the per-op writer must then
// hold the same bytes on disk and in the buffer, latch the same error,
// and count the same appends and bytes, fewer than the group's; a
// group after the failure must change nothing.
func TestFailedWriteMidGroup(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"flush", Options{Sync: SyncNone, BatchBytes: 1 << 10}},
		{"rotate", Options{Sync: SyncNone, SegmentBytes: 2 << 10, BatchBytes: 64 << 10}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(5, 6))
			lens := make(map[int]bool)
			prefix, group, after := genGroup(rng, 40, lens), genGroup(rng, 300, lens), genGroup(rng, 10, lens)
			type outcome struct {
				disk, buf       []byte
				err             error
				appends, nbytes int64
			}
			run := func(journal func(w *Writer, ops []registry.BatchOp)) outcome {
				dir := t.TempDir()
				opts := tc.opts
				opts.Metrics = obs.NewWALMetrics(obs.NewRegistry())
				w := createManual(t, dir, opts)
				journal(w, prefix)
				if err := w.f.Close(); err != nil {
					t.Fatal(err)
				}
				journal(w, group)
				o := outcome{buf: bytes.Clone(w.buf), err: w.Err(), appends: opts.Metrics.Appends.Value(), nbytes: opts.Metrics.AppendedBytes.Value()}
				journal(w, after)
				if !bytes.Equal(w.buf, o.buf) || opts.Metrics.Appends.Value() != o.appends || opts.Metrics.AppendedBytes.Value() != o.nbytes {
					t.Fatalf("a group after the failure changed the writer")
				}
				if err := w.Close(); !errors.Is(err, os.ErrClosed) {
					t.Fatalf("Close returned %v, want the latched write error", err)
				}
				disk, err := os.ReadFile(filepath.Join(dir, segName(1)))
				if err != nil {
					t.Fatal(err)
				}
				o.disk = disk
				if o.err != nil {
					o.err = errors.New(strings.ReplaceAll(o.err.Error(), dir, "DIR"))
				}
				return o
			}
			batched := run((*Writer).Mutations)
			perOp := run(journalPerOp)
			if batched.err == nil || batched.err.Error() != perOp.err.Error() {
				t.Fatalf("batched error %v, per-op error %v; want the same write error", batched.err, perOp.err)
			}
			if !bytes.Equal(batched.disk, perOp.disk) || !bytes.Equal(batched.buf, perOp.buf) {
				t.Fatalf("batched wrote %d bytes and buffers %d, per-op %d and %d; want the same bytes",
					len(batched.disk), len(batched.buf), len(perOp.disk), len(perOp.buf))
			}
			if batched.appends != perOp.appends || batched.nbytes != perOp.nbytes {
				t.Fatalf("batched counted %d appends of %d bytes, per-op %d of %d", batched.appends, batched.nbytes, perOp.appends, perOp.nbytes)
			}
			if n := batched.appends - int64(len(prefix)); n <= 0 || n >= int64(len(group)) {
				t.Fatalf("the failing group journaled %d of its %d entries; want the failure mid-group", n, len(group))
			}
		})
	}
}
