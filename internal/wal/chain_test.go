package wal

// Tests for delta sidecars in use: a history sealed with a sidecar at
// every seal, most of them deltas, must load every retained sidecar to
// its epoch's exact population and recover bitwise, from the chain,
// with any one sidecar damaged or deleted, and with none at all; a
// sidecar write that fails must not stop the journal; and Open must
// clear the temp files a crash inside a sidecar write leaves behind.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/registry"
)

// chainHistory journals a seeded history into a registry at the given
// shard count, with a capture at every seal, written at once (settle)
// except that every fifth is left queued, so that the next one is
// dropped as when the compactor is busy. Between seals it adds, rebids
// and removes agents, now and then issues ids it never journals, and
// seals plain epochs and corrected ones that drop and weight live,
// departed and never-issued ids. It returns the uncorrected population
// of each sealed epoch (one bid per issued id, 0 for an absent one)
// and the last seal.
func chainHistory(t *testing.T, w *Writer, shards int, seed uint64) (map[uint64][]float64, sealRec) {
	t.Helper()
	r, err := registry.New(registry.Config{Rate: 40, Shards: shards, Journal: w})
	if err != nil {
		t.Fatal(err)
	}
	settle(w)
	rng := rand.New(rand.NewPCG(seed, 0xde17a))
	var bids []float64 // by id
	var live, departed []int
	add := func() {
		tv := 0.1 + 10*rng.Float64()
		id, err := r.Add(tv)
		if err != nil {
			t.Fatal(err)
		}
		if id != len(bids) {
			t.Fatalf("add got id %d, want %d", id, len(bids))
		}
		bids = append(bids, tv)
		live = append(live, id)
	}
	for i := 0; i < 400; i++ {
		add()
	}
	pops := map[uint64][]float64{}
	var final sealRec
	for round := 0; round < 40; round++ {
		for n := 1 + rng.IntN(40); n > 0; n-- {
			switch p := rng.IntN(10); {
			case p < 3:
				add()
			case p < 8:
				id := live[rng.IntN(len(live))]
				bids[id] = 0.1 + 10*rng.Float64()
				if err := r.Update(id, bids[id]); err != nil {
					t.Fatal(err)
				}
			default:
				j := rng.IntN(len(live))
				id := live[j]
				if err := r.Remove(id); err != nil {
					t.Fatal(err)
				}
				bids[id] = 0
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				departed = append(departed, id)
			}
		}
		if round%9 == 4 {
			// Ids issued but never journaled.
			gap := 1 + rng.IntN(5)
			r.RestoreNext(len(bids) + gap)
			bids = append(bids, make([]float64, gap)...)
		}
		var c *registry.Correction
		if round%3 == 1 {
			c = randCorrection(rng, live)
			c.Drop[len(bids)+9] = true
			c.Weights[len(bids)+3] = 0.5
			if len(departed) > 0 {
				c.Drop[departed[rng.IntN(len(departed))]] = true
				c.Weights[departed[rng.IntN(len(departed))]] = 0.25
			}
		}
		snap, err := r.SealCorrected(c)
		if err != nil {
			t.Fatal(err)
		}
		pops[snap.Epoch()] = slices.Clone(bids)
		final = recordSnap(snap)
		if round%5 != 2 {
			settle(w)
		}
	}
	return pops, final
}

// copyDir copies the files of dir into a new temporary directory.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	cp := t.TempDir()
	for name, b := range readLogDir(t, dir) {
		if err := os.WriteFile(filepath.Join(cp, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return cp
}

// TestDeltaChainRecovery is the delta sidecars' differential, at
// shard counts 1/4/32, in one segment and in compacted 4 KiB segments:
// a history whose sidecars are mostly deltas (chainHistory) must leave
// every retained sidecar, full or a chain's tip, loading to exactly
// its epoch's uncorrected population, and must recover bitwise to the
// last seal from the newest sidecar's chain; with any one retained
// sidecar corrupted or deleted; and, when retention kept the log from
// segment 1, with every sidecar removed. Open then continues the log
// with a full sidecar and a delta on it.
func TestDeltaChainRecovery(t *testing.T) {
	for _, shards := range []int{1, 4, 32} {
		for _, segBytes := range []int64{0, 4 << 10} {
			t.Run(fmt.Sprintf("shards=%d/segment=%d", shards, segBytes), func(t *testing.T) {
				dir := t.TempDir()
				met := obs.NewWALMetrics(obs.NewRegistry())
				w := createManual(t, dir, Options{Sync: SyncNone, SnapshotEvery: 1, SegmentBytes: segBytes, Metrics: met})
				pops, final := chainHistory(t, w, shards, uint64(shards))
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				deltas, fulls := met.DeltaSnapshots.Value(), met.Snapshots.Value()-met.DeltaSnapshots.Value()
				if deltas < 10 || fulls < 3 || met.SnapshotsSkipped.Value() == 0 || met.SnapshotErrors.Value() != 0 {
					t.Fatalf("%d deltas, %d full sidecars, %d skipped captures, %d errors; want >= 10, >= 3, > 0, 0",
						deltas, fulls, met.SnapshotsSkipped.Value(), met.SnapshotErrors.Value())
				}

				segs, snaps, err := scanDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				for i, s := range snaps {
					sd, _, err := loadSnapshot(snaps, i)
					if err != nil {
						t.Fatalf("retained sidecar %d does not load: %v", s.epoch, err)
					}
					want := pops[s.epoch]
					if len(sd.t) != len(want) {
						t.Fatalf("sidecar %d holds %d ids, its epoch issued %d", s.epoch, len(sd.t), len(want))
					}
					for id, v := range want {
						if math.Float64bits(sd.t[id]) != math.Float64bits(v) {
							t.Fatalf("sidecar %d: id %d holds %x, want %x", s.epoch, id, math.Float64bits(sd.t[id]), math.Float64bits(v))
						}
					}
				}
				if segBytes == 0 && len(segs) != 1 {
					t.Fatalf("%d segments, want 1", len(segs))
				}
				t.Logf("%d deltas and %d full sidecars written; %d retained with segments %d-%d",
					deltas, fulls, len(snaps), segs[0].seq, segs[len(segs)-1].seq)

				recoverAt := func(dir string, fromSnap uint64) {
					t.Helper()
					for _, rshards := range []int{1, 4, 32} {
						r, info, err := Recover(dir, registry.Config{Rate: 1, Shards: rshards})
						if err != nil {
							t.Fatalf("recover at %d shards: %v", rshards, err)
						}
						if fromSnap != math.MaxUint64 && info.SnapshotEpoch != fromSnap {
							t.Fatalf("recovered from snapshot %d, want %d", info.SnapshotEpoch, fromSnap)
						}
						compareSnap(t, r.Snapshot(), final)
					}
				}
				recoverAt(dir, snaps[len(snaps)-1].epoch)
				for _, s := range snaps {
					for _, damage := range []string{"corrupt", "delete"} {
						cp := copyDir(t, dir)
						path := filepath.Join(cp, filepath.Base(s.path))
						if damage == "delete" {
							if err := os.Remove(path); err != nil {
								t.Fatal(err)
							}
						} else {
							b, err := os.ReadFile(path)
							if err != nil {
								t.Fatal(err)
							}
							b[len(b)/2] ^= 0x10
							if err := os.WriteFile(path, b, 0o644); err != nil {
								t.Fatal(err)
							}
						}
						recoverAt(cp, math.MaxUint64)
					}
				}
				cp := copyDir(t, dir)
				for _, s := range snaps {
					if err := os.Remove(filepath.Join(cp, filepath.Base(s.path))); err != nil {
						t.Fatal(err)
					}
				}
				if segs[0].seq == 1 {
					recoverAt(cp, 0)
				} else if _, _, err := Recover(cp, registry.Config{Rate: 1, Shards: shards}); err == nil {
					t.Fatal("recovery fabricated state from a compacted log with no snapshot")
				}

				reopenAndSeal(t, dir, final)
			})
		}
	}
}

// reopenAndSeal opens the log in dir, whose last seal is final, and
// seals twice with the compactor idle in between, rebidding and adding
// before each seal. The first sidecar after Open must be full, since
// the writer has no durable base of its own, and the second a delta on
// it; the log must then recover bitwise to the second seal.
func reopenAndSeal(t *testing.T, dir string, final sealRec) {
	t.Helper()
	r, w, _, err := Open(dir, Options{Sync: SyncNone, SnapshotEvery: 1}, registry.Config{Rate: 1, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	compareSnap(t, r.Snapshot(), final)
	var seals []sealRec
	for i := 0; i < 2; i++ {
		if err := r.Update(final.ids[i], 7); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Add(8); err != nil {
			t.Fatal(err)
		}
		seals = append(seals, recordSnap(r.Seal()))
		for deadline := time.Now().Add(10 * time.Second); len(w.snapCh) > 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the compactor never took the capture")
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{snapMagic, snapMagicDelta} {
		sd, err := readSnapshot(filepath.Join(dir, snapName(seals[i].epoch)))
		if err != nil {
			t.Fatal(err)
		}
		if got := map[bool]string{false: snapMagic, true: snapMagicDelta}[sd.delta != nil]; got != want {
			t.Fatalf("sidecar %d after Open is %s, want %s", i+1, got, want)
		}
		if sd.delta != nil && sd.delta.base != seals[0].epoch {
			t.Fatalf("the delta after Open rests on epoch %d, want %d", sd.delta.base, seals[0].epoch)
		}
	}
	r2, info, err := Recover(dir, registry.Config{Rate: 1, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotEpoch != seals[1].epoch {
		t.Fatalf("recovered from snapshot %d, want the delta's epoch %d", info.SnapshotEpoch, seals[1].epoch)
	}
	compareSnap(t, r2.Snapshot(), seals[1])
}

// TestFailedSnapshotKeepsJournaling: a sidecar write that fails — here
// because a directory squats on its temp file's name — is counted in
// lb_wal_snapshot_errors_total and stops nothing: later adds and
// seals are journaled, Err stays nil, the next sidecar is full (the
// failed one is no delta base), the one after it a delta, and after a
// crash the log recovers bitwise to the last seal.
func TestFailedSnapshotKeepsJournaling(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, snapName(2)+".tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	met := obs.NewWALMetrics(obs.NewRegistry())
	w := createManual(t, dir, Options{Sync: SyncSeal, SnapshotEvery: 1, Metrics: met})
	r, err := registry.New(registry.Config{Rate: 10, Shards: 4, Journal: w})
	if err != nil {
		t.Fatal(err)
	}
	settle(w)
	sealAfter := func(adds int) sealRec {
		for i := 0; i < adds; i++ {
			if _, err := r.Add(1 + float64(i%9)); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.Update(0, 11); err != nil {
			t.Fatal(err)
		}
		snap := recordSnap(r.Seal())
		settle(w)
		return snap
	}
	if s := sealAfter(100); s.epoch != 2 {
		t.Fatalf("sealed epoch %d, want 2", s.epoch)
	}
	if got := met.SnapshotErrors.Value(); got != 1 {
		t.Fatalf("lb_wal_snapshot_errors_total = %d after the squatted write, want 1", got)
	}
	sealAfter(50)
	final := sealAfter(1)
	if err := w.Err(); err != nil {
		t.Fatalf("a failed sidecar write latched the journal: %v", err)
	}
	if got := met.SnapshotErrors.Value(); got != 1 {
		t.Fatalf("lb_wal_snapshot_errors_total = %d, want 1", got)
	}
	if s, d := met.Snapshots.Value(), met.DeltaSnapshots.Value(); s != 3 || d != 1 {
		t.Fatalf("%d sidecars, %d deltas written; want 3 (epochs 1, 3, 4), 1", s, d)
	}
	for epoch, want := range map[uint64]string{1: snapMagic, 3: snapMagic, 4: snapMagicDelta} {
		b, err := os.ReadFile(filepath.Join(dir, snapName(epoch)))
		if err != nil || string(b[:8]) != want {
			t.Fatalf("sidecar %d is not an %s one (err %v)", epoch, want, err)
		}
	}
	w.Abandon()
	r2, info, err := Recover(dir, registry.Config{Rate: 1, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotEpoch != final.epoch {
		t.Fatalf("recovered from snapshot %d, want %d", info.SnapshotEpoch, final.epoch)
	}
	compareSnap(t, r2.Snapshot(), final)
	if got := r2.Snapshot().N(); got != 151 {
		t.Fatalf("recovered %d live agents, want 151", got)
	}
}

// TestOpenRemovesStaleSnapshotTemp: a crash inside a sidecar write
// leaves its temp file behind. Recover, which is read-only, leaves it
// alone; Open removes it before serving; both recover bitwise as if it
// were not there.
func TestOpenRemovesStaleSnapshotTemp(t *testing.T) {
	dir := t.TempDir()
	w := createManual(t, dir, Options{Sync: SyncNone, SnapshotEvery: 1})
	r, err := registry.New(registry.Config{Rate: 10, Shards: 4, Journal: w})
	if err != nil {
		t.Fatal(err)
	}
	settle(w)
	for i := 0; i < 30; i++ {
		if _, err := r.Add(1 + float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	final := recordSnap(r.Seal())
	settle(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, snapName(final.epoch+1)+".tmp")
	if err := os.WriteFile(tmp, []byte(snapMagic+" cut short"), 0o644); err != nil {
		t.Fatal(err)
	}

	r2, _, err := Recover(dir, registry.Config{Rate: 1, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	compareSnap(t, r2.Snapshot(), final)
	if _, err := os.Stat(tmp); err != nil {
		t.Fatalf("Recover touched the temp file: %v", err)
	}
	r3, w3, _, err := Open(dir, Options{Sync: SyncNone, SnapshotEvery: 1}, registry.Config{Rate: 1, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	compareSnap(t, r3.Snapshot(), final)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("Open left the stale temp file (stat: %v)", err)
	}
}
