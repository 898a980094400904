package wal

// Kill -9 differential test: a scripted history is journaled, the tail
// segment is truncated at EVERY byte offset, and recovery of each
// truncated log must (a) succeed, (b) land exactly on the last sealed
// epoch whose record fits in the durable prefix — bitwise identical to
// the snapshot recorded live — and (c) hold exactly the mutations whose
// records fit, verified by resealing against a serial alloc.Stream
// replay of that prefix. Mutations share run records, so a mutation
// counts as durable once the run holding it is whole: cuts inside a
// multi-entry run must drop the whole run. Run for a plain log and for
// one with snapshot sidecars, rotating the recovery shard count
// through {1, 4, 32}.

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/alloc"
	"repro/internal/registry"
)

// modelOp is one replayable mutation for the serial shadow.
type modelOp struct {
	kind byte // 'a', 'u', 'r', 'R'
	id   int
	t    float64
}

// truncHistory drives a deterministic scripted history through a
// journaled registry and returns the model ops, the (offset, ops,
// epoch) mark after every journaled mutation or seal, and the recorded
// snapshot of every sealed epoch. A mark taken inside a run that was
// still open is not a record boundary; the test keeps only the marks
// that segmentRecords finds at one.
func truncHistory(t *testing.T, dir string, snapshotEvery int) ([]modelOp, []truncMark, map[uint64]sealRec) {
	t.Helper()
	w, err := Create(dir, Options{Sync: SyncNone, SnapshotEvery: snapshotEvery})
	if err != nil {
		t.Fatal(err)
	}
	r, err := registry.New(registry.Config{Rate: 10, Shards: 4, Journal: w})
	if err != nil {
		t.Fatal(err)
	}
	var mops []modelOp
	var marks []truncMark
	seals := map[uint64]sealRec{}
	epoch := r.Snapshot().Epoch()
	seals[epoch] = recordSnap(r.Snapshot())
	mark := func() {
		_, off := w.Tell()
		marks = append(marks, truncMark{off: off, ops: len(mops), epoch: epoch})
	}
	mark() // after registry.New's initial seal record

	rng := rand.New(rand.NewPCG(11, 13))
	var live []int
	for i := 0; i < 110; i++ {
		switch {
		case len(live) < 12 || rng.IntN(10) < 4:
			bid := 0.1 + 10*rng.Float64()
			id, err := r.Add(bid)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
			mops = append(mops, modelOp{'a', id, bid})
		case rng.IntN(10) < 5:
			id := live[rng.IntN(len(live))]
			bid := 0.1 + 10*rng.Float64()
			if err := r.Update(id, bid); err != nil {
				t.Fatal(err)
			}
			mops = append(mops, modelOp{'u', id, bid})
		case rng.IntN(10) < 7:
			j := rng.IntN(len(live))
			id := live[j]
			if err := r.Remove(id); err != nil {
				t.Fatal(err)
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			mops = append(mops, modelOp{'r', id, 0})
		default:
			rate := 1 + 50*rng.Float64()
			if err := r.SetRate(rate); err != nil {
				t.Fatal(err)
			}
			mops = append(mops, modelOp{'R', 0, rate})
		}
		mark()
		if i%20 == 19 {
			var snap *registry.Snapshot
			if i%40 == 39 { // every other seal is corrected
				snap, err = r.SealCorrected(randCorrection(rng, live))
				if err != nil {
					t.Fatal(err)
				}
			} else {
				snap = r.Seal()
			}
			epoch = snap.Epoch()
			seals[epoch] = recordSnap(snap)
			mark()
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return mops, marks, seals
}

type truncMark struct {
	off   int64
	ops   int
	epoch uint64
}

// segRecord is one whole record of a segment image: its kind, its
// payload length, the offset just past it, and for a run the entries
// it holds.
type segRecord struct {
	kind    byte
	payload int
	end     int64
	entries int
}

// segmentRecords decodes every record of a segment image in the
// writer's format.
func segmentRecords(t *testing.T, data []byte) []segRecord {
	t.Helper()
	var recs []segRecord
	for off := segHeaderLen; off < len(data); {
		plen := int(binary.LittleEndian.Uint32(data[off:]))
		rec, err := decodeRecord(data[off+frameLen:off+frameLen+plen], true)
		if err != nil {
			t.Fatalf("record at offset %d: %v", off, err)
		}
		sr := segRecord{kind: rec.kind, payload: plen, end: int64(off + frameLen + plen)}
		for p := rec.run; len(p) > 0; sr.entries++ {
			_, n, _ := decodeEntry(p, true)
			p = p[n:]
		}
		recs = append(recs, sr)
		off = int(sr.end)
	}
	return recs
}

// shadowReplay rebuilds the serial ground truth from a prefix of the
// model ops.
func shadowReplay(t *testing.T, mops []modelOp) *alloc.Stream {
	t.Helper()
	st, err := alloc.NewStream(10)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range mops {
		switch o.kind {
		case 'a':
			id, err := st.Add(o.t)
			if err != nil || id != o.id {
				t.Fatalf("shadow add: id %d want %d (%v)", id, o.id, err)
			}
		case 'u':
			if err := st.Update(o.id, o.t); err != nil {
				t.Fatal(err)
			}
		case 'r':
			if err := st.Remove(o.id); err != nil {
				t.Fatal(err)
			}
		case 'R':
			if err := st.SetRate(o.t); err != nil {
				t.Fatal(err)
			}
		}
	}
	return st
}

func TestTruncationFuzzEveryTailOffset(t *testing.T) {
	for _, tc := range []struct {
		name          string
		snapshotEvery int
	}{
		{"full-log", 0},
		{"snapshot-plus-tail", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := t.TempDir()
			mops, marks, seals := truncHistory(t, src, tc.snapshotEvery)
			data, err := os.ReadFile(filepath.Join(src, segName(1)))
			if err != nil {
				t.Fatal(err)
			}
			_, snaps, err := scanDir(src)
			if err != nil {
				t.Fatal(err)
			}
			if tc.snapshotEvery > 0 && len(snaps) == 0 {
				t.Fatalf("history produced no snapshot sidecars")
			}
			if marks[len(marks)-1].off != int64(len(data)) {
				t.Fatalf("final mark %d != segment length %d", marks[len(marks)-1].off, len(data))
			}
			recs := segmentRecords(t, data)
			ends, maxRun := map[int64]bool{segHeaderLen: true}, 0
			for _, r := range recs {
				ends[r.end] = true
				maxRun = max(maxRun, r.entries)
			}
			if maxRun < 2 {
				t.Fatalf("no run holds more than %d entries; the cuts never split a run", maxRun)
			}
			closed := marks[:0:0]
			for _, m := range marks {
				if ends[m.off] {
					closed = append(closed, m)
				}
			}
			marks = closed

			shardCases := []int{1, 4, 32}
			scratch := filepath.Join(t.TempDir(), "cut")
			for cut := 0; cut <= len(data); cut++ {
				if err := os.RemoveAll(scratch); err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(scratch, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(scratch, segName(1)), data[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				for _, s := range snaps {
					b, err := os.ReadFile(s.path)
					if err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(filepath.Join(scratch, filepath.Base(s.path)), b, 0o644); err != nil {
						t.Fatal(err)
					}
				}

				// Expected state: the last record-boundary mark that
				// fits in the durable prefix.
				m := truncMark{epoch: 1}
				for _, cand := range marks {
					if cand.off <= int64(cut) {
						m = cand
					} else {
						break
					}
				}

				shards := shardCases[cut%len(shardCases)]
				r2, _, err := Recover(scratch, registry.Config{Rate: 10, Shards: shards})
				if err != nil {
					t.Fatalf("cut=%d shards=%d: recovery failed: %v", cut, shards, err)
				}
				cur := r2.Snapshot()
				want, ok := seals[m.epoch]
				if !ok {
					t.Fatalf("cut=%d: no recorded seal for epoch %d", cut, m.epoch)
				}
				if cur.Epoch() != m.epoch {
					t.Fatalf("cut=%d shards=%d: recovered epoch %d, want %d", cut, shards, cur.Epoch(), m.epoch)
				}
				compareSnap(t, cur, want)

				// Full-state check: reseal the recovered registry and
				// compare against a serial replay of the same prefix.
				st := shadowReplay(t, mops[:m.ops])
				got := r2.Seal()
				if math.Float64bits(got.Sum()) != math.Float64bits(st.Sealed()) {
					t.Fatalf("cut=%d shards=%d: resealed S diverged from shadow", cut, shards)
				}
				ids, _ := st.Snapshot()
				gids := got.IDs(nil)
				if len(gids) != len(ids) {
					t.Fatalf("cut=%d: recovered %d live, shadow %d", cut, len(gids), len(ids))
				}
				for i, id := range gids {
					if id != ids[i] {
						t.Fatalf("cut=%d: ids[%d] = %d, shadow %d", cut, i, id, ids[i])
					}
					gv, _ := got.Value(id)
					sv, ok := st.Value(id)
					if !ok || math.Float64bits(gv) != math.Float64bits(sv) {
						t.Fatalf("cut=%d: value(%d) = %x, shadow %x", cut, id, math.Float64bits(gv), math.Float64bits(sv))
					}
				}
			}
			t.Logf("%s: %d byte offsets fuzzed over %d records (%d seals, runs of up to %d entries)",
				tc.name, len(data)+1, len(recs), len(seals), maxRun)
		})
	}
}
