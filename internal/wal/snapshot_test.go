package wal

// Tests for the snapshot sidecar format: the compactor streams each
// file from the published epoch, and its bytes must be exactly those
// the in-memory reference encoder below produces for the same
// uncorrected population, for plain, corrected and empty epochs.

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/registry"
)

// encodeSnapshot is the reference sidecar encoder: it materializes the
// whole file in memory from a decoded snapshot, field by field in the
// order decodeSnapshot reads them. streamSnapshot must reproduce its
// bytes exactly.
func encodeSnapshot(sd *snapData) []byte {
	n := 8 + 48 + 16 + 8*len(sd.drops) + 16*len(sd.wts) + 16*len(sd.ids) + 4
	b := make([]byte, 0, n)
	b = append(b, snapMagic...)
	b = binary.LittleEndian.AppendUint64(b, sd.epoch)
	b = binary.LittleEndian.AppendUint64(b, uint64(sd.next))
	b = binary.LittleEndian.AppendUint64(b, sd.seg)
	b = binary.LittleEndian.AppendUint64(b, uint64(sd.off))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(sd.rate))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(sd.s))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(sd.drops)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(sd.wts)))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(sd.ids)))
	for _, id := range sd.drops {
		b = binary.LittleEndian.AppendUint64(b, uint64(id))
	}
	for _, e := range sd.wts {
		b = binary.LittleEndian.AppendUint64(b, uint64(e.id))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.w))
	}
	for i, id := range sd.ids {
		b = binary.LittleEndian.AppendUint64(b, uint64(id))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(sd.ts[i]))
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[8:], crcTable))
}

// TestStreamedSnapshotMatchesReference seals a known population with a
// writer whose compactor is not running, takes the capture from the
// hand-off slot, and streams it: the bytes must equal the reference
// encoding of the uncorrected population, and decodeSnapshot must give
// that population back. The corrected case drops and weights live,
// departed and never-issued ids, weights one id at exactly 1 and both
// drops and weights another, so every pre-correction path is taken.
func TestStreamedSnapshotMatchesReference(t *testing.T) {
	cases := []struct {
		name   string
		agents int
		leave  func(id int) bool
		c      *registry.Correction
	}{
		{name: "plain", agents: 300, leave: func(id int) bool { return id%7 == 0 }},
		{name: "corrected", agents: 300, leave: func(id int) bool { return id%7 == 0 }, c: &registry.Correction{
			Drop:    map[int]bool{3: true, 14: true, 299: true, 5000: true},
			Weights: map[int]float64{3: 0.5, 5: 0.25, 9: 1, 21: 0.5, 100: 0.75, 1 << 30: 0.5},
		}},
		{name: "empty", agents: 40, leave: func(int) bool { return true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := createManual(t, t.TempDir(), Options{Sync: SyncNone, SnapshotEvery: 1})
			defer w.Close()
			r, err := registry.New(registry.Config{Rate: 20, Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			bids := map[int]float64{} // the uncorrected live population
			for i := 0; i < tc.agents; i++ {
				tv := 0.5 + float64(i%13)/3
				id, err := r.Add(tv)
				if err != nil {
					t.Fatal(err)
				}
				bids[id] = tv
			}
			for id := range bids {
				if tc.leave(id) {
					if err := r.Remove(id); err != nil {
						t.Fatal(err)
					}
					delete(bids, id)
				}
			}
			r.AttachJournal(w)
			snap, err := r.SealCorrected(tc.c)
			if err != nil {
				t.Fatal(err)
			}
			seg, off := w.Tell()
			var p *pendingSnap
			select {
			case p = <-w.snapCh:
			default:
				t.Fatal("the seal captured no snapshot")
			}

			want := &snapData{
				epoch: snap.Epoch(), next: tc.agents, seg: seg, off: off,
				rate: 20, s: snap.Sum(),
				drops: []int{}, wts: []weightEntry{}, ids: []int{}, ts: []float64{},
			}
			if tc.c != nil {
				for id := range tc.c.Drop {
					want.drops = append(want.drops, id)
				}
				slices.Sort(want.drops)
				for id, wt := range tc.c.Weights {
					want.wts = append(want.wts, weightEntry{id: id, w: wt})
				}
				slices.SortFunc(want.wts, func(a, b weightEntry) int { return a.id - b.id })
			}
			for id := range bids {
				want.ids = append(want.ids, id)
			}
			slices.Sort(want.ids)
			for _, id := range want.ids {
				want.ts = append(want.ts, bids[id])
			}

			var buf bytes.Buffer
			if err := streamSnapshot(&buf, p); err != nil {
				t.Fatal(err)
			}
			if ref := encodeSnapshot(want); !bytes.Equal(buf.Bytes(), ref) {
				t.Fatalf("streamed snapshot (%d bytes) differs from the reference encoding (%d bytes)", buf.Len(), len(ref))
			}
			got, err := decodeSnapshot(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decoded snapshot\n%+v\nwant\n%+v", got, want)
			}

			// The header's live count comes from the seal; a population
			// that disagrees with it must fail the write, not produce a
			// file that recovery would reject.
			bad := *p
			bad.live++
			if err := streamSnapshot(io.Discard, &bad); err == nil {
				t.Fatal("streamSnapshot accepted a live count its population contradicts")
			}
		})
	}
}

// TestPublishedCountsSkippedSnapshot pins the compactor hand-off: with
// the compactor not running, the first snapshot-cadence seal's capture
// waits in the one-slot hand-off, and the second finds the slot full,
// so its capture is dropped and counted rather than blocking the seal.
func TestPublishedCountsSkippedSnapshot(t *testing.T) {
	met := obs.NewWALMetrics(obs.NewRegistry())
	w := createManual(t, t.TempDir(), Options{Sync: SyncNone, SnapshotEvery: 1, Metrics: met})
	defer w.Close()
	r, err := registry.New(registry.Config{Rate: 20, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := r.Add(1 + float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	r.AttachJournal(w)
	first := r.Seal()
	if got := met.SnapshotsSkipped.Value(); got != 0 {
		t.Fatalf("after the first seal: %d skipped snapshots, want 0", got)
	}
	r.Seal()
	if got := met.SnapshotsSkipped.Value(); got != 1 {
		t.Fatalf("after the second seal: %d skipped snapshots, want 1", got)
	}
	select {
	case p := <-w.snapCh:
		if p.epoch != first.Epoch() {
			t.Fatalf("queued capture is epoch %d, want the first seal's %d", p.epoch, first.Epoch())
		}
	default:
		t.Fatal("no capture queued")
	}
	if n := len(w.snapCh); n != 0 {
		t.Fatalf("%d captures still queued, want 0", n)
	}
}
