package wal

// Tests for the snapshot sidecar format: the compactor streams each
// file from the published epoch, and its bytes must be exactly those
// the in-memory reference encoder below produces for the same
// uncorrected population, for plain, corrected and empty epochs, full
// and as deltas; and the decoder must refuse a checksummed file whose
// counts are impossible rather than trust them, and recovery a delta
// whose chain does not hold.

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/registry"
)

// encodeSnapshot is the reference sidecar encoder: it materializes the
// whole file in memory from a decoded snapshot, field by field in the
// order decodeSnapshot reads them — in the LBSNAP02 format, which
// streamSnapshot must reproduce exactly, or with legacy set in the
// LBSNAP01 one, whose body lists (id, bid) pairs of the live ids; a
// delta (sd.delta set) in the LBSNAP03 format, which streamSidecar must
// reproduce on the same base.
func encodeSnapshot(sd *snapData, legacy bool) []byte {
	live, next := 0, len(sd.t)
	for _, t := range sd.t {
		if math.Float64bits(t) != 0 {
			live++
		}
	}
	magic := snapMagic
	switch {
	case legacy:
		magic = snapMagicV1
	case sd.delta != nil:
		magic, live, next = snapMagicDelta, sd.delta.live, sd.delta.next
	}
	b := []byte(magic)
	b = binary.LittleEndian.AppendUint64(b, sd.epoch)
	b = binary.LittleEndian.AppendUint64(b, uint64(next))
	b = binary.LittleEndian.AppendUint64(b, sd.seg)
	b = binary.LittleEndian.AppendUint64(b, uint64(sd.off))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(sd.rate))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(sd.s))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(sd.drops)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(sd.wts)))
	b = binary.LittleEndian.AppendUint64(b, uint64(live))
	if sd.delta != nil {
		b = binary.LittleEndian.AppendUint64(b, sd.delta.base)
	}
	for _, id := range sd.drops {
		b = binary.LittleEndian.AppendUint64(b, uint64(id))
	}
	for _, e := range sd.wts {
		b = binary.LittleEndian.AppendUint64(b, uint64(e.id))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.w))
	}
	if sd.delta != nil {
		for _, x := range sd.delta.dirty {
			b = binary.LittleEndian.AppendUint64(b, x)
		}
		for _, t := range sd.delta.t {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t))
		}
	}
	for id, t := range sd.t {
		switch {
		case !legacy:
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t))
		case t != 0:
			b = binary.LittleEndian.AppendUint64(b, uint64(id))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t))
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[8:], crcTable))
}

// deltaOf is the reference delta of epoch on base: the bids of the ids
// in written, ascending, read from the uncorrected population bids (0
// for an absent id), under a bitmap over the next ids issued.
func deltaOf(base uint64, next int, bids map[int]float64, written map[int]bool) *snapDelta {
	d := &snapDelta{base: base, next: next, live: len(bids), dirty: make([]uint64, (next+63)/64), t: []float64{}}
	for _, id := range sortedKeys(written) {
		d.dirty[id/64] |= 1 << (id % 64)
		d.t = append(d.t, bids[id])
	}
	return d
}

// sortedCorrection returns a correction's drops and weights sorted by
// id, as a sidecar holds them (empty, not nil, when there are none).
func sortedCorrection(c *registry.Correction) ([]uint64, []weightEntry) {
	drops, wts := []uint64{}, []weightEntry{}
	if c != nil {
		for _, id := range sortedKeys(c.Drop) {
			drops = append(drops, uint64(id))
		}
		for _, id := range sortedKeys(c.Weights) {
			wts = append(wts, weightEntry{id: uint64(id), w: c.Weights[id]})
		}
	}
	return drops, wts
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// TestStreamedDeltaMatchesReference seals a known population, writes
// its full sidecar, journals rebids, leaves and adds — some of them of
// the next epoch's correction's ids — and streams the next capture as
// a delta on the first: the bytes must equal the reference encoding of
// the written ids' uncorrected bids, decodeDelta must give that delta
// back, and applied on the decoded full sidecar it must give exactly
// the population the full stream of the same capture holds. The
// corrected case drops and weights live, departed and never-issued
// ids, among them written and unwritten ones.
func TestStreamedDeltaMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    *registry.Correction
	}{
		{name: "plain"},
		{name: "corrected", c: &registry.Correction{
			Drop:    map[int]bool{3: true, 14: true, 50: true, 299: true, 5000: true},
			Weights: map[int]float64{3: 0.5, 5: 0.25, 9: 1, 21: 0.5, 41: 0.5, 100: 0.75, 310: 0.5, 1 << 30: 0.5},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := createManual(t, t.TempDir(), Options{Sync: SyncNone, SnapshotEvery: 1})
			defer w.Close()
			r, err := registry.New(registry.Config{Rate: 20, Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			bids := map[int]float64{} // the uncorrected live population
			for i := 0; i < 300; i++ {
				tv := 0.5 + float64(i%13)/3
				id, err := r.Add(tv)
				if err != nil {
					t.Fatal(err)
				}
				bids[id] = tv
			}
			r.AttachJournal(w)
			base := r.Seal().Epoch()
			settle(w)
			written := map[int]bool{}
			for _, id := range []int{3, 5, 41, 42, 43, 100, 250} {
				bids[id] += 1
				if err := r.Update(id, bids[id]); err != nil {
					t.Fatal(err)
				}
				written[id] = true
			}
			for _, id := range []int{14, 21, 63, 64, 128} {
				if err := r.Remove(id); err != nil {
					t.Fatal(err)
				}
				delete(bids, id)
				written[id] = true
			}
			for i := 0; i < 20; i++ {
				id, err := r.Add(2 + float64(i))
				if err != nil {
					t.Fatal(err)
				}
				bids[id] = 2 + float64(i)
				written[id] = true
			}
			snap, err := r.SealCorrected(tc.c)
			if err != nil {
				t.Fatal(err)
			}
			seg, off := w.Tell()
			p := <-w.snapCh

			want := &snapData{epoch: snap.Epoch(), seg: seg, off: off, rate: 20, s: snap.Sum(), delta: deltaOf(base, 320, bids, written)}
			want.drops, want.wts = sortedCorrection(tc.c)
			var buf bytes.Buffer
			if err := streamSidecar(&buf, p, base); err != nil {
				t.Fatal(err)
			}
			if ref := encodeSnapshot(want, false); !bytes.Equal(buf.Bytes(), ref) {
				t.Fatalf("streamed delta (%d bytes) differs from the reference encoding (%d bytes)", buf.Len(), len(ref))
			}
			if full, delta := sidecarSizes(p); delta != int64(buf.Len()) || full != 8+64+8*int64(len(want.drops))+16*int64(len(want.wts))+8*320+4 {
				t.Fatalf("sidecarSizes = %d, %d; want the full size and the delta's %d bytes", full, delta, buf.Len())
			}
			got, err := decodeSnapshot(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decoded delta\n%+v\nwant\n%+v", got, want)
			}

			onBase, err := readSnapshot(filepath.Join(w.dir, snapName(base)))
			if err != nil {
				t.Fatal(err)
			}
			applied, err := applyDelta(onBase, got)
			if err != nil {
				t.Fatal(err)
			}
			var full bytes.Buffer
			if err := streamSnapshot(&full, p); err != nil {
				t.Fatal(err)
			}
			fullSD, err := decodeSnapshot(full.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(applied, fullSD) {
				t.Fatal("the delta applied on its base differs from the full sidecar of the same capture")
			}
		})
	}
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
				epoch: snap.Epoch(), seg: seg, off: off, rate: 20, s: snap.Sum(),
				t: make([]float64, tc.agents),
			}
			want.drops, want.wts = sortedCorrection(tc.c)
			for id, t := range bids {
				want.t[id] = t
			}

			var buf bytes.Buffer
			if err := streamSnapshot(&buf, p); err != nil {
				t.Fatal(err)
			}
			if ref := encodeSnapshot(want, false); !bytes.Equal(buf.Bytes(), ref) {
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

// forgeSnapshot frames a sidecar body — magic, then the given header
// words and body bytes — with a valid CRC, as only a forger (or a
// fuzzer) makes one.
func forgeSnapshot(magic string, body []byte, words ...uint64) []byte {
	b := []byte(magic)
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	b = append(b, body...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[8:], crcTable))
}

// TestDecodeSnapshotRefusesImpossibleCounts: a sidecar whose checksum
// holds but whose counts cannot be true is refused before any count
// reaches arithmetic or an allocation. The first case is 76 bytes
// claiming 2^60 live agents: 16*nLive wraps to 0, so a length check
// computed before bounding the count would pass it on to makeslice.
// A delta must also name a base epoch below its own, back its id
// counter with bitmap words and every set bit with a bid, and mark no
// id at or past its counter.
func TestDecodeSnapshotRefusesImpossibleCounts(t *testing.T) {
	bid := binary.LittleEndian.AppendUint64(nil, math.Float64bits(2))
	pair := func(id uint64) []byte { return append(binary.LittleEndian.AppendUint64(nil, id), bid...) }
	// epoch, next, seg, off, rate, s, nDrop|nWeight<<32, nLive
	hdr := func(next, counts, live uint64) []uint64 {
		return []uint64{9, next, 1, 16, math.Float64bits(20), math.Float64bits(0.5), counts, live}
	}
	// The same, then a delta's base epoch.
	hdr3 := func(next, counts, live, base uint64) []uint64 { return append(hdr(next, counts, live), base) }
	word := func(x uint64) []byte { return binary.LittleEndian.AppendUint64(nil, x) }
	for _, tc := range []struct {
		name string
		file []byte
		why  string
	}{
		{"v1-live-2^60", forgeSnapshot(snapMagicV1, nil, hdr(4, 0, 1<<60)...), "live agents but only 4 ids"},
		{"v2-next-2^62", forgeSnapshot(snapMagic, nil, hdr(1<<62, 0, 1<<60)...), "implausible id counter"},
		{"v1-live-past-next", forgeSnapshot(snapMagicV1, pair(0), hdr(0, 0, 1)...), "live agents but only 0 ids"},
		{"v2-live-past-next", forgeSnapshot(snapMagic, bid, hdr(1, 0, 2)...), "live agents but only 1 ids"},
		{"v2-next-past-max", forgeSnapshot(snapMagic, nil, hdr(maxReplayID+1, 0, 0)...), "implausible id counter"},
		{"v2-drops-2^32", forgeSnapshot(snapMagic, nil, hdr(0, 1<<32-1, 0)...), "correction counts"},
		{"v2-weights-2^32", forgeSnapshot(snapMagic, nil, hdr(0, (1<<32-1)<<32, 0)...), "correction counts"},
		{"v2-live-miscounted", forgeSnapshot(snapMagic, append(bid, make([]byte, 8)...), hdr(2, 0, 2)...), "holds 1 live bids"},
		{"v1-next-unbacked", forgeSnapshot(snapMagicV1, nil, hdr(maxLegacyIDs+1, 0, 0)...), "implausible for 0 live"},
		{"v1-id-past-next", forgeSnapshot(snapMagicV1, pair(4), hdr(4, 0, 1)...), "entry 0 (id 4"},
		{"v1-ids-out-of-order", forgeSnapshot(snapMagicV1, append(pair(3), pair(1)...), hdr(4, 0, 2)...), "entry 1 (id 1"},
		{"v1-zero-bid", forgeSnapshot(snapMagicV1, make([]byte, 16), hdr(4, 0, 1)...), "bid 0)"},
		{"v3-header-cut", forgeSnapshot(snapMagicDelta, nil, hdr(0, 0, 0)...), "too short"},
		{"v3-next-2^62", forgeSnapshot(snapMagicDelta, nil, hdr3(1<<62, 0, 1<<60, 8)...), "implausible id counter"},
		{"v3-live-past-next", forgeSnapshot(snapMagicDelta, append(word(3), bid...), hdr3(2, 0, 3, 8)...), "live agents but only 2 ids"},
		{"v3-drops-2^32", forgeSnapshot(snapMagicDelta, nil, hdr3(0, 1<<32-1, 0, 8)...), "correction counts"},
		{"v3-bitmap-2^40", forgeSnapshot(snapMagicDelta, nil, hdr3(maxReplayID, 0, 0, 8)...), "bitmap of 1099511627776 ids exceed"},
		{"v3-bitmap-past-drops", forgeSnapshot(snapMagicDelta, word(5), hdr3(64, 1, 0, 8)...), "bitmap of 64 ids exceed"},
		{"v3-bids-past-body", forgeSnapshot(snapMagicDelta, append(word(3), bid...), hdr3(64, 0, 2, 8)...), "want 96"},
		{"v3-bid-past-bitmap", forgeSnapshot(snapMagicDelta, append(word(1), append(bid, bid...)...), hdr3(64, 0, 2, 8)...), "want 88"},
		{"v3-bit-past-next", forgeSnapshot(snapMagicDelta, append(word(1<<3), bid...), hdr3(3, 0, 1, 8)...), "at or past its id counter 3"},
		{"v3-base-own-epoch", forgeSnapshot(snapMagicDelta, nil, hdr3(0, 0, 0, 9)...), "base epoch 9 is not below its own"},
		{"v3-base-zero", forgeSnapshot(snapMagicDelta, nil, hdr3(0, 0, 0, 0)...), "base epoch 0 is not below its own"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sd, err := decodeSnapshot(tc.file)
			if err == nil {
				t.Fatalf("decoded a %d-byte sidecar with impossible counts: %d ids", len(tc.file), len(sd.t))
			}
			if !strings.Contains(err.Error(), tc.why) {
				t.Fatalf("error %q does not say %q", err, tc.why)
			}
		})
	}
}

// TestOpenFallsBackPastForgedSnapshot: a newest sidecar whose checksum
// holds but which cannot be used sits next to a valid older one; Open
// must refuse it, recover from the older one and replay the tail,
// bitwise equal to the last live epoch. Each of LBSNAP01 and LBSNAP02
// claims 2^60 live agents; the LBSNAP03 deltas, made from the real
// delta of that epoch, claim 2^60 live agents too, or name a base that
// is missing, a base whose file holds another epoch, a base whose id
// counter exceeds theirs, or an older full sidecar than their real
// base, on which their live count does not hold.
func TestOpenFallsBackPastForgedSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name  string
		why   string
		forge func(t *testing.T, dir string, real *snapData) []byte
	}{
		{snapMagicV1, "implausible id counter", nil},
		{snapMagic, "implausible id counter", nil},
		{snapMagicDelta + "/live-2^60", "implausible id counter", nil},
		{snapMagicDelta + "/missing-base", "its base, snapshot 3, is missing", func(t *testing.T, dir string, real *snapData) []byte {
			real.delta.base--
			return encodeSnapshot(real, false)
		}},
		{snapMagicDelta + "/mismatched-base", "holds epoch 4, not the base 3", func(t *testing.T, dir string, real *snapData) []byte {
			// The file named for the missing epoch holds the base's.
			b, err := os.ReadFile(filepath.Join(dir, snapName(real.delta.base)))
			if err != nil {
				t.Fatal(err)
			}
			real.delta.base--
			if err := os.WriteFile(filepath.Join(dir, snapName(real.delta.base)), b, 0o644); err != nil {
				t.Fatal(err)
			}
			return encodeSnapshot(real, false)
		}},
		{snapMagicDelta + "/base-counter-exceeds", "id counter 10 is below its base's 50", func(t *testing.T, dir string, real *snapData) []byte {
			real.delta.next, real.delta.live, real.delta.dirty, real.delta.t = 10, 0, []uint64{0}, nil
			return encodeSnapshot(real, false)
		}},
		{snapMagicDelta + "/older-base", "holds 20 live bids on its base, its header counts 50", func(t *testing.T, dir string, real *snapData) []byte {
			real.delta.base = 2
			return encodeSnapshot(real, false)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			// Captures at every other seal: epoch 2's sidecar holds the
			// empty population, epoch 4's the 50 agents (in full: every
			// id is new), epochs 3 and 5 have none, and epoch 6's is a
			// delta on epoch 4's.
			w := createManual(t, dir, Options{Sync: SyncNone, SnapshotEvery: 2})
			r, err := registry.New(registry.Config{Rate: 20, Shards: 4, Journal: w})
			if err != nil {
				t.Fatal(err)
			}
			r.Seal()
			settle(w)
			for i := 0; i < 50; i++ {
				if _, err := r.Add(0.5 + float64(i%7)); err != nil {
					t.Fatal(err)
				}
			}
			r.Seal()
			older := r.Seal().Epoch()
			settle(w)
			for i := 0; i < 20; i++ {
				if err := r.Update(i, 3+float64(i%5)); err != nil {
					t.Fatal(err)
				}
			}
			r.Seal()
			final := recordSnap(r.Seal())
			settle(w)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, snapName(final.epoch))
			real, err := readSnapshot(path)
			if err != nil {
				t.Fatal(err)
			}
			if real.delta == nil || real.delta.base != older || older != 4 {
				t.Fatalf("the final sidecar is not a delta on epoch 4's (older %d, delta %+v)", older, real.delta)
			}
			forged := forgeSnapshot(tc.name[:8], nil, final.epoch, 1<<62, 1, 16, math.Float64bits(20), 0, 0, 1<<60, older)
			if tc.forge != nil {
				forged = tc.forge(t, dir, real)
			} else if tc.name != snapMagicDelta+"/live-2^60" {
				forged = forgeSnapshot(tc.name, nil, final.epoch, 1<<62, 1, 16, math.Float64bits(20), 0, 0, 1<<60)
			}
			if err := os.WriteFile(path, forged, 0o644); err != nil {
				t.Fatal(err)
			}
			_, snaps, err := scanDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := loadSnapshot(snaps, len(snaps)-1); err == nil || !strings.Contains(err.Error(), tc.why) {
				t.Fatalf("loading the forged sidecar: err %v, want one saying %q", err, tc.why)
			}

			r2, w2, info, err := Open(dir, Options{Sync: SyncNone}, registry.Config{Rate: 1, Shards: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			if info.SnapshotEpoch != older {
				t.Fatalf("recovered from snapshot %d, want the older valid one, %d", info.SnapshotEpoch, older)
			}
			compareSnap(t, r2.Snapshot(), final)
		})
	}
}
