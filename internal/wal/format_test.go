package wal

// Tests for the on-disk record format across versions and for the
// line between a torn tail and corruption: a log in the run-less
// LBWAL001 format recovers bitwise and is continued in a fresh LBWAL002
// segment, and a record whose checksum holds but which does not decode
// — an unknown kind, a run cut mid-entry or holding an entry of another
// kind — is an error that leaves the log untouched, wherever it sits.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/registry"
)

// parentLog journals a registry in the LBWAL001 format, where every
// mutation, rate change and seal is a standalone record. It is a
// test-only copy of the encoder that wrote that format, kept so that
// logs written that way stay pinned as recoverable.
type parentLog struct{ buf []byte }

func newParentLog() *parentLog {
	return &parentLog{buf: binary.LittleEndian.AppendUint64([]byte(segMagicV1), 1)}
}

// record appends one framed record of the given kind and u64 fields.
func (l *parentLog) record(kind byte, words ...uint64) {
	start := len(l.buf)
	l.buf = append(l.buf, 0, 0, 0, 0, 0, 0, 0, 0, kind)
	for _, w := range words {
		l.buf = binary.LittleEndian.AppendUint64(l.buf, w)
	}
	payload := l.buf[start+frameLen:]
	binary.LittleEndian.PutUint32(l.buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(l.buf[start+4:], crc32.Checksum(payload, crcTable))
}

func (l *parentLog) Added(id int, t float64) {
	l.record(kindAdd, uint64(id), math.Float64bits(t))
}
func (l *parentLog) Updated(id int, t float64) {
	l.record(kindUpdate, uint64(id), math.Float64bits(t))
}
func (l *parentLog) Removed(id int)               { l.record(kindRemove, uint64(id)) }
func (l *parentLog) RateChanged(rate float64)     { l.record(kindRate, math.Float64bits(rate)) }
func (l *parentLog) Published(*registry.Snapshot) {}
func (l *parentLog) Sealed(ev registry.SealEvent) { l.sealed(ev.Epoch, ev.Rate, ev.Correction) }

// sealed appends a plain seal record, or a corrected one inlining the
// correction sorted by id.
func (l *parentLog) sealed(epoch uint64, rate float64, c *registry.Correction) {
	if c == nil || len(c.Drop)+len(c.Weights) == 0 {
		l.record(kindSeal, epoch, math.Float64bits(rate))
		return
	}
	var drops, wts []int
	for id := range c.Drop {
		drops = append(drops, id)
	}
	for id := range c.Weights {
		wts = append(wts, id)
	}
	sort.Ints(drops)
	sort.Ints(wts)
	words := []uint64{epoch, math.Float64bits(rate), uint64(len(drops)) | uint64(len(wts))<<32}
	for _, id := range drops {
		words = append(words, uint64(id))
	}
	for _, id := range wts {
		words = append(words, uint64(id), math.Float64bits(c.Weights[id]))
	}
	l.record(kindSealC, words...)
}

// parentHistory journals a seeded history of adds, rebids, leaves,
// rate changes and plain and corrected seals in the LBWAL001 format,
// and returns the segment image and the last sealed epoch.
func parentHistory(t *testing.T, seed uint64) ([]byte, sealRec) {
	t.Helper()
	l := newParentLog()
	r, err := registry.New(registry.Config{Rate: 30, Shards: 4, Journal: l})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, 17))
	var live []int
	for i := 0; i < 400; i++ {
		switch p := rng.IntN(20); {
		case p < 7 || len(live) < 4:
			id, err := r.Add(0.1 + 10*rng.Float64())
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		case p < 13:
			if err := r.Update(live[rng.IntN(len(live))], 0.1+10*rng.Float64()); err != nil {
				t.Fatal(err)
			}
		case p < 16:
			j := rng.IntN(len(live))
			if err := r.Remove(live[j]); err != nil {
				t.Fatal(err)
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		case p < 17:
			if err := r.SetRate(1 + 50*rng.Float64()); err != nil {
				t.Fatal(err)
			}
		case p < 19:
			r.Seal()
		default:
			if _, err := r.SealCorrected(randCorrection(rng, live)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return l.buf, recordSnap(r.Seal())
}

// TestParentFormatLogRecovers: a log written in the LBWAL001 format
// recovers bitwise at every shard count, clean and with a torn tail;
// Open truncates the tear, leaves the old segment as the clean log
// was, and appends to a new LBWAL002 segment, after which the whole
// directory still recovers bitwise.
func TestParentFormatLogRecovers(t *testing.T) {
	for _, torn := range []bool{false, true} {
		t.Run(fmt.Sprintf("torn=%v", torn), func(t *testing.T) {
			seg, final := parentHistory(t, 5)
			dir := t.TempDir()
			path := filepath.Join(dir, segName(1))
			onDisk := seg
			if torn {
				onDisk = append(append([]byte(nil), seg...), 25, 0, 0, 0, 1, 2, 3, 4, kindAdd, 9)
			}
			if err := os.WriteFile(path, onDisk, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 4, 32} {
				r, info, err := Recover(dir, registry.Config{Rate: 1, Shards: shards})
				if err != nil {
					t.Fatalf("recover at %d shards: %v", shards, err)
				}
				if info.TornTail != torn {
					t.Fatalf("TornTail = %v, want %v", info.TornTail, torn)
				}
				compareSnap(t, r.Snapshot(), final)
			}

			r, w, _, err := Open(dir, Options{Sync: SyncNone}, registry.Config{Rate: 1, Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			compareSnap(t, r.Snapshot(), final)
			for i := 0; i < 5; i++ {
				if _, err := r.Add(float64(i + 1)); err != nil {
					t.Fatal(err)
				}
			}
			post := recordSnap(r.Seal())
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, seg) {
				t.Fatalf("LBWAL001 segment changed by Open and append (%d bytes, want %d; err %v)", len(got), len(seg), err)
			}
			next, err := os.ReadFile(filepath.Join(dir, segName(2)))
			if err != nil {
				t.Fatalf("appends did not land in a new segment: %v", err)
			}
			if string(next[:8]) != "LBWAL002" {
				t.Fatalf("new segment magic %q, want LBWAL002", next[:8])
			}
			r2, _, err := Recover(dir, registry.Config{Rate: 1, Shards: 8})
			if err != nil {
				t.Fatal(err)
			}
			compareSnap(t, r2.Snapshot(), post)
		})
	}
}

// badRecord frames payload as a record whose checksum holds.
func badRecord(payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, crcTable))
	return append(b, payload...)
}

// TestUndecodableRecordIsCorruption: a CRC-valid record that does not
// decode cannot be a torn write, so Open and Recover refuse the log
// with an error naming the segment, the offset and the kind, and the
// segment stays byte-identical — whether the record is the last one or
// is followed by valid records, in the final segment or an earlier
// one. The cases are an unknown kind, a run cut mid-entry and a run
// holding an entry of an unknown kind.
func TestUndecodableRecordIsCorruption(t *testing.T) {
	add := []byte{kindAdd, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f}
	for _, bad := range []struct {
		name    string
		payload []byte
	}{
		{"unknown-kind", append([]byte{9}, make([]byte, 16)...)},
		{"run-cut-mid-entry", append(append([]byte{kindRun}, add...), add[:12]...)},
		{"run-unknown-entry", append(append([]byte{kindRun}, add...), append([]byte{9}, add[1:]...)...)},
	} {
		for _, where := range []string{"tail", "mid-log", "earlier-segment"} {
			t.Run(bad.name+"/"+where, func(t *testing.T) {
				dir := t.TempDir()
				w, err := Create(dir, Options{Sync: SyncNone})
				if err != nil {
					t.Fatal(err)
				}
				r, err := registry.New(registry.Config{Rate: 10, Shards: 2, Journal: w})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := r.Add(2); err != nil {
					t.Fatal(err)
				}
				r.Seal()
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(dir, segName(1))
				seg, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				off := len(seg)
				seg = append(seg, badRecord(bad.payload)...)
				if where != "tail" {
					// A valid one-entry run after the bad record.
					seg = append(seg, badRecord(append([]byte{kindRun}, add...))...)
				}
				if err := os.WriteFile(path, seg, 0o644); err != nil {
					t.Fatal(err)
				}
				if where == "earlier-segment" {
					next := binary.LittleEndian.AppendUint64([]byte(segMagic), 2)
					if err := os.WriteFile(filepath.Join(dir, segName(2)), next, 0o644); err != nil {
						t.Fatal(err)
					}
				}

				_, _, _, err = Open(dir, Options{Sync: SyncNone}, registry.Config{Rate: 10, Shards: 2})
				if err == nil {
					t.Fatal("Open accepted a CRC-valid record that does not decode")
				}
				for _, want := range []string{segName(1), fmt.Sprintf("offset %d", off), fmt.Sprintf("kind %d", bad.payload[0])} {
					if !strings.Contains(err.Error(), want) {
						t.Fatalf("error %q does not name %q", err, want)
					}
				}
				if _, _, err := Recover(dir, registry.Config{Rate: 10, Shards: 2}); err == nil {
					t.Fatal("Recover accepted a CRC-valid record that does not decode")
				}
				if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, seg) {
					t.Fatalf("segment changed by a refused recovery (%d bytes, want %d; err %v)", len(got), len(seg), err)
				}
			})
		}
	}
}
