package wal

// Go-fuzz harnesses for the two decoders recovery runs on what it
// finds on disk. FuzzRecoverSegment writes arbitrary bytes as the
// single segment of a log and recovers it: recovery may refuse
// (corruption) or succeed on a durable prefix; it must never panic,
// hang, or allocate absurdly. Its committed corpus under
// testdata/fuzz/FuzzRecoverSegment and the seeds below pin the
// interesting shapes: real logs in the LBWAL001 format (standalone
// mutation records), the LBWAL002 format (fixed-width run entries) and
// the LBWAL003 format (uvarint ids), a truncated one, a bit-flipped
// one, degenerate headers, and CRC-valid LBWAL003 runs whose id varint
// is cut short, overlong or above maxReplayID. FuzzDecodeSnapshot
// frames arbitrary sidecar bodies, after any of the three magics, with
// a valid CRC so that every input reaches the body decoder: decoding
// must succeed or refuse, never panic, and what it accepts must
// re-encode to the same bytes. Its committed corpus under
// testdata/fuzz/FuzzDecodeSnapshot holds real plain and corrected
// LBSNAP03 deltas (TestDeltaFuzzSeedsCommitted keeps them current).

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/registry"
)

// fuzzSeedLog builds a small real log and returns its segment bytes.
func fuzzSeedLog(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	w, err := Create(dir, Options{Sync: SyncNone})
	if err != nil {
		tb.Fatal(err)
	}
	r, err := registry.New(registry.Config{Rate: 5, Shards: 2, Journal: w})
	if err != nil {
		tb.Fatal(err)
	}
	ids := make([]int, 0, 6)
	for i := 0; i < 6; i++ {
		id, err := r.Add(float64(i + 1))
		if err != nil {
			tb.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := r.Update(ids[1], 2.5); err != nil {
		tb.Fatal(err)
	}
	if err := r.Remove(ids[2]); err != nil {
		tb.Fatal(err)
	}
	if err := r.SetRate(9); err != nil {
		tb.Fatal(err)
	}
	r.Seal()
	if _, err := r.SealCorrected(&registry.Correction{
		Drop:    map[int]bool{ids[0]: true},
		Weights: map[int]float64{ids[3]: 0.5},
	}); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func FuzzRecoverSegment(f *testing.F) {
	seed := fuzzSeedLog(f)
	f.Add(seed)
	f.Add(seed[:len(seed)-7]) // torn tail
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add(seed[:segHeaderLen]) // header only
	f.Add([]byte{})
	f.Add([]byte("LBWAL001garbage"))
	f.Add([]byte("LBWAL002garbage"))
	f.Add([]byte("LBWAL003garbage"))
	v2, _ := parentHistory(f, 7, segMagicV2)
	f.Add(v2.buf)
	for _, entry := range [][]byte{
		{kindRemove, 0x80},       // id varint cut short
		{kindRemove, 0x81, 0x00}, // overlong: id 1 in two bytes
		binary.AppendUvarint([]byte{kindRemove}, maxReplayID+1),
	} {
		seg := binary.LittleEndian.AppendUint64([]byte(segMagic), 1)
		f.Add(append(seg, badRecord(append([]byte{kindRun}, entry...))...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, info, err := Recover(dir, registry.Config{Rate: 1, Shards: 4})
		if err != nil {
			return // refusing damaged input is a valid outcome
		}
		if r == nil || info == nil {
			t.Fatalf("nil registry or info without error")
		}
		// Whatever was recovered must be internally consistent: the
		// published snapshot reseal-stable and the id space sane.
		snap := r.Snapshot()
		if snap == nil {
			t.Fatalf("recovered registry has no sealed snapshot")
		}
		if got := r.Seal(); got.N() != r.Live() {
			t.Fatalf("reseal live count %d != registry live %d", got.N(), r.Live())
		}
	})
}

// fuzzSeedSidecars returns real sidecars of a plain and a corrected
// epoch, each in the LBSNAP02 and the LBSNAP01 format and as an
// LBSNAP03 delta on the epoch before it, whose bitmap marks a rebid,
// a leave and an add.
func fuzzSeedSidecars(tb testing.TB) [][]byte {
	tb.Helper()
	w := createManual(tb, tb.TempDir(), Options{Sync: SyncNone, SnapshotEvery: 1})
	defer w.Close()
	r, err := registry.New(registry.Config{Rate: 20, Shards: 2})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := r.Add(1 + float64(i)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := r.Remove(3); err != nil {
		tb.Fatal(err)
	}
	r.AttachJournal(w)
	delta := func(w io.Writer, p *pendingSnap) error { return streamSidecar(w, p, p.epoch-1) }
	var files [][]byte
	for i, c := range []*registry.Correction{nil, {Drop: map[int]bool{1: true}, Weights: map[int]float64{2: 0.5, 3: 0.5}}} {
		if err := r.Update(5, 2.5+float64(i)); err != nil {
			tb.Fatal(err)
		}
		if err := r.Remove(7 + i); err != nil {
			tb.Fatal(err)
		}
		if _, err := r.Add(0.75); err != nil {
			tb.Fatal(err)
		}
		if _, err := r.SealCorrected(c); err != nil {
			tb.Fatal(err)
		}
		p := <-w.snapCh
		for _, stream := range []func(io.Writer, *pendingSnap) error{streamSnapshot, streamSnapshotV1, delta} {
			var b bytes.Buffer
			if err := stream(&b, p); err != nil {
				tb.Fatal(err)
			}
			files = append(files, b.Bytes())
		}
	}
	return files
}

// snapMagics are the sidecar magics FuzzDecodeSnapshot frames bodies
// after, indexed by its format argument modulo their count.
var snapMagics = []string{snapMagicV1, snapMagic, snapMagicDelta}

func FuzzDecodeSnapshot(f *testing.F) {
	for _, file := range fuzzSeedSidecars(f) {
		if _, err := decodeSnapshot(file); err != nil {
			f.Fatalf("a real %s sidecar does not decode: %v", file[:8], err)
		}
		f.Add(byte(slices.Index(snapMagics, string(file[:8]))), file[8:len(file)-4])
	}
	for i := range snapMagics {
		f.Add(byte(i), []byte{})
	}

	f.Fuzz(func(t *testing.T, format byte, body []byte) {
		magic := snapMagics[int(format)%len(snapMagics)]
		file := append([]byte(magic), body...)
		file = binary.LittleEndian.AppendUint32(file, crc32.Checksum(body, crcTable))
		sd, err := decodeSnapshot(file)
		if err != nil {
			return // refusing is a valid outcome
		}
		if got := encodeSnapshot(sd, magic == snapMagicV1); !bytes.Equal(got, file) {
			t.Fatalf("decoded sidecar re-encodes to %d bytes that differ from its %d", len(got), len(file))
		}
	})
}

// TestDeltaFuzzSeedsCommitted: the committed FuzzDecodeSnapshot seeds
// delta-plain and delta-corrected hold exactly the LBSNAP03 deltas
// fuzzSeedSidecars streams today, so the fuzzer starts from real
// deltas even with the in-test seeds gone.
func TestDeltaFuzzSeedsCommitted(t *testing.T) {
	var deltas [][]byte
	for _, file := range fuzzSeedSidecars(t) {
		if string(file[:8]) == snapMagicDelta {
			deltas = append(deltas, file)
		}
	}
	for i, name := range []string{"delta-plain", "delta-corrected"} {
		seed, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodeSnapshot", name))
		if err != nil {
			t.Fatal(err)
		}
		body := deltas[i][8 : len(deltas[i])-4]
		if want := fmt.Sprintf("go test fuzz v1\nbyte(%q)\n[]byte(%q)\n", byte(2), body); string(seed) != want {
			t.Fatalf("fuzz seed %s is not the real %s delta:\n%s\nwant\n%s", name, name[6:], seed, want)
		}
	}
}
