package wal

// Tests for the on-disk formats across versions and for the line
// between a torn tail and corruption: logs in the run-less LBWAL001
// format, and in the LBWAL002 format (fixed-width run entries) with
// LBSNAP01 sidecars, recover bitwise and are continued in a fresh
// LBWAL003 segment; and a record whose checksum holds but which does
// not decode — an unknown kind, a run cut mid-entry, holding an entry
// of another kind or an id varint that is cut short, overflows, is not
// minimal or names an id above maxReplayID — is an error that leaves
// the log untouched, wherever it sits. So is an add whose id reaches
// past what the log backs (replaySlack).

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/registry"
)

// crcTable and frameLen restate the frame format for the records and
// sidecars these tests build by hand, so those check the shared codec
// rather than reuse it.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

const frameLen = 8

// parentLog journals a registry in one of the two formats before
// LBWAL003, with test-only copies of the encoders that wrote them, kept
// so that logs written that way stay pinned as recoverable. In LBWAL001
// every mutation, rate change and seal is a standalone record. In
// LBWAL002 consecutive mutations share a run record whose entries carry
// u64 ids, closed before any rate or seal record and at runCap payload
// bytes, and every seal captures a sidecar that Published streams in
// the LBSNAP01 format.
type parentLog struct {
	buf       []byte
	runs      bool              // LBWAL002
	run       int               // offset in buf of the open run, -1 when none
	pending   *pendingSnap      // LBWAL002: the last seal's capture
	sidecars  map[uint64][]byte // LBWAL002: LBSNAP01 file by epoch
	corrected []uint64          // LBWAL002: epochs sealed with a correction
}

func newParentLog(magic string) *parentLog {
	return &parentLog{
		buf:      binary.LittleEndian.AppendUint64([]byte(magic), 1),
		runs:     magic == segMagicV2,
		run:      -1,
		sidecars: map[uint64][]byte{},
	}
}

// record appends one framed record of the given kind and u64 fields,
// closing the open run first.
func (l *parentLog) record(kind byte, words ...uint64) {
	l.closeRun()
	start := len(l.buf)
	l.buf = append(l.buf, 0, 0, 0, 0, 0, 0, 0, 0, kind)
	for _, w := range words {
		l.buf = binary.LittleEndian.AppendUint64(l.buf, w)
	}
	l.frame(start)
}

// frame fills the frame header of the record starting at start.
func (l *parentLog) frame(start int) {
	payload := l.buf[start+frameLen:]
	binary.LittleEndian.PutUint32(l.buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(l.buf[start+4:], crc32.Checksum(payload, crcTable))
}

// mutation appends a mutation: a standalone record in LBWAL001, an
// entry of the open run in LBWAL002.
func (l *parentLog) mutation(kind byte, words ...uint64) {
	if !l.runs {
		l.record(kind, words...)
		return
	}
	size := 1 + 8*len(words)
	if l.run >= 0 && len(l.buf)-l.run-frameLen+size > runCap {
		l.closeRun()
	}
	if l.run < 0 {
		l.run = len(l.buf)
		l.buf = append(l.buf, 0, 0, 0, 0, 0, 0, 0, 0, kindRun)
	}
	l.buf = append(l.buf, kind)
	for _, w := range words {
		l.buf = binary.LittleEndian.AppendUint64(l.buf, w)
	}
}

func (l *parentLog) closeRun() {
	if l.run >= 0 {
		l.frame(l.run)
		l.run = -1
	}
}

func (l *parentLog) Added(id int, t float64) {
	l.mutation(kindAdd, uint64(id), math.Float64bits(t))
}
func (l *parentLog) Updated(id int, t float64) {
	l.mutation(kindUpdate, uint64(id), math.Float64bits(t))
}
func (l *parentLog) Removed(id int)           { l.mutation(kindRemove, uint64(id)) }
func (l *parentLog) RateChanged(rate float64) { l.record(kindRate, math.Float64bits(rate)) }

func (l *parentLog) Sealed(ev registry.SealEvent) {
	drops, wts := l.sealed(ev.Epoch, ev.Rate, ev.Correction)
	if l.runs {
		l.pending = &pendingSnap{
			epoch: ev.Epoch, next: ev.Next, live: ev.Live, seg: 1, off: int64(len(l.buf)),
			drops: drops, wts: wts, pre: preCorrection(ev.T, drops, wts),
		}
		if len(drops)+len(wts) > 0 {
			l.corrected = append(l.corrected, ev.Epoch)
		}
	}
}

func (l *parentLog) Published(snap *registry.Snapshot) {
	if p := l.pending; p != nil && p.epoch == snap.Epoch() {
		p.snap = snap
		var b bytes.Buffer
		if err := streamSnapshotV1(&b, p); err != nil {
			panic(err)
		}
		l.sidecars[p.epoch] = b.Bytes()
		l.pending = nil
	}
}

// sealed appends a plain seal record, or a corrected one inlining the
// correction sorted by id, and returns the sorted correction.
func (l *parentLog) sealed(epoch uint64, rate float64, c *registry.Correction) ([]uint64, []weightEntry) {
	if c == nil || len(c.Drop)+len(c.Weights) == 0 {
		l.record(kindSeal, epoch, math.Float64bits(rate))
		return nil, nil
	}
	var drops []uint64
	var wts []weightEntry
	for id := range c.Drop {
		drops = append(drops, uint64(id))
	}
	for id, w := range c.Weights {
		wts = append(wts, weightEntry{id: uint64(id), w: w})
	}
	sort.Slice(drops, func(i, j int) bool { return int64(drops[i]) < int64(drops[j]) })
	sort.Slice(wts, func(i, j int) bool { return int64(wts[i].id) < int64(wts[j].id) })
	words := []uint64{epoch, math.Float64bits(rate), uint64(len(drops)) | uint64(len(wts))<<32}
	for _, id := range drops {
		words = append(words, uint64(id))
	}
	for _, e := range wts {
		words = append(words, uint64(e.id), math.Float64bits(e.w))
	}
	l.record(kindSealC, words...)
	return drops, wts
}

// streamSnapshotV1 is a test-only copy of the streamer that wrote
// LBSNAP01 sidecars: the header, drops and weights as in LBSNAP02,
// then a (u64 id, f64 bid) pair per live agent in ascending id order.
func streamSnapshotV1(w io.Writer, p *pendingSnap) error {
	if _, err := io.WriteString(w, snapMagicV1); err != nil {
		return err
	}
	sw := &snapWriter{w: w, buf: make([]byte, 0, snapBufBytes)}
	sw.u64(p.epoch)
	sw.u64(uint64(p.next))
	sw.u64(p.seg)
	sw.u64(uint64(p.off))
	sw.u64(math.Float64bits(p.snap.Rate()))
	sw.u64(math.Float64bits(p.snap.Sum()))
	sw.u64(uint64(len(p.drops)) | uint64(len(p.wts))<<32)
	sw.u64(uint64(p.live))
	for _, id := range p.drops {
		sw.u64(uint64(id))
	}
	for _, e := range p.wts {
		sw.u64(uint64(e.id))
		sw.u64(math.Float64bits(e.w))
	}
	live, k := 0, 0
	for id := 0; id < p.next; id++ {
		t, ok := p.snap.Value(id)
		if k < len(p.pre) && p.pre[k].id == id {
			t, ok = p.pre[k].t, true
			k++
		}
		if ok {
			sw.u64(uint64(id))
			sw.u64(math.Float64bits(t))
			live++
		}
	}
	sw.flush()
	if sw.err != nil {
		return sw.err
	}
	if live != p.live {
		return fmt.Errorf("snapshot of epoch %d has %d live entries, its seal counted %d", p.epoch, live, p.live)
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(sw.buf[:0], sw.crc))
	return err
}

// parentHistory journals a seeded history of adds, rebids, leaves,
// rate changes and plain and corrected seals in an older format, and
// returns the log and the last sealed epoch.
func parentHistory(t testing.TB, seed uint64, magic string) (*parentLog, sealRec) {
	t.Helper()
	l := newParentLog(magic)
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
	// End on a corrected seal followed by adds, rebids and leaves, so
	// that a recovery from that epoch's sidecar replays mutations.
	if _, err := r.SealCorrected(randCorrection(rng, live)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := r.Add(0.1 + 10*rng.Float64()); err != nil {
			t.Fatal(err)
		}
		if err := r.Update(live[i%len(live)], 0.1+10*rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Remove(live[0]); err != nil {
		t.Fatal(err)
	}
	final := recordSnap(r.Seal())
	l.closeRun()
	return l, final
}

// checkParentLog writes seg as segment 1 of a fresh directory, with a
// torn record appended when torn is set, plus the given sidecar files
// (by epoch). The log must recover bitwise to final at every shard
// count, from the newest sidecar. Open must truncate the tear, leave
// segment 1 as the clean log was, and append to a new LBWAL003
// segment; the directory must then recover bitwise. When sidecars were
// given, Open's writer seals twice: its first sidecar is an LBSNAP02
// one and its second an LBSNAP03 delta on it, and once the LBSNAP02
// sidecar is removed, the directory must recover bitwise from the
// newest of the given ones.
func checkParentLog(t *testing.T, seg []byte, sidecars map[uint64][]byte, final sealRec, torn bool) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, segName(1))
	onDisk := seg
	if torn {
		onDisk = append(append([]byte(nil), seg...), 25, 0, 0, 0, 1, 2, 3, 4, kindAdd, 9)
	}
	if err := os.WriteFile(path, onDisk, 0o644); err != nil {
		t.Fatal(err)
	}
	newest := uint64(0)
	for epoch, b := range sidecars {
		if err := os.WriteFile(filepath.Join(dir, snapName(epoch)), b, 0o644); err != nil {
			t.Fatal(err)
		}
		newest = max(newest, epoch)
	}
	for _, shards := range []int{1, 4, 32} {
		r, info, err := Recover(dir, registry.Config{Rate: 1, Shards: shards})
		if err != nil {
			t.Fatalf("recover at %d shards: %v", shards, err)
		}
		if info.TornTail != torn || info.SnapshotEpoch != newest {
			t.Fatalf("TornTail = %v from snapshot %d, want %v from %d", info.TornTail, info.SnapshotEpoch, torn, newest)
		}
		compareSnap(t, r.Snapshot(), final)
	}

	// With sidecars, two new snapshots land after Open: compaction then
	// keeps segment 1, the replay position of the sidecar recovery
	// started from.
	opts := Options{Sync: SyncNone}
	if len(sidecars) > 0 {
		opts.SnapshotEvery = 1
	}
	r, w, _, err := Open(dir, opts, registry.Config{Rate: 1, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	compareSnap(t, r.Snapshot(), final)
	var seals []sealRec
	for i := 0; i < 5; i++ {
		if _, err := r.Add(float64(i + 1)); err != nil {
			t.Fatal(err)
		}
		if i == 2 || i == 4 {
			seals = append(seals, recordSnap(r.Seal()))
			// Let the compactor take the capture before the next seal,
			// so that it is not dropped.
			for len(w.snapCh) > 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}
	post := seals[1]
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, seg) {
		t.Fatalf("%s segment changed by Open and append (%d bytes, want %d; err %v)", seg[:8], len(got), len(seg), err)
	}
	next, err := os.ReadFile(filepath.Join(dir, segName(2)))
	if err != nil {
		t.Fatalf("appends did not land in a new segment: %v", err)
	}
	if string(next[:8]) != segMagic {
		t.Fatalf("new segment magic %q, want %s", next[:8], segMagic)
	}
	r2, _, err := Recover(dir, registry.Config{Rate: 1, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	compareSnap(t, r2.Snapshot(), post)
	if len(sidecars) == 0 {
		return
	}

	snap := filepath.Join(dir, snapName(seals[0].epoch))
	if b, err := os.ReadFile(snap); err != nil || string(b[:8]) != snapMagic {
		t.Fatalf("the first snapshot written after Open is not an %s one (err %v)", snapMagic, err)
	}
	if sd, err := readSnapshot(filepath.Join(dir, snapName(post.epoch))); err != nil || sd.delta == nil || sd.delta.base != seals[0].epoch {
		t.Fatalf("the second snapshot written after Open is not a delta on the first (err %v)", err)
	}
	if err := os.Remove(snap); err != nil {
		t.Fatal(err)
	}
	r3, info, err := Recover(dir, registry.Config{Rate: 1, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotEpoch != newest {
		t.Fatalf("recovered from snapshot %d, want the %s one of epoch %d", info.SnapshotEpoch, snapMagicV1, newest)
	}
	compareSnap(t, r3.Snapshot(), post)
}

// TestParentFormatLogRecovers: a log written in the LBWAL001 format
// recovers bitwise at every shard count, clean and with a torn tail;
// Open truncates the tear, leaves the old segment as the clean log
// was, and appends to a new LBWAL003 segment, after which the whole
// directory still recovers bitwise.
func TestParentFormatLogRecovers(t *testing.T) {
	for _, torn := range []bool{false, true} {
		t.Run(fmt.Sprintf("torn=%v", torn), func(t *testing.T) {
			l, final := parentHistory(t, 5, segMagicV1)
			checkParentLog(t, l.buf, nil, final, torn)
		})
	}
}

// TestV2FormatLogRecovers is TestParentFormatLogRecovers for a log in
// the LBWAL002 format with LBSNAP01 sidecars — the newest corrected
// epoch's and the one before it — so recovery decodes a pre-correction
// population and replays a tail of fixed-width run entries. After
// Open, the LBSNAP02 sidecar it writes recovers the directory, and
// without that file the LBSNAP01 one does, replaying the LBWAL002 and
// LBWAL003 segments in turn.
func TestV2FormatLogRecovers(t *testing.T) {
	for _, torn := range []bool{false, true} {
		t.Run(fmt.Sprintf("torn=%v", torn), func(t *testing.T) {
			l, final := parentHistory(t, 5, segMagicV2)
			if len(l.corrected) == 0 {
				t.Fatal("the history sealed no corrected epoch")
			}
			newest := l.corrected[len(l.corrected)-1]
			checkParentLog(t, l.buf, map[uint64][]byte{
				newest - 1: l.sidecars[newest-1],
				newest:     l.sidecars[newest],
			}, final, torn)
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
// one. The cases are an unknown kind, a run cut mid-entry, a run
// holding an entry of an unknown kind, and runs whose last entry's id
// varint is cut short, longer than needed, overflows 64 bits or names
// an id above maxReplayID; the error also says which.
func TestUndecodableRecordIsCorruption(t *testing.T) {
	add := []byte{kindAdd, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f} // id 0, bid 1
	run := func(tail ...byte) []byte { return append(append([]byte{kindRun}, add...), tail...) }
	for _, bad := range []struct {
		name    string
		payload []byte
		why     string
	}{
		{"unknown-kind", append([]byte{9}, make([]byte, 16)...), "unknown record kind"},
		{"run-cut-mid-entry", run(add[:6]...), "cut short"},
		{"run-unknown-entry", run(append([]byte{9}, add[1:]...)...), "has kind 9"},
		{"run-id-cut-short", run(kindRemove, 0x80), "id is cut short"},
		{"run-id-overlong", run(kindRemove, 0x81, 0x00), "not minimally encoded"},
		{"run-id-overflow", run(kindRemove, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f), "overflows"},
		{"run-id-above-max", run(binary.AppendUvarint([]byte{kindRemove}, maxReplayID+1)...), "implausible agent id"},
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
				for _, want := range []string{segName(1), fmt.Sprintf("offset %d", off), fmt.Sprintf("kind %d", bad.payload[0]), bad.why} {
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

// forgedAddSegment is a one-record LBWAL003 segment whose CRC-valid run
// holds one add, of agent id 2^40−2 at bid 1: below maxReplayID, so it
// decodes, but backed by nothing. The same bytes are a committed
// FuzzRecoverSegment seed (testdata/fuzz/FuzzRecoverSegment/seed-07).
func forgedAddSegment() []byte {
	entry := binary.AppendUvarint([]byte{kindRun, kindAdd}, maxReplayID-2)
	entry = binary.LittleEndian.AppendUint64(entry, math.Float64bits(1))
	seg := binary.LittleEndian.AppendUint64([]byte(segMagic), 1)
	return append(seg, badRecord(entry)...)
}

// TestReplayRefusesWideIDs: a CRC-valid rebid or leave of id 2^32+k,
// with agent k live, names an unknown agent on every word size, so
// recovery refuses it by that id and never applies it to agent k (an
// int conversion wraps it onto k on a 32-bit build).
func TestReplayRefusesWideIDs(t *testing.T) {
	const k = 2
	adds := []byte{kindRun}
	for id := uint64(0); id <= k; id++ {
		adds = binary.AppendUvarint(append(adds, kindAdd), id)
		adds = binary.LittleEndian.AppendUint64(adds, math.Float64bits(1+float64(id)))
	}
	for _, kind := range []byte{kindUpdate, kindRemove} {
		forged := binary.AppendUvarint([]byte{kindRun, kind}, 1<<32+k)
		if kind == kindUpdate {
			forged = binary.LittleEndian.AppendUint64(forged, math.Float64bits(9))
		}
		seg := binary.LittleEndian.AppendUint64([]byte(segMagic), 1)
		seg = append(append(seg, badRecord(adds)...), badRecord(forged)...)
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		r, _, err := Recover(dir, registry.Config{Rate: 1, Shards: 4})
		if err == nil {
			bid, live := r.Seal().Value(k)
			t.Fatalf("kind %d: Recover applied a mutation of id 2^32+%d (agent %d live %v, bid %g; want 3)", kind, k, k, live, bid)
		}
		if want := fmt.Sprint(uint64(1<<32 + k)); !strings.Contains(err.Error(), want) {
			t.Fatalf("kind %d: error %q does not name id %s", kind, err, want)
		}
	}
}

// TestWideCorrectionIDsNameNoAgent: a corrected seal's drop and weight
// ids are u64 on disk, and one above math.MaxInt names no agent on any
// word size (a 32-bit build used to wrap 2^32+k onto agent k). After
// adds of ids 0–2, a CRC-valid corrected seal that drops id 2^32+1 and
// weights id 2^63+2 by 0.5 recovers the three agents unchanged, from a
// log record and from a sidecar's correction alike; a weight outside
// (0, 1] under an id above math.MaxInt is still refused (a sidecar
// holding one is passed over).
func TestWideCorrectionIDsNameNoAgent(t *testing.T) {
	const wideDrop, wideWeight = 1<<32 + 1, 1<<63 + 2
	bids := []float64{1, 2, 3}
	ref, err := registry.New(registry.Config{Rate: 20, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	adds := []byte{kindRun}
	for id, b := range bids {
		adds = binary.AppendUvarint(append(adds, kindAdd), uint64(id))
		adds = binary.LittleEndian.AppendUint64(adds, math.Float64bits(b))
		if _, err := ref.Add(b); err != nil {
			t.Fatal(err)
		}
	}
	want := ref.Seal()
	check := func(t *testing.T, dir string, weight float64, sidecar bool) {
		t.Helper()
		r, info, err := Recover(dir, registry.Config{Rate: 1, Shards: 4})
		if weight > 1 {
			// The log refuses the record; recovery passes over the
			// sidecar, to the log behind it.
			if err == nil && (!sidecar || info.SnapshotEpoch != 0) {
				t.Fatalf("recovered a weight of %g under id 2^63+2", weight)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if sidecar && info.SnapshotEpoch != 1 {
			t.Fatalf("recovered from snapshot %d, want the sidecar of epoch 1", info.SnapshotEpoch)
		}
		got := r.Snapshot()
		if got.Epoch() != 1 || !slices.Equal(got.IDs(nil), []int{0, 1, 2}) || !slices.Equal(got.Bids(nil), bids) ||
			math.Float64bits(got.Sum()) != math.Float64bits(want.Sum()) {
			t.Fatalf("recovered epoch %d, ids %v, bids %v, S %v; want epoch 1, ids [0 1 2], bids %v, S %v",
				got.Epoch(), got.IDs(nil), got.Bids(nil), got.Sum(), bids, want.Sum())
		}
	}
	segHeader := binary.LittleEndian.AppendUint64([]byte(segMagic), 1)
	for _, weight := range []float64{0.5, 2} {
		t.Run(fmt.Sprintf("log/weight=%g", weight), func(t *testing.T) {
			seal := binary.LittleEndian.AppendUint64([]byte{kindSealC}, 1)
			seal = binary.LittleEndian.AppendUint64(seal, math.Float64bits(20))
			seal = binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(seal, 1), 1)
			seal = binary.LittleEndian.AppendUint64(seal, wideDrop)
			seal = binary.LittleEndian.AppendUint64(seal, wideWeight)
			seal = binary.LittleEndian.AppendUint64(seal, math.Float64bits(weight))
			seg := append(append(append([]byte(nil), segHeader...), badRecord(adds)...), badRecord(seal)...)
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
				t.Fatal(err)
			}
			check(t, dir, weight, false)
		})
		t.Run(fmt.Sprintf("sidecar/weight=%g", weight), func(t *testing.T) {
			sd := &snapData{
				epoch: 1, seg: 1, off: int64(len(segHeader)), rate: 20, s: want.Sum(),
				drops: []uint64{wideDrop}, wts: []weightEntry{{id: wideWeight, w: weight}}, t: bids,
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, segName(1)), segHeader, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, snapName(1)), encodeSnapshot(sd, false), 0o644); err != nil {
				t.Fatal(err)
			}
			check(t, dir, weight, true)
		})
	}
}

// TestReplayBoundsAddIDs: an add may raise the id counter only to the
// snapshot's counter plus the adds replayed so far plus replaySlack.
// The forged segment is refused by Recover and Open, naming the
// segment, the offset and the reason, without allocating by its id
// and without touching the file; the committed fuzz seed holds the
// same bytes. A real log whose ids skip exactly replaySlack ids that
// were issued but never journaled recovers bitwise, from the log alone
// and from a snapshot before the gap; one more skipped id is refused.
func TestReplayBoundsAddIDs(t *testing.T) {
	t.Run("forged", func(t *testing.T) {
		seg := forgedAddSegment()
		seed, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzRecoverSegment", "seed-07"))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seg); string(seed) != want {
			t.Fatalf("fuzz seed-07 is not the forged segment:\n%s\nwant\n%s", seed, want)
		}
		dir := t.TempDir()
		path := filepath.Join(dir, segName(1))
		if err := os.WriteFile(path, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err = Recover(dir, registry.Config{Rate: 1, Shards: 4})
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("Recover accepted an add of id 2^40-2 from a one-record log")
		}
		// Loose enough for the race detector's allocator; the id alone
		// would ask for terabytes.
		if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
			t.Fatalf("refusing the forged log allocated %d bytes", got)
		}
		_, _, _, err2 := Open(dir, Options{Sync: SyncNone}, registry.Config{Rate: 1, Shards: 4})
		if err2 == nil {
			t.Fatal("Open accepted an add of id 2^40-2 from a one-record log")
		}
		for _, err := range []error{err, err2} {
			for _, want := range []string{segName(1), fmt.Sprintf("offset %d", segHeaderLen), "beyond what the log backs"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not name %q", err, want)
				}
			}
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, seg) {
			t.Fatalf("segment changed by a refused recovery (%d bytes, want %d; err %v)", len(got), len(seg), err)
		}
	})

	// gapLog journals 3 adds, a seal whose sidecar it writes when snap
	// is set, then skips gap ids (issued, never journaled, as when a
	// crash loses the adds of batches in flight), then journals 2 adds,
	// a rebid and a leave, and seals without a sidecar. It returns the
	// final seal.
	gapLog := func(t *testing.T, dir string, gap int, snap bool) sealRec {
		opts := Options{Sync: SyncNone}
		if snap {
			opts.SnapshotEvery = 1
		}
		w := createManual(t, dir, opts)
		r, err := registry.New(registry.Config{Rate: 7, Shards: 4, Journal: w})
		if err != nil {
			t.Fatal(err)
		}
		settle(w)
		for _, v := range []float64{1, 2, 3} {
			if _, err := r.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		r.Seal()
		settle(w)
		r.RestoreNext(3 + gap)
		var ids []int
		for _, v := range []float64{4, 5} {
			id, err := r.Add(v)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		if ids[0] != 3+gap {
			t.Fatalf("first add after the gap got id %d, want %d", ids[0], 3+gap)
		}
		if err := r.Update(ids[0], 6); err != nil {
			t.Fatal(err)
		}
		if err := r.Remove(1); err != nil {
			t.Fatal(err)
		}
		final := recordSnap(r.Seal())
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return final
	}
	for _, snap := range []bool{false, true} {
		name := "log-only"
		if snap {
			name = "from-snapshot"
		}
		t.Run(name+"/gap=slack", func(t *testing.T) {
			dir := t.TempDir()
			final := gapLog(t, dir, replaySlack, snap)
			r, info, err := Recover(dir, registry.Config{Rate: 1, Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			if want := map[bool]uint64{false: 0, true: 2}[snap]; info.SnapshotEpoch != want {
				t.Fatalf("recovery started from snapshot epoch %d, want %d", info.SnapshotEpoch, want)
			}
			compareSnap(t, r.Snapshot(), final)
			// The id counter is restored too: the next add continues
			// after the last journaled id.
			if id, err := r.Add(1); err != nil || id != 3+replaySlack+2 {
				t.Fatalf("add after recovery: id %d (err %v), want %d", id, err, 3+replaySlack+2)
			}
		})
		t.Run(name+"/gap=slack+1", func(t *testing.T) {
			dir := t.TempDir()
			gapLog(t, dir, replaySlack+1, snap)
			_, _, err := Recover(dir, registry.Config{Rate: 1, Shards: 4})
			if err == nil || !strings.Contains(err.Error(), "beyond what the log backs") {
				t.Fatalf("Recover of a log skipping replaySlack+1 ids: err %v, want a refusal", err)
			}
		})
	}
}
