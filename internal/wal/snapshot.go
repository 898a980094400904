package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
)

// snapData is a decoded snapshot sidecar: the uncorrected live
// population of one sealed epoch, the correction it was sealed with,
// the canonical S of that epoch (a recovery self-check), and the log
// position just after the covering seal record.
type snapData struct {
	epoch uint64
	next  int
	seg   uint64
	off   int64
	rate  float64
	s     float64
	drops []int
	wts   []weightEntry
	ids   []int
	ts    []float64
}

// snapBufBytes is the compactor's write buffer: the largest piece of
// a snapshot file held in memory at once.
const snapBufBytes = 64 << 10

// streamSnapshot writes a captured snapshot to w in the sidecar
// format:
//
//	magic(8) | epoch u64 | next u64 | seg u64 | off u64 | rate f64 |
//	s f64 | nDrop u32 | nWeight u32 | nLive u64 | drops… | weights… |
//	(id u64, t f64)… | CRC32C u32
//
// little-endian throughout; the CRC covers everything after the magic.
// The entries are the uncorrected live population in ascending id
// order: each id below p.next is read in place from the published
// epoch, except that the correction's live ids take their
// pre-correction bids from p.pre. The body goes through a
// snapBufBytes buffer whose flushes fold into the running CRC, so the
// file is never materialized; nLive comes from the seal's live count,
// and a population that disagrees with it is an error.
func streamSnapshot(w io.Writer, p *pendingSnap) error {
	if _, err := io.WriteString(w, snapMagic); err != nil {
		return err
	}
	sw := &snapWriter{w: w, buf: make([]byte, 0, snapBufBytes)}
	sw.u64(p.epoch)
	sw.u64(uint64(p.next))
	sw.u64(p.seg)
	sw.u64(uint64(p.off))
	sw.u64(math.Float64bits(p.snap.Rate()))
	sw.u64(math.Float64bits(p.snap.Sum()))
	sw.u64(uint64(len(p.drops)) | uint64(len(p.wts))<<32) // nDrop u32 | nWeight u32
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

// snapWriter is the snapshot body's buffered writer: it collects
// little-endian words and, whenever the buffer fills, folds it into
// the running CRC32C and writes it out. The first write error sticks.
type snapWriter struct {
	w   io.Writer
	buf []byte
	crc uint32
	err error
}

// u64 appends one little-endian word.
func (s *snapWriter) u64(v uint64) {
	s.buf = binary.LittleEndian.AppendUint64(s.buf, v)
	if len(s.buf) == cap(s.buf) {
		s.flush()
	}
}

// flush writes out the buffered bytes.
func (s *snapWriter) flush() {
	if s.err == nil && len(s.buf) > 0 {
		s.crc = crc32.Update(s.crc, crcTable, s.buf)
		_, s.err = s.w.Write(s.buf)
	}
	s.buf = s.buf[:0]
}

// preCorrection returns the bids in t of the correction's ids that are
// live there, in ascending id order: with the published (corrected)
// epoch, all a snapshot needs to restore the uncorrected population.
// An id both dropped and weighted appears once.
func preCorrection(t []float64, drops []int, wts []weightEntry) []bidEntry {
	ids := append([]int(nil), drops...)
	for _, e := range wts {
		ids = append(ids, e.id)
	}
	slices.Sort(ids)
	var pre []bidEntry
	for _, id := range slices.Compact(ids) {
		if id >= 0 && id < len(t) && t[id] != 0 {
			pre = append(pre, bidEntry{id: id, t: t[id]})
		}
	}
	return pre
}

// decodeSnapshot parses and verifies a snapshot sidecar.
func decodeSnapshot(b []byte) (*snapData, error) {
	if len(b) < 8+48+16+4 {
		return nil, fmt.Errorf("wal: snapshot too short (%d bytes)", len(b))
	}
	if string(b[:8]) != snapMagic {
		return nil, fmt.Errorf("wal: bad snapshot magic")
	}
	body, tail := b[8:len(b)-4], b[len(b)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("wal: snapshot checksum mismatch")
	}
	sd := &snapData{
		epoch: binary.LittleEndian.Uint64(body),
		next:  int(binary.LittleEndian.Uint64(body[8:])),
		seg:   binary.LittleEndian.Uint64(body[16:]),
		off:   int64(binary.LittleEndian.Uint64(body[24:])),
		rate:  math.Float64frombits(binary.LittleEndian.Uint64(body[32:])),
		s:     math.Float64frombits(binary.LittleEndian.Uint64(body[40:])),
	}
	nDrop := int(binary.LittleEndian.Uint32(body[48:]))
	nWeight := int(binary.LittleEndian.Uint32(body[52:]))
	nLive := int(binary.LittleEndian.Uint64(body[56:]))
	want := 64 + 8*nDrop + 16*nWeight + 16*nLive
	if len(body) != want {
		return nil, fmt.Errorf("wal: snapshot body has %d bytes, want %d", len(body), want)
	}
	off := 64
	sd.drops = make([]int, nDrop)
	for i := range sd.drops {
		sd.drops[i] = int(binary.LittleEndian.Uint64(body[off:]))
		off += 8
	}
	sd.wts = make([]weightEntry, nWeight)
	for i := range sd.wts {
		sd.wts[i].id = int(binary.LittleEndian.Uint64(body[off:]))
		sd.wts[i].w = math.Float64frombits(binary.LittleEndian.Uint64(body[off+8:]))
		off += 16
	}
	sd.ids = make([]int, nLive)
	sd.ts = make([]float64, nLive)
	for i := range sd.ids {
		sd.ids[i] = int(binary.LittleEndian.Uint64(body[off:]))
		sd.ts[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[off+8:]))
		off += 16
	}
	return sd, nil
}

// readSnapshot loads and verifies one sidecar file.
func readSnapshot(path string) (*snapData, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	sd, err := decodeSnapshot(b)
	if err != nil {
		return nil, fmt.Errorf("wal: %s: %w", path, err)
	}
	return sd, nil
}
