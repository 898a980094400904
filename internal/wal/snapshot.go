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

// snapData is a decoded snapshot sidecar: the uncorrected population
// of one sealed epoch as a dense bid array, the correction it was
// sealed with, the canonical S of that epoch (a recovery self-check),
// and the log position just after the covering seal record.
type snapData struct {
	epoch uint64
	seg   uint64
	off   int64
	rate  float64
	s     float64
	drops []int
	wts   []weightEntry
	t     []float64 // id-indexed uncorrected bid, one per issued id; 0 = absent
}

const (
	// snapBufBytes is the compactor's write buffer: the largest piece
	// of a snapshot file held in memory at once.
	snapBufBytes = 64 << 10
	// snapHeaderLen is the fixed sidecar header after the magic: epoch,
	// next, seg, off, rate and s, the two u32 correction counts and
	// nLive.
	snapHeaderLen = 64
	// maxLegacyIDs and legacyIDsPerLive bound the id counter of an
	// LBSNAP01 sidecar. Such a file lists only live agents, so its
	// counter is the one field no bytes of the file back, yet decoding
	// it to the dense form allocates 8 bytes per issued id: a
	// checksummed file claiming 2^40 ids must be refused, not
	// allocated. An LBSNAP01 counter may reach 2^20 plus 256 per listed
	// agent; an LBSNAP02 file holds 8 bytes per issued id, so its
	// length bounds its counter.
	maxLegacyIDs     = 1 << 20
	legacyIDsPerLive = 256
)

// streamSnapshot writes a captured snapshot to w in the LBSNAP02
// sidecar format:
//
//	magic(8) | epoch u64 | next u64 | seg u64 | off u64 | rate f64 |
//	s f64 | nDrop u32 | nWeight u32 | nLive u64 | drops… | weights… |
//	next × f64 bid | CRC32C u32
//
// little-endian throughout; the CRC covers everything after the magic.
// The bids are the uncorrected population indexed by id, 0 for an
// absent id — the layout of the published epoch, from which each bid
// is read in place, except that the correction's live ids take their
// pre-correction bids from p.pre. The body goes through a snapBufBytes
// buffer whose flushes fold into the running CRC, so the file is never
// materialized; nLive comes from the seal's live count, and a
// population that disagrees with it is an error.
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
			live++
		}
		sw.u64(math.Float64bits(t))
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

// decodeSnapshot parses and verifies a snapshot sidecar in either
// format, LBSNAP02 (dense bids) or LBSNAP01 ((id, bid) pairs of the
// live agents, ascending), into the dense snapData. Every count is
// bounded before it enters any arithmetic, so a file whose checksum
// holds cannot wrap a length check, and the bids must hold exactly the
// header's live count.
func decodeSnapshot(b []byte) (*snapData, error) {
	if len(b) < len(snapMagic)+snapHeaderLen+4 {
		return nil, fmt.Errorf("wal: snapshot too short (%d bytes)", len(b))
	}
	legacy := string(b[:8]) == snapMagicV1
	if !legacy && string(b[:8]) != snapMagic {
		return nil, fmt.Errorf("wal: bad snapshot magic")
	}
	body, tail := b[8:len(b)-4], b[len(b)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("wal: snapshot checksum mismatch")
	}
	sd := &snapData{
		epoch: binary.LittleEndian.Uint64(body),
		seg:   binary.LittleEndian.Uint64(body[16:]),
		off:   int64(binary.LittleEndian.Uint64(body[24:])),
		rate:  math.Float64frombits(binary.LittleEndian.Uint64(body[32:])),
		s:     math.Float64frombits(binary.LittleEndian.Uint64(body[40:])),
	}
	next := binary.LittleEndian.Uint64(body[8:])
	nDrop := uint64(binary.LittleEndian.Uint32(body[48:]))
	nWeight := uint64(binary.LittleEndian.Uint32(body[52:]))
	nLive := binary.LittleEndian.Uint64(body[56:])
	if next > maxReplayID {
		return nil, fmt.Errorf("wal: snapshot %d: implausible id counter %d", sd.epoch, next)
	}
	if nLive > next {
		return nil, fmt.Errorf("wal: snapshot %d: %d live agents but only %d ids issued", sd.epoch, nLive, next)
	}
	rest := uint64(len(body) - snapHeaderLen)
	if nDrop > rest/8 || nWeight > rest/16 {
		return nil, fmt.Errorf("wal: snapshot %d: correction counts %d and %d exceed its %d body bytes", sd.epoch, nDrop, nWeight, rest)
	}
	bidBytes := 8 * next
	if legacy {
		bidBytes = 16 * nLive
	}
	if want := 8*nDrop + 16*nWeight + bidBytes; rest != want {
		return nil, fmt.Errorf("wal: snapshot body has %d bytes, want %d", len(body), snapHeaderLen+want)
	}
	if legacy && next > maxLegacyIDs+legacyIDsPerLive*nLive {
		return nil, fmt.Errorf("wal: snapshot %d: id counter %d is implausible for %d live agents", sd.epoch, next, nLive)
	}
	sd.drops, sd.wts = decodeCorrection(body[snapHeaderLen:], int(nDrop), int(nWeight))
	bids := body[snapHeaderLen+8*nDrop+16*nWeight:]
	if legacy {
		// Check every pair before allocating the dense array.
		prev := -1
		for i := 0; i < int(nLive); i++ {
			id := binary.LittleEndian.Uint64(bids[16*i:])
			t := binary.LittleEndian.Uint64(bids[16*i+8:])
			if id >= next || int(id) <= prev || t == 0 {
				return nil, fmt.Errorf("wal: snapshot %d: entry %d (id %d, bid %x) is out of order, past the id counter or zero", sd.epoch, i, id, t)
			}
			prev = int(id)
		}
		sd.t = make([]float64, next)
		for i := 0; i < int(nLive); i++ {
			sd.t[binary.LittleEndian.Uint64(bids[16*i:])] = math.Float64frombits(binary.LittleEndian.Uint64(bids[16*i+8:]))
		}
		return sd, nil
	}
	sd.t = make([]float64, next)
	live := uint64(0)
	for id := range sd.t {
		t := binary.LittleEndian.Uint64(bids[8*id:])
		if t != 0 {
			live++
		}
		sd.t[id] = math.Float64frombits(t)
	}
	if live != nLive {
		return nil, fmt.Errorf("wal: snapshot %d holds %d live bids, its header counts %d", sd.epoch, live, nLive)
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
