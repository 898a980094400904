package wal

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"slices"

	"repro/internal/frame"
)

// snapData is a decoded snapshot sidecar: the uncorrected population
// of one sealed epoch as a dense bid array, the correction it was
// sealed with, the canonical S of that epoch (a recovery self-check),
// and the log position just after the covering seal record. A delta
// sidecar decodes with t nil and delta set; applyDelta turns it, on
// the dense form of its base, into the dense form.
type snapData struct {
	epoch uint64
	seg   uint64
	off   int64
	rate  float64
	s     float64
	drops []uint64
	wts   []weightEntry
	t     []float64 // id-indexed uncorrected bid, one per issued id; 0 = absent
	delta *snapDelta
}

// snapDelta is the body of a delta sidecar (LBSNAP03): the ids written
// since the sidecar of epoch base, and their uncorrected bids.
type snapDelta struct {
	base  uint64
	next  int       // id counter, never below the base's
	live  int       // live agents in the whole population it covers
	dirty []uint64  // one bit per id below next, set for each id written since base
	t     []float64 // uncorrected bid of each set bit's id, ascending; 0 = absent
}

const (
	// snapBufBytes is the compactor's write buffer: the largest piece
	// of a snapshot file held in memory at once.
	snapBufBytes = 64 << 10
	// snapHeaderLen is the fixed sidecar header after the magic: epoch,
	// next, seg, off, rate and s, the two u32 correction counts and
	// nLive. A delta's header adds its base epoch.
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

// streamSnapshot writes a captured snapshot to w as a full sidecar in
// the LBSNAP02 format:
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
	return streamSidecar(w, p, 0)
}

// streamSidecar writes p as a full sidecar when base is 0, and
// otherwise as a delta on the sidecar of epoch base, in the LBSNAP03
// format:
//
//	magic(8) | the LBSNAP02 header | base u64 | drops… | weights… |
//	ceil(next/64) × u64 bitmap | one f64 bid per set bit | CRC32C u32
//
// where bit id%64 of word id/64 is set for each id written since the
// base's capture (p.dirty), and each such id's uncorrected bid, or 0
// for an absent id, is read in place as the full stream reads it, in
// ascending id order.
func streamSidecar(w io.Writer, p *pendingSnap, base uint64) error {
	magic := snapMagic
	if base > 0 {
		magic = snapMagicDelta
	}
	if _, err := io.WriteString(w, magic); err != nil {
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
	if base > 0 {
		sw.u64(base)
	}
	for _, id := range p.drops {
		sw.u64(id)
	}
	for _, e := range p.wts {
		sw.u64(e.id)
		sw.u64(math.Float64bits(e.w))
	}
	var err error
	if base > 0 {
		err = sw.delta(p)
	} else {
		err = sw.dense(p)
	}
	sw.flush()
	if sw.err != nil {
		return sw.err
	}
	if err != nil {
		return err
	}
	_, err = w.Write(binary.LittleEndian.AppendUint32(sw.buf[:0], sw.crc))
	return err
}

// bid returns id's uncorrected bid in a capture, 0 when it is absent:
// its bid in the published epoch, or its pre-correction bid, which
// pre holds from index *k on. Called in ascending id order, it
// advances *k past the ids below id.
func (p *pendingSnap) bid(id int, k *int) float64 {
	for *k < len(p.pre) && p.pre[*k].id < id {
		*k++
	}
	if *k < len(p.pre) && p.pre[*k].id == id {
		return p.pre[*k].t
	}
	t, _ := p.snap.Value(id)
	return t
}

// dense writes a full sidecar's bids: one per issued id.
func (s *snapWriter) dense(p *pendingSnap) error {
	live, k := 0, 0
	for id := 0; id < p.next; id++ {
		t := p.bid(id, &k)
		if t != 0 {
			live++
		}
		s.u64(math.Float64bits(t))
	}
	if live != p.live {
		return fmt.Errorf("snapshot of epoch %d has %d live entries, its seal counted %d", p.epoch, live, p.live)
	}
	return nil
}

// delta writes a delta sidecar's bitmap and the bids of its marked ids.
func (s *snapWriter) delta(p *pendingSnap) error {
	words := (p.next + 63) / 64
	for i := 0; i < words; i++ {
		var x uint64
		if i < len(p.dirty) {
			x = p.dirty[i]
		}
		s.u64(x)
	}
	var err error
	k := 0
	forEachMarked(p.dirty, func(_, id int) {
		if id >= p.next {
			err = fmt.Errorf("snapshot of epoch %d marks id %d, at or past its id counter %d", p.epoch, id, p.next)
		} else if err == nil {
			s.u64(math.Float64bits(p.bid(id, &k)))
		}
	})
	return err
}

// sidecarSizes returns the file sizes of p as a full sidecar and as a
// delta.
func sidecarSizes(p *pendingSnap) (full, delta int64) {
	fixed := int64(len(snapMagic) + snapHeaderLen + 8*len(p.drops) + 16*len(p.wts) + 4)
	marked := 0
	for _, x := range p.dirty {
		marked += bits.OnesCount64(x)
	}
	return fixed + 8*int64(p.next), fixed + 8 + 8*int64((p.next+63)/64) + 8*int64(marked)
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
		s.crc = frame.Update(s.crc, s.buf)
		_, s.err = s.w.Write(s.buf)
	}
	s.buf = s.buf[:0]
}

// preCorrection returns the bids in t of the correction's ids that are
// live there, in ascending id order: with the published (corrected)
// epoch, all a snapshot needs to restore the uncorrected population.
// An id both dropped and weighted appears once.
func preCorrection(t []float64, drops []uint64, wts []weightEntry) []bidEntry {
	ids := append([]uint64(nil), drops...)
	for _, e := range wts {
		ids = append(ids, e.id)
	}
	slices.Sort(ids)
	var pre []bidEntry
	for _, id := range slices.Compact(ids) {
		if id < uint64(len(t)) && t[id] != 0 {
			pre = append(pre, bidEntry{id: int(id), t: t[id]})
		}
	}
	return pre
}

// decodeSnapshot parses and verifies a snapshot sidecar in any of its
// formats: LBSNAP02 (dense bids) and LBSNAP01 ((id, bid) pairs of the
// live agents, ascending) into the dense snapData, LBSNAP03 into a
// delta (see decodeDelta). Every count is bounded before it enters any
// arithmetic, so a file whose checksum holds cannot wrap a length
// check, and a full sidecar's bids must hold exactly the header's live
// count.
func decodeSnapshot(b []byte) (*snapData, error) {
	if len(b) < len(snapMagic)+snapHeaderLen+4 {
		return nil, fmt.Errorf("wal: snapshot too short (%d bytes)", len(b))
	}
	hdr := snapHeaderLen
	switch string(b[:8]) {
	case snapMagic, snapMagicV1:
	case snapMagicDelta:
		hdr += 8
	default:
		return nil, fmt.Errorf("wal: bad snapshot magic")
	}
	legacy := string(b[:8]) == snapMagicV1
	body, tail := b[8:len(b)-4], b[len(b)-4:]
	if len(body) < hdr {
		return nil, fmt.Errorf("wal: snapshot too short (%d bytes)", len(b))
	}
	if frame.Checksum(body) != binary.LittleEndian.Uint32(tail) {
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
	rest := uint64(len(body) - hdr)
	if nDrop > rest/8 || nWeight > rest/16 {
		return nil, fmt.Errorf("wal: snapshot %d: correction counts %d and %d exceed its %d body bytes", sd.epoch, nDrop, nWeight, rest)
	}
	if hdr != snapHeaderLen {
		return decodeDelta(sd, body[snapHeaderLen:], next, nDrop, nWeight, nLive)
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

// decodeDelta finishes decoding an LBSNAP03 sidecar whose header
// decodeSnapshot has read and bounded; body starts at its base epoch.
// The base must be a positive epoch below the delta's own, and the
// bitmap, one bit per id below next, must mark no id at or past next
// and back exactly as many bids as the rest of the body holds: every
// count is checked against the body's length before anything is
// allocated, so a delta's allocations are bounded by its size. Its
// live count can be checked only on its base (applyDelta).
func decodeDelta(sd *snapData, body []byte, next, nDrop, nWeight, nLive uint64) (*snapData, error) {
	base := binary.LittleEndian.Uint64(body)
	if base == 0 || base >= sd.epoch {
		return nil, fmt.Errorf("wal: snapshot %d: delta base epoch %d is not below its own", sd.epoch, base)
	}
	rest := body[8:]
	corr, words := 8*nDrop+16*nWeight, (next+63)/64
	if corr+8*words > uint64(len(rest)) {
		return nil, fmt.Errorf("wal: snapshot %d: a correction of %d and %d ids and a bitmap of %d ids exceed its %d body bytes",
			sd.epoch, nDrop, nWeight, next, len(rest))
	}
	bitmap := rest[corr : corr+8*words]
	marked := uint64(0)
	for i := uint64(0); i < words; i++ {
		marked += uint64(bits.OnesCount64(binary.LittleEndian.Uint64(bitmap[8*i:])))
	}
	if r := next % 64; r != 0 && binary.LittleEndian.Uint64(bitmap[8*(words-1):])>>r != 0 {
		return nil, fmt.Errorf("wal: snapshot %d marks an id at or past its id counter %d", sd.epoch, next)
	}
	if want := corr + 8*words + 8*marked; uint64(len(rest)) != want {
		return nil, fmt.Errorf("wal: snapshot body has %d bytes, want %d", snapHeaderLen+len(body), snapHeaderLen+8+want)
	}
	sd.drops, sd.wts = decodeCorrection(rest, int(nDrop), int(nWeight))
	d := &snapDelta{base: base, next: int(next), live: int(nLive), dirty: make([]uint64, words), t: make([]float64, marked)}
	for i := range d.dirty {
		d.dirty[i] = binary.LittleEndian.Uint64(bitmap[8*i:])
	}
	bids := rest[corr+8*words:]
	for i := range d.t {
		d.t[i] = math.Float64frombits(binary.LittleEndian.Uint64(bids[8*i:]))
	}
	sd.delta = d
	return sd, nil
}

// forEachMarked calls f with each id marked in bitmap, ascending, and
// its index among the marked ids.
func forEachMarked(bitmap []uint64, f func(k, id int)) {
	k := 0
	for i, x := range bitmap {
		for ; x != 0; x &= x - 1 {
			f(k, i<<6|bits.TrailingZeros64(x))
			k++
		}
	}
}

// applyDelta returns the dense form of the delta d on sd, the dense
// form of d's base, reusing sd's bid array. sd must be the epoch d
// names, issue no more ids than d, and give the population d's live
// count once d's bids replace its own; all three are checked before
// sd's array changes or grows.
func applyDelta(sd, d *snapData) (*snapData, error) {
	dd := d.delta
	if sd.epoch != dd.base {
		return nil, fmt.Errorf("wal: snapshot %d: base epoch %d, not %d", d.epoch, sd.epoch, dd.base)
	}
	if len(sd.t) > dd.next {
		return nil, fmt.Errorf("wal: snapshot %d: id counter %d is below its base's %d", d.epoch, dd.next, len(sd.t))
	}
	live := 0
	for _, t := range sd.t {
		if math.Float64bits(t) != 0 {
			live++
		}
	}
	forEachMarked(dd.dirty, func(k, id int) {
		if id < len(sd.t) && math.Float64bits(sd.t[id]) != 0 {
			live--
		}
		if math.Float64bits(dd.t[k]) != 0 {
			live++
		}
	})
	if live != dd.live {
		return nil, fmt.Errorf("wal: snapshot %d holds %d live bids on its base, its header counts %d", d.epoch, live, dd.live)
	}
	t := append(sd.t, make([]float64, dd.next-len(sd.t))...)
	forEachMarked(dd.dirty, func(k, id int) { t[id] = dd.t[k] })
	return &snapData{epoch: d.epoch, seg: d.seg, off: d.off, rate: d.rate, s: d.s, drops: d.drops, wts: d.wts, t: t}, nil
}

// loadSnapshot reads the sidecar snaps[i] and, when it is a delta, the
// chain of sidecars it rests on back to a full one, found by the base
// epoch each delta names. Each link must decode and hold the epoch its
// successor names (decodeDelta has checked that it is below the
// successor's own, so the chain ends); the deltas then apply oldest
// first. It returns the dense population of snaps[i] and the chain's
// full sidecar.
func loadSnapshot(snaps []snapFile, i int) (*snapData, snapRef, error) {
	var chain []*snapData
	path := snaps[i].path
	for {
		sd, err := readSnapshot(path)
		if err != nil {
			return nil, snapRef{}, err
		}
		if n := len(chain); n > 0 && sd.epoch != chain[n-1].delta.base {
			return nil, snapRef{}, fmt.Errorf("wal: %s holds epoch %d, not the base %d of snapshot %d", path, sd.epoch, chain[n-1].delta.base, chain[n-1].epoch)
		}
		if sd.delta == nil {
			full := snapRef{epoch: sd.epoch, seg: sd.seg}
			for k := len(chain) - 1; k >= 0; k-- {
				if sd, err = applyDelta(sd, chain[k]); err != nil {
					return nil, snapRef{}, err
				}
			}
			return sd, full, nil
		}
		chain = append(chain, sd)
		j, ok := slices.BinarySearchFunc(snaps, sd.delta.base, func(f snapFile, epoch uint64) int { return cmp.Compare(f.epoch, epoch) })
		if !ok {
			return nil, snapRef{}, fmt.Errorf("wal: snapshot %d: its base, snapshot %d, is missing", sd.epoch, sd.delta.base)
		}
		path = snaps[j].path
	}
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
