package wal

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/frame"
	"repro/internal/registry"
)

// Info reports what a recovery found and did.
type Info struct {
	// Fresh is true when Open found no log and started a new one.
	Fresh bool
	// SnapshotEpoch is the epoch of the snapshot recovery started from
	// (0 when it replayed the whole log from an empty registry).
	SnapshotEpoch uint64
	// Segments is the number of segment files the replay read.
	Segments int
	// Records and Bytes count the log records replayed from the tail
	// (a run record counts once, however many mutations it holds).
	Records int
	Bytes   int64
	// Seals is the number of seal records among them.
	Seals int
	// TornTail is true when the final record was torn (a crash
	// mid-write); Open truncates it away before appending resumes.
	TornTail bool
	// Epoch is the last sealed epoch after recovery.
	Epoch uint64
}

// segFile / snapFile are directory-scan results, sorted ascending.
type segFile struct {
	seq  uint64
	path string
}

type snapFile struct {
	epoch uint64
	path  string
}

// scanDir lists the segments and snapshots in dir. Unknown files
// (including .tmp leftovers from a crashed snapshot write, which Open
// removes) are ignored.
func scanDir(dir string) ([]segFile, []snapFile, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segFile
	var snaps []snapFile
	for _, e := range ents {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			seq, err := strconv.ParseUint(name[4:len(name)-4], 10, 64)
			if err == nil && seq > 0 {
				segs = append(segs, segFile{seq: seq, path: filepath.Join(dir, name)})
			}
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			epoch, err := strconv.ParseUint(name[5:len(name)-5], 10, 64)
			if err == nil && epoch > 0 {
				snaps = append(snaps, snapFile{epoch: epoch, path: filepath.Join(dir, name)})
			}
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].epoch < snaps[j].epoch })
	return segs, snaps, nil
}

// Recover rebuilds a registry from the log in dir without opening it
// for writing — a read-only replay. cfg supplies the shard count and
// metrics for the rebuilt registry; its Rate is used only when the log
// has no snapshot and no rate or seal record, and its Journal is
// ignored. The rebuilt registry's sealed epochs are bit-for-bit
// identical to the pre-crash ones.
func Recover(dir string, cfg registry.Config) (*registry.Registry, *Info, error) {
	segs, snaps, err := scanDir(dir)
	if err != nil {
		return nil, nil, err
	}
	if len(segs) == 0 && len(snaps) == 0 {
		return nil, nil, fmt.Errorf("wal: %s holds no log", dir)
	}
	r, info, _, _, err := replayLog(cfg, segs, snaps)
	return r, info, err
}

// tailPos is where appending resumes after a replay: the last
// segment's sequence, the end of its last whole record, and whether
// the segment is in an older format (LBWAL001 or LBWAL002).
type tailPos struct {
	seg    uint64
	off    int64
	legacy bool
}

// Open recovers the log in dir (or starts a fresh one if the directory
// is empty) and returns the rebuilt registry with a Writer already
// attached as its journal, ready to serve. A torn final record is
// truncated away so appending resumes at the last whole-record
// boundary — in a fresh segment when the tail segment is in an older
// format, whose entries are encoded differently. Temp files left by a
// crash inside a sidecar write are removed first.
func Open(dir string, opts Options, cfg registry.Config) (*registry.Registry, *Writer, *Info, error) {
	w, err := newWriter(dir, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	fail := func(err error) (*registry.Registry, *Writer, *Info, error) {
		w.dirf.Close()
		return nil, nil, nil, err
	}
	if err := w.removeTemps(); err != nil {
		return fail(err)
	}
	segs, snaps, err := scanDir(dir)
	if err != nil {
		return fail(err)
	}
	if len(segs) == 0 && len(snaps) == 0 {
		if err := w.createSegment(1); err != nil {
			return fail(err)
		}
		w.start()
		c := cfg
		c.Journal = w
		r, err := registry.New(c)
		if err != nil {
			w.Close()
			return nil, nil, nil, err
		}
		return r, w, &Info{Fresh: true, Epoch: 1}, nil
	}

	r, info, tail, last, err := replayLog(cfg, segs, snaps)
	if err != nil {
		return fail(err)
	}
	if tail.off < segHeaderLen {
		// The crash tore the tail segment inside its own header;
		// recreate it empty.
		if err := os.Remove(filepath.Join(dir, segName(tail.seg))); err != nil {
			return fail(fmt.Errorf("wal: %w", err))
		}
		if err := w.createSegment(tail.seg); err != nil {
			return fail(err)
		}
	} else if err := w.continueSegment(tail.seg, tail.off); err != nil {
		return fail(err)
	} else if tail.legacy {
		if err := w.createSegment(tail.seg + 1); err != nil {
			w.f.Close()
			return fail(err)
		}
	}
	w.lastFull = last
	w.start()
	r.AttachJournal(w)
	w.met.Recovered(info.Records, info.Bytes)
	return r, w, info, nil
}

// replayLog picks the newest usable snapshot (falling back to older
// ones, and to an empty registry when the whole log is still present)
// and replays the tail. A delta sidecar is usable when its whole chain
// back to a full sidecar loads (loadSnapshot). It returns the rebuilt
// registry, the replay report, the position appending should resume
// at, and the full sidecar the chain recovery started from rests on,
// which the writer's compaction keeps until it has written a full
// sidecar of its own and then another.
func replayLog(cfg registry.Config, segs []segFile, snaps []snapFile) (*registry.Registry, *Info, tailPos, snapRef, error) {
	var none snapRef
	if len(segs) == 0 {
		return nil, nil, tailPos{}, none, fmt.Errorf("wal: snapshots present but no segment files")
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].seq != segs[0].seq+uint64(i) {
			return nil, nil, tailPos{}, none, fmt.Errorf("wal: segment gap: %d follows %d", segs[i].seq, segs[i-1].seq)
		}
	}
	var firstErr error
	keep := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		sd, full, err := loadSnapshot(snaps, i)
		if err != nil {
			keep(err)
			continue
		}
		r, info, tail, err := tryReplay(cfg, segs, sd)
		if err != nil {
			keep(err)
			continue
		}
		return r, info, tail, full, nil
	}
	if segs[0].seq == 1 {
		r, info, tail, err := tryReplay(cfg, segs, nil)
		if err != nil {
			keep(err)
		} else {
			return r, info, tail, none, nil
		}
	} else {
		keep(fmt.Errorf("wal: no usable snapshot and the log prefix is compacted (first segment %d)", segs[0].seq))
	}
	return nil, nil, tailPos{}, none, firstErr
}

// tryReplay rebuilds one registry: restore the snapshot (when given),
// reseal it, verify the canonical S bit-for-bit against the stored
// value, then replay every record from the snapshot's position to the
// end of the log. A torn final record stops the replay cleanly; any
// other inconsistency is an error.
func tryReplay(cfg registry.Config, segs []segFile, sd *snapData) (*registry.Registry, *Info, tailPos, error) {
	var none tailPos
	c := cfg
	c.Journal = nil
	if sd != nil {
		c.Rate = sd.rate
	}
	r, err := registry.New(c)
	if err != nil {
		return nil, nil, none, err
	}
	info := &Info{Epoch: 1}
	startSeg, startOff := segs[0].seq, int64(segHeaderLen)
	if sd != nil {
		// decodeSnapshot has bounded the id counter, len(sd.t).
		for id, t := range sd.t {
			if math.Float64bits(t) == 0 {
				continue
			}
			if err := r.RestoreAgent(id, t); err != nil {
				return nil, nil, none, fmt.Errorf("wal: snapshot %d: %w", sd.epoch, err)
			}
		}
		r.RestoreNext(len(sd.t))
		r.RestoreEpoch(sd.epoch - 1)
		snap, err := r.SealCorrected(correction(sd.drops, sd.wts))
		if err != nil {
			return nil, nil, none, fmt.Errorf("wal: snapshot %d: %w", sd.epoch, err)
		}
		if math.Float64bits(snap.Sum()) != math.Float64bits(sd.s) {
			return nil, nil, none, fmt.Errorf("wal: snapshot %d self-check failed: resealed S %x, stored %x",
				sd.epoch, math.Float64bits(snap.Sum()), math.Float64bits(sd.s))
		}
		info.SnapshotEpoch, info.Epoch = sd.epoch, sd.epoch
		startSeg, startOff = sd.seg, sd.off
	}

	if startSeg < segs[0].seq || startSeg > segs[len(segs)-1].seq {
		return nil, nil, none, fmt.Errorf("wal: snapshot %d replay position in missing segment %d", sd.epoch, startSeg)
	}
	idx := int(startSeg - segs[0].seq)
	// An add may raise the id counter only to what the log backs (see
	// replaySlack), so a forged id is refused before the registry
	// sizes its tables by it; decodeEntry has already bounded every id
	// by maxReplayID.
	idLimit := uint64(replaySlack)
	if sd != nil {
		idLimit += uint64(len(sd.t))
	}
	mutate := func(e entry) error {
		if e.kind == kindAdd {
			idLimit++
			if e.id >= idLimit {
				return fmt.Errorf("add of agent id %d beyond what the log backs (ids below %d)", e.id, idLimit)
			}
			return r.RestoreAgent(int(e.id), e.t)
		}
		// Every agent's id fits an int, so one that does not is
		// unknown; converting it would wrap onto another agent.
		if e.id > math.MaxInt {
			return fmt.Errorf("mutation of unknown agent id %d", e.id)
		}
		if e.kind == kindUpdate {
			return r.Update(int(e.id), e.t)
		}
		return r.Remove(int(e.id))
	}
	apply := func(rec record) error {
		switch rec.kind {
		case kindAdd, kindUpdate, kindRemove, kindRun:
			// decodeRecord has checked every entry, so a torn or
			// malformed run never applies in part.
			for p := rec.run; len(p) > 0; {
				e, n, _ := decodeEntry(p, rec.varint)
				if err := mutate(e); err != nil {
					return err
				}
				p = p[n:]
			}
		case kindRate:
			return r.SetRate(rec.rate)
		case kindSeal, kindSealC:
			if rec.epoch == 0 {
				return fmt.Errorf("seal record with epoch 0")
			}
			r.RestoreEpoch(rec.epoch - 1)
			if err := r.SetRate(rec.rate); err != nil {
				return err
			}
			if rec.kind == kindSeal {
				r.Seal()
			} else if _, err := r.SealCorrected(correction(rec.drops, rec.weights)); err != nil {
				return err
			}
			info.Seals++
			info.Epoch = rec.epoch
		}
		return nil
	}

	tail := tailPos{seg: startSeg, off: startOff}
	for i := idx; i < len(segs); i++ {
		sf := segs[i]
		last := i == len(segs)-1
		data, err := os.ReadFile(sf.path)
		if err != nil {
			return nil, nil, none, fmt.Errorf("wal: %w", err)
		}
		if len(data) < segHeaderLen {
			// Only a crash during segment creation leaves a short
			// header, and that can only be the final file.
			if !last {
				return nil, nil, none, fmt.Errorf("wal: %s: truncated header in non-final segment", sf.path)
			}
			if sd != nil && i == idx {
				// The snapshot's replay position is unreachable; let
				// the caller fall back to an older recovery point.
				return nil, nil, none, fmt.Errorf("wal: snapshot %d replay position %d past end of %s (%d bytes)",
					sd.epoch, startOff, sf.path, len(data))
			}
			info.TornTail = true
			tail = tailPos{seg: sf.seq, off: int64(len(data))}
			break
		}
		magic := string(data[:8])
		if magic != segMagic && magic != segMagicV2 && magic != segMagicV1 {
			return nil, nil, none, fmt.Errorf("wal: %s: bad segment magic", sf.path)
		}
		if got := binary.LittleEndian.Uint64(data[8:]); got != sf.seq {
			return nil, nil, none, fmt.Errorf("wal: %s: header sequence %d does not match name", sf.path, got)
		}
		off := int64(segHeaderLen)
		if i == idx {
			off = startOff
			if off > int64(len(data)) {
				return nil, nil, none, fmt.Errorf("wal: snapshot %d replay position %d past end of %s (%d bytes)",
					sd.epoch, off, sf.path, len(data))
			}
		}
		off, torn, err := replayRecords(data, off, magic == segMagic, apply, info)
		if err != nil {
			// A CRC-valid record that fails to decode or apply is
			// corruption, not a torn write: a crash cannot forge a
			// checksum.
			return nil, nil, none, fmt.Errorf("wal: %s: %w", sf.path, err)
		}
		tail = tailPos{seg: sf.seq, off: off, legacy: magic != segMagic}
		if torn {
			if !last {
				return nil, nil, none, fmt.Errorf("wal: %s: torn record in non-final segment", sf.path)
			}
			info.TornTail = true
		}
		info.Segments++
	}
	return r, info, tail, nil
}

// replayRecords walks whole records from off, applying each, and
// returns the offset of the first byte it could not use; varint says
// whether the segment's entries carry uvarint ids. A structurally
// incomplete or checksum-failing record reports torn=true (the caller
// decides whether that is a legal torn tail or corruption); a record
// whose checksum holds but which fails to decode or apply is always
// an error naming its offset and kind.
func replayRecords(data []byte, off int64, varint bool, apply func(record) error, info *Info) (int64, bool, error) {
	for {
		rem := data[off:]
		if len(rem) == 0 {
			return off, false, nil
		}
		payload, n, err := frame.Next(rem, maxRecordLen)
		if err != nil || n == 0 {
			return off, true, nil
		}
		rec, err := decodeRecord(payload, varint)
		if err == nil {
			err = apply(rec)
		}
		if err != nil {
			return off, false, fmt.Errorf("record at offset %d (kind %d): %w", off, payload[0], err)
		}
		off += int64(n)
		info.Records++
		info.Bytes += int64(n)
	}
}

// correction rebuilds a registry.Correction from decoded drop and
// weight lists (nil when both are empty, making the seal a plain one).
// This is where the u64 ids meet agents: an id above math.MaxInt names
// no agent, on any word size, so it drops and weights nothing. Its
// weight is still checked: one outside (0, 1] goes in under id -1,
// which no agent has either, for SealCorrected to refuse.
func correction(drops []uint64, wts []weightEntry) *registry.Correction {
	if len(drops) == 0 && len(wts) == 0 {
		return nil
	}
	c := &registry.Correction{}
	if len(drops) > 0 {
		c.Drop = make(map[int]bool, len(drops))
		for _, id := range drops {
			if id <= math.MaxInt {
				c.Drop[int(id)] = true
			}
		}
	}
	if len(wts) > 0 {
		c.Weights = make(map[int]float64, len(wts))
		for _, e := range wts {
			switch {
			case e.id <= math.MaxInt:
				c.Weights[int(e.id)] = e.w
			case !(e.w > 0 && e.w <= 1):
				c.Weights[-1] = e.w
			}
		}
	}
	return c
}
