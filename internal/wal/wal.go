// Package wal makes the concurrent bid registry crash-recoverable: an
// append-only binary write-ahead log that internal/registry writes
// through (via the registry.Journal hook), periodic snapshot
// compaction, and recovery that rebuilds a registry whose sealed
// epochs are bit-for-bit identical to the pre-crash ones.
//
// The log is a sequence of segment files (wal-<seq>.log), each opening
// with the magic LBWAL002 and its sequence number. Every record is
// length-prefixed and CRC32C-framed:
//
//	[u32 payload length][u32 CRC32C(payload)][payload]
//
// with little-endian integers throughout. The payload starts with a
// one-byte kind: a run of add/rebid/leave mutations, a rate change, or
// a seal (plain, or corrected with the health adjustment inlined). A
// run (kind 7) packs consecutive mutations under one header and one
// checksum; it closes before any seal or rate record, at every
// group-commit flush, before the segment rotates, and at runCap
// payload bytes, which bounds what closing it costs inside a seal.
// Appends group-commit: records accumulate in a memory buffer that is
// written to the segment in batches, and fsync runs under a
// configurable policy (every batch, every seal, on an interval, or
// never). The append path allocates nothing in steady state.
//
// Segments with the magic LBWAL001 hold no runs: there every mutation
// is a standalone kind 1-3 record. Recovery reads both, and Open
// appends to a fresh LBWAL002 segment rather than to an LBWAL001
// tail, so a reader that knows only LBWAL001 refuses a newer log on
// its magic rather than misreading its runs.
//
// Why replaying the log reproduces sealed epochs exactly: a sealed
// epoch is a pure function of the live (id, bid) set, the rate and the
// correction — the canonical ascending-id Neumaier reduction shared
// with alloc.Stream (see internal/registry). The journal hook logs
// every mutation under its shard lock and every seal under ALL shard
// locks, so the seal record is a barrier: mutations logged before it
// are exactly those the epoch observed. Replay therefore rebuilds the
// same live set at every seal record, and resealing (with the logged
// rate and correction) reproduces the identical snapshot — for any
// shard count and any worker count, on both sides of the crash.
//
// Snapshot sidecar files (snap-<epoch>.snap) serialize the sealed
// epoch's source state — the uncorrected live population, the id
// counter, the rate, the correction, and the canonical S of the
// covered epoch for a recovery self-check — plus the log position just
// after the covering seal record. At the seal barrier the writer
// captures only the log position and the pre-correction bids of the
// correction's live ids; after publication a background compactor
// streams the file from the immutable registry.Snapshot, reading every
// other bid in place, so no per-agent copy is made under the
// registry's locks or for the file image. Compaction keeps the two newest
// snapshots and deletes every segment older than the one the previous
// snapshot points into, so recovery always has a valid snapshot-plus-
// tail even if the newest snapshot is damaged. Recovery loads the
// newest valid snapshot, reseals, verifies S bit-for-bit, replays the
// log tail, and truncates a torn final record (a kill -9 mid-write)
// at the last whole-record boundary.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Record kinds. The on-disk values are frozen: recovery of logs
// written by older builds depends on them. Kinds 1-3 are also the
// entry kinds of a run, whose entries are byte-identical to those
// records' payloads; the writer no longer emits them standalone.
const (
	kindAdd    = byte(1) // u64 id, f64 t
	kindUpdate = byte(2) // u64 id, f64 t
	kindRemove = byte(3) // u64 id
	kindRate   = byte(4) // f64 rate
	kindSeal   = byte(5) // u64 epoch, f64 rate
	kindSealC  = byte(6) // u64 epoch, f64 rate, u32 nDrop, u32 nWeight, nDrop×u64, nWeight×(u64, f64)
	kindRun    = byte(7) // one or more entries: [kind 1|2|3][u64 id][f64 t, kinds 1-2]
)

const (
	// segMagic opens every segment file the writer creates, followed by
	// the u64 segment sequence number (the header is segHeaderLen bytes
	// in all). segMagicV1 marks segments of the run-less format.
	segMagic     = "LBWAL002"
	segMagicV1   = "LBWAL001"
	segHeaderLen = 16
	// runCap bounds a run record's payload. Every seal closes the open
	// run under all of the registry's shard locks, so the cap bounds
	// the checksum work a seal can inherit.
	runCap = 4 << 10
	// snapMagic opens every snapshot sidecar file.
	snapMagic = "LBSNAP01"
	// frameLen is the per-record framing overhead: u32 length + u32 CRC.
	frameLen = 8
	// maxRecordLen bounds a decoded payload length: anything larger is
	// treated as log corruption rather than allocated.
	maxRecordLen = 1 << 26
	// maxReplayID bounds agent ids accepted during replay: registries
	// size internal tables by the highest id, so an implausibly large
	// id in a damaged log is corruption, not an allocation request.
	maxReplayID = 1 << 40
)

// crcTable is the Castagnoli polynomial (CRC32C), hardware-accelerated
// on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// weightEntry is one (id, weight) pair of a corrected seal record.
type weightEntry struct {
	id int
	w  float64
}

// record is one decoded log record.
type record struct {
	kind    byte
	id      int     // add/update/remove
	t       float64 // add/update bid; rate for kindRate
	epoch   uint64  // seal records
	rate    float64 // seal records
	drops   []int
	weights []weightEntry
	run     []byte // kindRun: the entries, every one checked to parse
}

// entryLen returns the byte length of a mutation entry (or standalone
// mutation payload) of the given kind, 0 for any other kind.
func entryLen(kind byte) int {
	switch kind {
	case kindAdd, kindUpdate:
		return 17
	case kindRemove:
		return 9
	}
	return 0
}

// decodeEntry parses the mutation entry at the front of p, whose kind
// and length the caller has checked.
func decodeEntry(p []byte) record {
	rec := record{kind: p[0], id: int(binary.LittleEndian.Uint64(p[1:]))}
	if rec.kind != kindRemove {
		rec.t = math.Float64frombits(binary.LittleEndian.Uint64(p[9:]))
	}
	return rec
}

// decodeRecord parses a CRC-verified payload. It returns an error for
// a malformed payload (truncated fields, unknown kind, inconsistent
// correction counts, a run cut mid-entry or holding an entry of
// another kind) — the reader treats that as corruption.
func decodeRecord(p []byte) (record, error) {
	if len(p) == 0 {
		return record{}, fmt.Errorf("empty record payload")
	}
	rec := record{kind: p[0]}
	body := p[1:]
	switch rec.kind {
	case kindAdd, kindUpdate, kindRemove:
		if len(p) != entryLen(rec.kind) {
			return record{}, fmt.Errorf("mutation record has %d payload bytes, want %d", len(p), entryLen(rec.kind))
		}
		rec = decodeEntry(p)
	case kindRun:
		if len(body) == 0 {
			return record{}, fmt.Errorf("run record holds no entries")
		}
		for off := 0; off < len(body); {
			n := entryLen(body[off])
			if n == 0 {
				return record{}, fmt.Errorf("run entry at byte %d has kind %d", 1+off, body[off])
			}
			if off+n > len(body) {
				return record{}, fmt.Errorf("run entry at byte %d is cut short (%d of %d bytes)", 1+off, len(body)-off, n)
			}
			off += n
		}
		rec.run = body
	case kindRate:
		if len(body) != 8 {
			return record{}, fmt.Errorf("rate record has %d payload bytes, want 8", len(body))
		}
		rec.t = math.Float64frombits(binary.LittleEndian.Uint64(body))
	case kindSeal:
		if len(body) != 16 {
			return record{}, fmt.Errorf("seal record has %d payload bytes, want 16", len(body))
		}
		rec.epoch = binary.LittleEndian.Uint64(body)
		rec.rate = math.Float64frombits(binary.LittleEndian.Uint64(body[8:]))
	case kindSealC:
		if len(body) < 24 {
			return record{}, fmt.Errorf("corrected seal record has %d payload bytes, want >= 24", len(body))
		}
		rec.epoch = binary.LittleEndian.Uint64(body)
		rec.rate = math.Float64frombits(binary.LittleEndian.Uint64(body[8:]))
		nDrop := int(binary.LittleEndian.Uint32(body[16:]))
		nWeight := int(binary.LittleEndian.Uint32(body[20:]))
		want := 24 + 8*nDrop + 16*nWeight
		if len(body) != want {
			return record{}, fmt.Errorf("corrected seal record has %d payload bytes, want %d", len(body), want)
		}
		off := 24
		rec.drops = make([]int, nDrop)
		for i := range rec.drops {
			rec.drops[i] = int(binary.LittleEndian.Uint64(body[off:]))
			off += 8
		}
		rec.weights = make([]weightEntry, nWeight)
		for i := range rec.weights {
			rec.weights[i].id = int(binary.LittleEndian.Uint64(body[off:]))
			rec.weights[i].w = math.Float64frombits(binary.LittleEndian.Uint64(body[off+8:]))
			off += 16
		}
	default:
		return record{}, fmt.Errorf("unknown record kind %d", rec.kind)
	}
	return rec, nil
}

// segName and snapName are the on-disk file names.
func segName(seq uint64) string    { return fmt.Sprintf("wal-%08d.log", seq) }
func snapName(epoch uint64) string { return fmt.Sprintf("snap-%020d.snap", epoch) }
