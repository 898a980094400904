// Package wal makes the concurrent bid registry crash-recoverable: an
// append-only binary write-ahead log that internal/registry writes
// through (via the registry.Journal hook), periodic snapshot
// compaction, and recovery that rebuilds a registry whose sealed
// epochs are bit-for-bit identical to the pre-crash ones.
//
// The log is a sequence of segment files (wal-<seq>.log), each opening
// with the magic LBWAL003 and its sequence number. Every record is one
// internal/frame frame, the format the wire protocol's messages travel
// in too:
//
//	[u32 payload length][u32 CRC32C(payload)][payload]
//
// with little-endian integers throughout. Here a payload holds at most
// maxRecordLen bytes, and a frame that breaks the format or is cut
// short is a torn record (see replayRecords), never one to apply. The
// payload starts with a one-byte kind: a run of add/rebid/leave
// mutations, a rate change, or a seal (plain, or corrected with the
// health adjustment inlined). A run (kind 7) packs consecutive
// mutations under one header and one checksum, the writer's open
// frame; each entry is [kind u8][uvarint id][f64 bid], the bid omitted
// for a leave, so a rebid of one of 2^21 agents costs 12 bytes. A run
// closes before any seal or rate record, at every group-commit
// flush, before the segment rotates, and at runCap payload bytes,
// which bounds what closing it costs inside a seal. Appends
// group-commit: records accumulate in a memory buffer that is written
// to the segment in batches, and fsync runs under a configurable
// policy (every batch, every seal, on an interval, or never). The
// append path allocates nothing in steady state.
//
// Older segments stay readable. LBWAL002 segments hold runs whose
// entries carry a fixed-width u64 id; LBWAL001 segments hold no runs,
// every mutation being a standalone kind 1-3 record. One entry decoder
// reads all three, keyed by the segment magic. Open appends to a fresh
// LBWAL003 segment rather than to an older tail, so a reader that
// knows only an older format refuses a newer log on its magic rather
// than misreading its entries.
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
// epoch's source state — the uncorrected population, the rate, the
// correction, and the canonical S of the covered epoch for a recovery
// self-check — plus the log position just after the covering seal
// record. A full sidecar (magic LBSNAP02) holds the population as a
// dense bid array, one f64 per issued id with 0 for an absent one (the
// layout of registry.Snapshot itself). A delta sidecar (LBSNAP03) names
// the epoch of the sidecar it rests on, its base, and holds the same
// header and correction, a bitmap with one bit per issued id set for
// each id written since the base's capture, and one f64 per set bit.
// The writer keeps that bitmap from the seals: each one ORs in the ids
// the registry reports written since the previous seal
// (registry.SealEvent.Written), so appending a mutation sets no bit.
// At the seal barrier a capture takes the bitmap by swapping in a
// cleared one, along with the log position and the pre-correction bids
// of the correction's live ids; after publication a background
// compactor streams the file from the immutable registry.Snapshot,
// reading each bid it writes in place, so the only per-agent work under
// the registry's locks is the visit of the ids written since the last
// seal, and none is done for the file image. A capture dropped because
// the compactor is busy folds its bitmap back into the next one.
// LBSNAP01 sidecars, which list (u64 id, f64 bid) pairs of live agents,
// decode to the same dense form as LBSNAP02 ones.
//
// The compactor writes a delta when the previous sidecar is durable and
// was written by this writer, and the deltas on the last full sidecar,
// this one included, number at most chainCap and stay smaller in bytes
// than a full sidecar; otherwise, and so after Open and after a failed
// sidecar, it writes a full one. How many sidecars are deltas thus
// follows only how much of the population changed between them.
// Compaction keeps every sidecar from the previous full sidecar on and
// deletes every segment older than the one that sidecar points into —
// none while only one full sidecar is known — so recovery has a valid
// chain, or the whole log, whose tail is still there even if any one
// sidecar is damaged. A failed sidecar write or compaction is counted
// and does not stop the journal. Recovery loads the newest sidecar
// whose chain back to a full sidecar holds, checking each link,
// applies the deltas, reseals, verifies S bit-for-bit, replays the log
// tail, and truncates a torn final record (a kill -9 mid-write) at the
// last whole-record boundary.
package wal

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Record kinds. The on-disk values are frozen: recovery of logs
// written by older builds depends on them. Kinds 1-3 are also the
// entry kinds of a run, whose entries are encoded exactly as those
// records' payloads; the writer no longer emits them standalone.
const (
	kindAdd    = byte(1) // id, f64 t
	kindUpdate = byte(2) // id, f64 t
	kindRemove = byte(3) // id
	kindRate   = byte(4) // f64 rate
	kindSeal   = byte(5) // u64 epoch, f64 rate
	kindSealC  = byte(6) // u64 epoch, f64 rate, u32 nDrop, u32 nWeight, nDrop×u64, nWeight×(u64, f64)
	kindRun    = byte(7) // one or more entries: [kind 1|2|3][id][f64 t, kinds 1-2]
)

const (
	// segMagic opens every segment file the writer creates, followed by
	// the u64 segment sequence number (the header is segHeaderLen bytes
	// in all); its entries carry uvarint ids. segMagicV2 marks segments
	// whose run entries carry u64 ids, segMagicV1 segments of the
	// run-less format.
	segMagic     = "LBWAL003"
	segMagicV2   = "LBWAL002"
	segMagicV1   = "LBWAL001"
	segHeaderLen = 16
	// runCap bounds a run record's payload. Every seal closes the open
	// run under all of the registry's shard locks, so the cap bounds
	// the checksum work a seal can inherit.
	runCap = 4 << 10
	// syncPeriod is the fsync cadence under SyncInterval.
	syncPeriod = 50 * time.Millisecond
	// snapMagic opens every full snapshot sidecar the writer creates,
	// whose body is the dense bid array; snapMagicDelta opens a delta
	// sidecar, which holds only the ids written since the sidecar it
	// names as its base; snapMagicV1 marks sidecars listing (id, bid)
	// pairs.
	snapMagic      = "LBSNAP02"
	snapMagicDelta = "LBSNAP03"
	snapMagicV1    = "LBSNAP01"
	// chainCap bounds the deltas written on top of one full sidecar:
	// the compactor writes a full sidecar instead of the next delta
	// once chainCap deltas rest on the last one, so recovery reads at
	// most chainCap deltas past a full sidecar.
	chainCap = 8
	// maxRecordLen bounds a decoded payload length: anything larger is
	// treated as log corruption rather than allocated.
	maxRecordLen = 1 << 26
	// maxReplayID bounds agent ids accepted during replay: registries
	// size internal tables by the highest id, so an implausibly large
	// id in a damaged log is corruption, not an allocation request.
	maxReplayID = 1 << 40
	// replaySlack bounds how far a replayed add may reach past the ids
	// the log backs: recovery refuses an add whose id is at or above
	// the snapshot's id counter (0 without a snapshot), plus the adds
	// replayed so far (this one included), plus replaySlack. The slack
	// covers ids a registry issued but never journaled before the
	// process died, at most the adds of the batches in flight at the
	// crash: 256 connections' worth at the server's default cap of
	// 4096 ops per batch. A forged id thus costs recovery at most
	// replaySlack ids of registry state (about 16 MiB of records and
	// sealed bids) beyond what the log's records back.
	replaySlack = 1 << 20
)

// weightEntry is one (id, weight) pair of a corrected seal record.
// Correction ids are u64 on disk and stay 64-bit in memory until
// recovery matches them to agents (see correction), so a 32-bit build
// reads the same ids a 64-bit one does.
type weightEntry struct {
	id uint64
	w  float64
}

// record is one decoded log record.
type record struct {
	kind    byte
	epoch   uint64  // seal records
	rate    float64 // rate and seal records
	drops   []uint64
	weights []weightEntry
	run     []byte // mutations: the entries, every one checked to parse
	varint  bool   // mutations: the entries carry uvarint ids
}

// entry is one decoded mutation: its kind, its id and, for an add or
// update, its bid. The id stays 64-bit until replay has bounded it,
// since an int wraps it on a 32-bit build.
type entry struct {
	kind byte
	id   uint64
	t    float64
}

// uvarintLen returns the length of v's uvarint encoding.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// decodeEntry parses the mutation entry (or standalone mutation
// payload) at the front of p and returns it with its length. Its id is
// a uvarint when varint is set (LBWAL003) and a u64 otherwise; a
// varint that is cut short, overflows or is longer than needed, and
// an id above maxReplayID, are errors.
func decodeEntry(p []byte, varint bool) (entry, int, error) {
	e := entry{kind: p[0]}
	if e.kind != kindAdd && e.kind != kindUpdate && e.kind != kindRemove {
		return entry{}, 0, fmt.Errorf("entry has kind %d", e.kind)
	}
	var id uint64
	n := 1
	if varint {
		v, k := binary.Uvarint(p[1:])
		switch {
		case k == 0:
			return entry{}, 0, fmt.Errorf("entry id is cut short")
		case k < 0:
			return entry{}, 0, fmt.Errorf("entry id overflows 64 bits")
		case k > 1 && p[k] == 0:
			return entry{}, 0, fmt.Errorf("entry id is not minimally encoded")
		}
		id, n = v, 1+k
	} else {
		if len(p) < 9 {
			return entry{}, 0, fmt.Errorf("entry is cut short (%d of 9 id bytes)", len(p))
		}
		id, n = binary.LittleEndian.Uint64(p[1:]), 9
	}
	if id > maxReplayID {
		return entry{}, 0, fmt.Errorf("implausible agent id %d", id)
	}
	e.id = id
	if e.kind != kindRemove {
		if len(p) < n+8 {
			return entry{}, 0, fmt.Errorf("entry is cut short (%d of %d bytes)", len(p), n+8)
		}
		e.t = math.Float64frombits(binary.LittleEndian.Uint64(p[n:]))
		n += 8
	}
	return e, n, nil
}

// decodeRecord parses a CRC-verified payload from a segment whose
// entries carry uvarint ids when varint is set. It returns an error
// for a malformed payload (truncated fields, unknown kind, inconsistent
// correction counts, a run cut mid-entry or holding an entry of
// another kind or an undecodable id) — the reader treats that as
// corruption.
func decodeRecord(p []byte, varint bool) (record, error) {
	if len(p) == 0 {
		return record{}, fmt.Errorf("empty record payload")
	}
	rec := record{kind: p[0]}
	body := p[1:]
	switch rec.kind {
	case kindAdd, kindUpdate, kindRemove:
		// A standalone mutation replays as a run of one entry.
		_, n, err := decodeEntry(p, varint)
		if err != nil {
			return record{}, fmt.Errorf("mutation record: %w", err)
		}
		if n != len(p) {
			return record{}, fmt.Errorf("mutation record has %d payload bytes, want %d", len(p), n)
		}
		rec.run, rec.varint = p, varint
	case kindRun:
		if len(body) == 0 {
			return record{}, fmt.Errorf("run record holds no entries")
		}
		for off := 0; off < len(body); {
			_, n, err := decodeEntry(body[off:], varint)
			if err != nil {
				return record{}, fmt.Errorf("run entry at byte %d: %w", 1+off, err)
			}
			off += n
		}
		rec.run, rec.varint = body, varint
	case kindRate:
		if len(body) != 8 {
			return record{}, fmt.Errorf("rate record has %d payload bytes, want 8", len(body))
		}
		rec.rate = math.Float64frombits(binary.LittleEndian.Uint64(body))
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
		rec.drops, rec.weights = decodeCorrection(body[24:], nDrop, nWeight)
	default:
		return record{}, fmt.Errorf("unknown record kind %d", rec.kind)
	}
	return rec, nil
}

// decodeCorrection parses nDrop u64 ids and then nWeight (u64 id, f64
// weight) pairs from b, whose length the caller has checked.
func decodeCorrection(b []byte, nDrop, nWeight int) ([]uint64, []weightEntry) {
	drops := make([]uint64, nDrop)
	for i := range drops {
		drops[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	b = b[8*nDrop:]
	wts := make([]weightEntry, nWeight)
	for i := range wts {
		wts[i].id = binary.LittleEndian.Uint64(b[16*i:])
		wts[i].w = math.Float64frombits(binary.LittleEndian.Uint64(b[16*i+8:]))
	}
	return drops, wts
}

// segName and snapName are the on-disk file names.
func segName(seq uint64) string    { return fmt.Sprintf("wal-%08d.log", seq) }
func snapName(epoch uint64) string { return fmt.Sprintf("snap-%020d.snap", epoch) }
