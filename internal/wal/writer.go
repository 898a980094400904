package wal

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/registry"
)

// SyncPolicy decides when appended records are made durable. Group
// commit is independent of the policy: records always batch in memory
// and reach the kernel in few large writes; the policy only chooses
// which of those batches also fsync.
type SyncPolicy int

const (
	// SyncBatch (the default) fsyncs every flushed batch: a crash
	// loses at most the records still in the memory buffer.
	SyncBatch SyncPolicy = iota
	// SyncSeal flushes and fsyncs at every sealed epoch, making each
	// published epoch durable while mutations between epochs ride on
	// the batch cadence unsynced.
	SyncSeal
	// SyncInterval fsyncs on a background timer, every syncPeriod.
	SyncInterval
	// SyncNone never fsyncs; the OS page cache decides. Fastest, and a
	// crash can lose everything the kernel had not written back.
	SyncNone
)

// ParseSyncPolicy parses the -wal-sync flag spellings.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "batch":
		return SyncBatch, nil
	case "seal":
		return SyncSeal, nil
	case "interval":
		return SyncInterval, nil
	case "none", "os":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want batch, seal, interval or none)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncBatch:
		return "batch"
	case SyncSeal:
		return "seal"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// Options configures a Writer.
type Options struct {
	// Sync is the fsync policy (default SyncBatch).
	Sync SyncPolicy
	// SegmentBytes rotates the log to a new segment file once the
	// current one exceeds this size (default 64 MiB). Records never
	// span segments.
	SegmentBytes int64
	// BatchBytes flushes the append buffer once it holds this many
	// encoded bytes (default 256 KiB) — the group-commit batch size.
	BatchBytes int
	// SnapshotEvery writes a snapshot sidecar and compacts old
	// segments every this many sealed epochs (0 disables compaction;
	// the log then grows without bound).
	SnapshotEvery int
	// Metrics is the optional lb_wal_* bundle (nil disables).
	Metrics *obs.WALMetrics
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.BatchBytes <= 0 {
		o.BatchBytes = 256 << 10
	}
	return o
}

// snapRef locates a durable snapshot: its epoch and the segment its
// replay position points into.
type snapRef struct {
	epoch uint64
	seg   uint64
}

// pendingSnap is a snapshot capture. Sealed takes the part that only
// the seal barrier knows — the log position after the seal record,
// the id counter and live count, the sorted correction, the
// pre-correction bids of its live ids and the bitmap of the ids
// written since the previous capture — in O(correction) time;
// Published attaches the immutable epoch it covers; the background
// compactor streams the file from both (see streamSidecar).
type pendingSnap struct {
	epoch uint64
	next  int
	live  int    // uncorrected live count: the file's entry count
	seg   uint64 // replay position: first byte after the covering seal record
	off   int64
	drops []int
	wts   []weightEntry
	pre   []bidEntry         // uncorrected bids of the correction's live ids, ascending id
	dirty []uint64           // one bit per id written since the previous capture
	snap  *registry.Snapshot // the published (corrected) epoch
}

// snapChain is what the compactor knows of the sidecar the next delta
// would rest on: the newest durable sidecar this writer wrote, and the
// deltas written since the last full one.
type snapChain struct {
	epoch  uint64 // 0: there is none, so the next sidecar is full
	deltas int
	bytes  int64 // the deltas' total size
}

// bidEntry is one (id, bid) pair.
type bidEntry struct {
	id int
	t  float64
}

// Writer is the registry.Journal implementation: it encodes every
// mutation and seal into the append buffer under the caller's registry
// locks (cheap: a bounds check and a memcpy; consecutive mutations
// share one run record, whose CRC is paid once when it closes, and a
// batched group checks its run, group-commit and segment boundaries
// once per run rather than once per entry), group-commits batches to
// segment files, and hands snapshot captures to a background
// compactor. A capture copies nothing per agent: at the
// seal barrier it records the log position and the correction's
// pre-correction bids, and takes the bitmap of ids written since the
// previous capture by swapping in a cleared one; the compactor reads
// every bid it writes from the published Snapshot, which is immutable.
// It also implements registry.BatchJournal, so ApplyBatch journals
// each shard group in one call. All methods are safe for concurrent
// use.
//
// Log I/O errors are sticky: the first one latches, every later append
// becomes a no-op, and Err/Close report it. A registry keeps serving
// on a dead WAL; the operator decides whether that is acceptable. A
// failed sidecar write or compaction does not latch: it is counted in
// lb_wal_snapshot_errors_total, and journaling goes on.
type Writer struct {
	dir  string
	opts Options
	met  *obs.WALMetrics
	dirf *os.File

	mu         sync.Mutex
	f          *os.File
	seg        uint64
	segOff     int64 // flushed bytes in the current segment
	buf        []byte
	fr         frame.Framer // the open run record's frame, if any, in buf
	appends    uint64
	sealsSince int
	pending    *pendingSnap
	dirty      []uint64     // ids written since the last capture, one bit each; kept with SnapshotEvery > 0
	spare      []uint64     // a cleared bitmap for the next capture to swap in
	visitMark  func(id int) // mark, bound once so that a seal's visit allocates nothing
	err        error
	closed     bool

	// The compactor's own state: only writeSnapshot touches it, apart
	// from Open before the compactor starts.
	chain    snapChain
	lastFull snapRef // newest full sidecar known durable
	prevFull snapRef // the full sidecar before it: the retention floor

	snapCh chan *pendingSnap
	stop   chan struct{}
	wg     sync.WaitGroup
}

// Create opens a fresh write-ahead log in dir (created if missing).
// It refuses a directory that already holds segments or snapshots —
// recover those with Open instead of silently shadowing them.
func Create(dir string, opts Options) (*Writer, error) {
	w, err := newWriter(dir, opts)
	if err != nil {
		return nil, err
	}
	segs, snaps, err := scanDir(dir)
	if err == nil && (len(segs) > 0 || len(snaps) > 0) {
		err = fmt.Errorf("wal: %s already holds a log (%d segments, %d snapshots); use Open to recover it", dir, len(segs), len(snaps))
	}
	if err == nil {
		err = w.createSegment(1)
	}
	if err != nil {
		w.dirf.Close()
		return nil, err
	}
	w.start()
	return w, nil
}

// newWriter builds the common writer state (no segment yet, background
// goroutines not started).
func newWriter(dir string, opts Options) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	dirf, err := os.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	opts = opts.withDefaults()
	w := &Writer{
		dir:    dir,
		opts:   opts,
		met:    opts.Metrics,
		dirf:   dirf,
		buf:    make([]byte, 0, opts.BatchBytes+4096),
		snapCh: make(chan *pendingSnap, 1),
		stop:   make(chan struct{}),
	}
	w.visitMark = w.mark
	return w, nil
}

// start launches the background compactor and, under SyncInterval, the
// fsync timer.
func (w *Writer) start() {
	w.wg.Add(1)
	go w.snapLoop()
	if w.opts.Sync == SyncInterval {
		w.wg.Add(1)
		go w.syncLoop()
	}
}

// createSegment opens segment seq and writes its header. Called with
// w.mu held (or before the writer is shared).
func (w *Writer) createSegment(seq uint64) error {
	f, err := os.OpenFile(filepath.Join(w.dir, segName(seq)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var hdr [segHeaderLen]byte
	copy(hdr[:], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:], seq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if w.f != nil {
		// Retire the outgoing segment fully durable: snapshots assume
		// every byte below their replay position survives a crash.
		if err := w.f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("wal: %w", err)
		}
		if err := w.f.Close(); err != nil {
			f.Close()
			return fmt.Errorf("wal: %w", err)
		}
	}
	if err := w.dirf.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	w.f, w.seg, w.segOff = f, seq, segHeaderLen
	w.met.SegmentCreated()
	return nil
}

// continueSegment reopens an existing segment for appending at off,
// truncating anything beyond it (the torn tail recovery identified).
func (w *Writer) continueSegment(seq uint64, off int64) error {
	path := filepath.Join(w.dir, segName(seq))
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Truncate(off); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Seek(off, 0); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	w.f, w.seg, w.segOff = f, seq, off
	return nil
}

// Added implements registry.Journal.
func (w *Writer) Added(id int, t float64) {
	w.mutation(kindAdd, uint64(id), math.Float64bits(t))
}

// Updated implements registry.Journal.
func (w *Writer) Updated(id int, t float64) {
	w.mutation(kindUpdate, uint64(id), math.Float64bits(t))
}

// Removed implements registry.Journal.
func (w *Writer) Removed(id int) {
	w.mutation(kindRemove, uint64(id), 0)
}

// RateChanged implements registry.Journal.
func (w *Writer) RateChanged(rate float64) {
	w.mutation(kindRate, math.Float64bits(rate), 0)
}

// Mutations implements registry.BatchJournal: it appends exactly the
// entries the ops' Added/Updated/Removed calls would, in op order and
// with the same run, group-commit and rotation boundaries, under one
// w.mu acquisition and with one metrics update for the whole call.
// Those boundaries are checked once per run, not once per entry (see
// appendOps), so the log bytes are the per-op methods' own.
func (w *Writer) Mutations(ops []registry.BatchOp) {
	w.mu.Lock()
	if w.err != nil || w.closed {
		w.mu.Unlock()
		return
	}
	// Keep the per-op sampling cadence: one per-entry latency sample
	// (the call's duration over its entry count) for every 1024-entry
	// boundary the call crosses.
	prev := w.appends
	w.appends += uint64(len(ops))
	samples := w.appends>>10 - prev>>10
	var t0 time.Time
	if samples > 0 {
		t0 = time.Now()
	}
	records, bytes := w.appendOps(ops)
	w.mu.Unlock()
	w.met.AppendedBatch(records, bytes)
	if samples > 0 && records > 0 {
		per := time.Since(t0).Seconds() / float64(records)
		for ; samples > 0; samples-- {
			w.met.AppendSampled(per)
		}
	}
}

// appendOps appends the entries of ops and returns how many it
// appended and their bytes, framing included. It checks the run,
// group-commit and segment boundaries once per open run, not once per
// entry: room gives the buffer length the open run may reach before
// any of them, and entries that fit go straight into the buffer. An
// entry that does not fit goes through appendEntry, which opens,
// closes, flushes and rotates exactly as for a per-op call, and the
// room is taken again after it. A latched error ends the call where
// the per-op path would stop: after the entry that raised it. Called
// with w.mu held.
func (w *Writer) appendOps(ops []registry.BatchOp) (records, bytes int) {
	buf, end := w.buf, w.room()
	for i := range ops {
		op := &ops[i]
		var kind byte
		a, b := uint64(op.ID), uint64(0)
		switch op.Kind {
		case registry.BatchAdd:
			kind, b = kindAdd, math.Float64bits(op.T)
		case registry.BatchRebid:
			kind, b = kindUpdate, math.Float64bits(op.T)
		case registry.BatchLeave:
			kind = kindRemove
		default:
			continue
		}
		records++
		if size := entryLen(kind, a); len(buf)+size <= end {
			buf = putEntry(buf, kind, a, b)
			bytes += size
			continue
		}
		w.buf = buf
		bytes += w.appendEntry(kind, a, b)
		buf, end = w.buf, w.room()
		if w.err != nil {
			break
		}
	}
	w.buf = buf
	return records, bytes
}

// mutation appends one mutation entry, or for kindRate a standalone
// rate record. Every 1024th append is timed into the sampled latency
// histogram.
func (w *Writer) mutation(kind byte, a, b uint64) {
	w.mu.Lock()
	if w.err != nil || w.closed {
		w.mu.Unlock()
		return
	}
	w.appends++
	timed := w.appends&1023 == 0
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	var n int
	if kind == kindRate {
		n = w.appendRate(a)
	} else {
		n = w.appendEntry(kind, a, b)
	}
	w.mu.Unlock()
	w.met.AppendedBatch(1, n)
	if timed {
		w.met.AppendSampled(time.Since(t0).Seconds())
	}
}

// appendEntry appends one mutation entry to the open run record, with
// the boundary handling around it: a run opens with the first entry
// and closes early when the entry would take its payload past runCap
// or the segment past SegmentBytes, and the buffer group-commits once
// the entry takes it to the batch threshold. It returns the bytes
// appended: the entry, plus the run's frame header and kind byte when
// it opened one. Called with w.mu held; allocation-free in steady
// state.
func (w *Writer) appendEntry(kind byte, a, b uint64) int {
	size := entryLen(kind, a)
	n := size
	if p := w.fr.Len(w.buf); p < 0 || p+size > runCap || w.segOff+int64(len(w.buf)+size) > w.opts.SegmentBytes {
		w.beginRecord(1 + size)
		w.buf = append(w.fr.Begin(w.buf), kindRun)
		n += frame.HeaderLen + 1
	}
	w.buf = putEntry(w.buf, kind, a, b)
	w.maybeFlush()
	return n
}

// room returns the length the append buffer may reach by entries
// appended to the open run without appendEntry's boundary handling:
// the run's payload stays within runCap, the segment within
// SegmentBytes, and the buffer one byte short of the group-commit
// threshold, so no entry that fits would have opened, closed, flushed
// or rotated anything. With no run open it returns 0, and the next
// entry goes through appendEntry. Called with w.mu held.
func (w *Writer) room() int {
	p := w.fr.Len(w.buf)
	if p < 0 {
		return 0
	}
	end := min(len(w.buf)-p+runCap, w.opts.BatchBytes-1)
	if seg := w.opts.SegmentBytes - w.segOff; seg < int64(end) {
		end = int(seg)
	}
	return end
}

// entryLen returns the encoded length of a mutation entry of kind
// with id a.
func entryLen(kind byte, a uint64) int {
	if kind == kindRemove {
		return 1 + uvarintLen(a)
	}
	return 9 + uvarintLen(a)
}

// putEntry appends one mutation entry — kind, uvarint id a and, for an
// add or update, bid bits b — to buf.
func putEntry(buf []byte, kind byte, a, b uint64) []byte {
	buf = append(buf, kind)
	buf = binary.AppendUvarint(buf, a)
	if kind != kindRemove {
		buf = binary.LittleEndian.AppendUint64(buf, b)
	}
	return buf
}

// markWritten ORs the ids a seal reports written since the previous
// seal into the bitmap of ids written since the last capture. Called
// with w.mu held.
func (w *Writer) markWritten(ev *registry.SealEvent) {
	if ev.Written != nil {
		ev.Written(w.visitMark)
	}
}

// mark sets id's bit in the dirty bitmap, growing the bitmap to cover
// id. Its words past its length are zero up to its capacity, so
// growing within the capacity only reslices. Called with w.mu held,
// through the markWritten visit.
func (w *Writer) mark(id int) {
	i := id >> 6
	if i >= len(w.dirty) {
		w.dirty = slices.Grow(w.dirty, i+1-len(w.dirty))[:i+1]
	}
	w.dirty[i] |= 1 << (id & 63)
}

// fold ORs a dropped capture's bitmap into the one the next capture
// takes, so that the next delta still covers its ids, and keeps the
// other for reuse. Called with w.mu held.
func (w *Writer) fold(d []uint64) {
	if len(d) > len(w.dirty) {
		d, w.dirty = w.dirty, d
	}
	for i, x := range d {
		w.dirty[i] |= x
	}
	w.reuse(d)
}

// reuse clears a bitmap to its capacity and keeps it for the next
// capture to swap in, unless a larger one is waiting. Called with w.mu
// held.
func (w *Writer) reuse(d []uint64) {
	if cap(d) > cap(w.spare) {
		clear(d[:cap(d)])
		w.spare = d[:0]
	}
}

// appendRate closes the open run and appends a standalone rate record
// holding the rate bits; it returns the framed record size. Called
// with w.mu held.
func (w *Writer) appendRate(bits uint64) int {
	w.beginRecord(9)
	w.buf = append(w.fr.Begin(w.buf), kindRate)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, bits)
	w.buf = w.fr.Close(w.buf)
	w.maybeFlush()
	return frame.HeaderLen + 9
}

// Sealed implements registry.Journal. It runs under every registry
// shard lock — the barrier that makes the log replayable — so it only
// encodes: it closes the open run (a checksum over at most runCap
// bytes), then appends the seal record — a plain seal is 17 payload
// bytes, a corrected seal inlines the sorted correction. With
// snapshots on, it ORs the ids ev.Written visits into the dirty
// bitmap, and on the snapshot cadence it captures the log position
// plus the pre-correction bids of the correction's live ids, read from
// ev.T; Published supplies the rest of the population. No fsync happens
// here; SyncSeal defers it to Published, outside the locks.
func (w *Writer) Sealed(ev registry.SealEvent) {
	var drops []int
	var wts []weightEntry
	corrected := false
	if c := ev.Correction; c != nil && (len(c.Drop) > 0 || len(c.Weights) > 0) {
		corrected = true
		drops = make([]int, 0, len(c.Drop))
		for id := range c.Drop {
			drops = append(drops, id)
		}
		sort.Ints(drops)
		wts = make([]weightEntry, 0, len(c.Weights))
		for id, wt := range c.Weights {
			wts = append(wts, weightEntry{id: id, w: wt})
		}
		sort.Slice(wts, func(i, j int) bool { return wts[i].id < wts[j].id })
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil || w.closed {
		return
	}
	payload := 17
	if corrected {
		payload = 25 + 8*len(drops) + 16*len(wts)
	}
	w.beginRecord(payload)
	w.buf = w.fr.Begin(w.buf)
	if corrected {
		w.buf = append(w.buf, kindSealC)
	} else {
		w.buf = append(w.buf, kindSeal)
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, ev.Epoch)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(ev.Rate))
	if corrected {
		w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(drops)))
		w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(wts)))
		for _, id := range drops {
			w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(id))
		}
		for _, e := range wts {
			w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(e.id))
			w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(e.w))
		}
	}
	w.buf = w.fr.Close(w.buf)
	w.met.AppendedBatch(1, frame.HeaderLen+payload)

	if w.opts.SnapshotEvery > 0 {
		w.markWritten(&ev)
		w.sealsSince++
		if w.sealsSince >= w.opts.SnapshotEvery {
			w.sealsSince = 0
			w.pending = &pendingSnap{
				epoch: ev.Epoch,
				next:  ev.Next,
				live:  ev.Live,
				seg:   w.seg,
				off:   w.segOff + int64(len(w.buf)),
				drops: drops,
				wts:   wts,
				pre:   preCorrection(ev.T, drops, wts),
				dirty: w.dirty,
			}
			w.dirty, w.spare = w.spare, nil
		}
	}
	w.maybeFlush()
}

// Published implements registry.Journal: the deferred I/O half of a
// seal, outside the registry's shard locks. SyncSeal commits here, and
// a snapshot captured by Sealed gets the published epoch attached and
// goes to the background compactor — or, when the compactor is still
// writing the previous one, is dropped and counted in
// lb_wal_snapshots_skipped_total, its bitmap folded back into the one
// the next capture takes.
func (w *Writer) Published(snap *registry.Snapshot) {
	w.mu.Lock()
	var p *pendingSnap
	if w.pending != nil && w.pending.epoch == snap.Epoch() {
		p, w.pending = w.pending, nil
		p.snap = snap
	}
	if w.opts.Sync == SyncSeal && w.err == nil && !w.closed {
		w.flushLocked(true)
	}
	w.mu.Unlock()
	if p != nil {
		select {
		case w.snapCh <- p:
		default:
			// The compactor is still writing the previous snapshot;
			// drop this capture and let the next cadence retry.
			w.met.SnapshotSkipped()
			w.mu.Lock()
			w.fold(p.dirty)
			w.mu.Unlock()
		}
	}
}

// beginRecord rotates the segment, flushing and so sealing the open
// run, if a record of payload bytes would overflow it. Called with w.mu
// held, before the record's frame opens.
func (w *Writer) beginRecord(payload int) {
	rec := int64(frame.HeaderLen + payload)
	if pos := w.segOff + int64(len(w.buf)); pos+rec > w.opts.SegmentBytes && pos > segHeaderLen {
		w.flushLocked(w.opts.Sync == SyncBatch)
		if w.err == nil {
			if err := w.createSegment(w.seg + 1); err != nil {
				w.err = err
			}
		}
	}
}

// maybeFlush group-commits once the batch threshold is reached.
func (w *Writer) maybeFlush() {
	if len(w.buf) >= w.opts.BatchBytes {
		w.flushLocked(w.opts.Sync == SyncBatch)
	}
}

// flushLocked closes the open run, writes the append buffer to the
// segment file and optionally fsyncs. Called with w.mu held; errors
// latch into w.err.
func (w *Writer) flushLocked(sync bool) {
	w.buf = w.fr.Close(w.buf)
	if w.err != nil || len(w.buf) == 0 {
		if sync && w.err == nil && w.f != nil {
			if err := w.f.Sync(); err != nil {
				w.err = fmt.Errorf("wal: %w", err)
			}
		}
		return
	}
	t0 := time.Now()
	n, err := w.f.Write(w.buf)
	if err != nil {
		w.err = fmt.Errorf("wal: %w", err)
		return
	}
	w.segOff += int64(n)
	w.buf = w.buf[:0]
	if sync {
		if err := w.f.Sync(); err != nil {
			w.err = fmt.Errorf("wal: %w", err)
			return
		}
	}
	w.met.Flushed(n, sync, time.Since(t0).Seconds())
}

// Sync flushes the append buffer and fsyncs the segment, regardless of
// policy.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.err
	}
	w.flushLocked(true)
	return w.err
}

// Err returns the sticky I/O error, if any.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Tell returns the current log position — the segment sequence and the
// offset just past the last appended byte (buffered bytes included).
// It leaves the open run open, so the offset may fall inside a run
// record: a mutation survives a crash only once its run has closed.
func (w *Writer) Tell() (seg uint64, off int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seg, w.segOff + int64(len(w.buf))
}

// Close flushes, fsyncs, stops the background goroutines (draining any
// pending snapshot) and closes the files. It returns the sticky error.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		err := w.err
		w.mu.Unlock()
		return err
	}
	w.closed = true
	w.flushLocked(true)
	w.mu.Unlock()

	close(w.stop)
	w.wg.Wait()
	w.mu.Lock()
	if w.f != nil {
		if err := w.f.Close(); err != nil && w.err == nil {
			w.err = fmt.Errorf("wal: %w", err)
		}
		w.f = nil
	}
	w.dirf.Close()
	err := w.err
	w.mu.Unlock()
	return err
}

// Abandon simulates dying without a flush: the append buffer is
// dropped on the floor and the files are closed as-is. Anything the
// sync policy had not yet committed is lost — which is the point: it
// is the tests' stand-in for kill -9, and they recover from what was
// durable.
func (w *Writer) Abandon() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.buf = w.buf[:0]
	w.fr = frame.Framer{}
	w.pending = nil
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	w.mu.Unlock()
	// Drop any captured-but-unwritten snapshot too: a crash would not
	// have persisted it.
	select {
	case <-w.snapCh:
	default:
	}
	close(w.stop)
	w.wg.Wait()
	w.dirf.Close()
}

// syncLoop is the SyncInterval timer.
func (w *Writer) syncLoop() {
	defer w.wg.Done()
	tick := time.NewTicker(syncPeriod)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			w.Sync()
		case <-w.stop:
			return
		}
	}
}

// snapLoop serializes captured snapshots and compacts the log behind
// them, off the serving path.
func (w *Writer) snapLoop() {
	defer w.wg.Done()
	for {
		select {
		case p := <-w.snapCh:
			w.writeSnapshot(p)
		case <-w.stop:
			select {
			case p := <-w.snapCh:
				w.writeSnapshot(p)
			default:
			}
			return
		}
	}
}

// writeSnapshot makes one sidecar durable (tmp file, fsync, rename,
// dir fsync) and then compacts. The sidecar is a delta on the previous
// one when that one is durable and was written by this writer, and the
// deltas on the last full sidecar, this one included, number at most
// chainCap and stay smaller in bytes than a full sidecar; otherwise it
// is full. So the first sidecar after Open, and the first after a
// failed one, is full. Compaction keeps every sidecar from the
// previous full one on, and every segment from that sidecar's replay
// position — from segment 1 while this writer knows of one full
// sidecar only — so when any one sidecar is damaged, recovery still
// has an older chain, or the whole log, whose tail is there. A sidecar
// write or compaction that fails is counted in
// lb_wal_snapshot_errors_total, and leaves no temp file, no delta base
// and no retention floor behind; journaling goes on.
func (w *Writer) writeSnapshot(p *pendingSnap) {
	// Sync the log first: once the snapshot is durable, every byte up
	// to its replay position (p.seg, p.off) must be durable too, or a
	// recovery could find the snapshot pointing past the end of the
	// log. Rotation syncs retired segments, so syncing the current one
	// covers the position regardless of which segment it is in.
	if err := w.Sync(); err != nil {
		return // already latched
	}
	full, delta := sidecarSizes(p)
	base, size := uint64(0), full
	if c := w.chain; c.epoch > 0 && c.deltas < chainCap && c.bytes+delta < full {
		base, size = c.epoch, delta
	}
	err := w.writeSidecar(p, base)
	w.mu.Lock()
	w.reuse(p.dirty)
	w.mu.Unlock()
	if err != nil {
		w.chain = snapChain{}
		w.snapshotFailed()
		return
	}
	if base > 0 {
		w.chain = snapChain{epoch: p.epoch, deltas: w.chain.deltas + 1, bytes: w.chain.bytes + size}
	} else {
		w.chain = snapChain{epoch: p.epoch}
		w.prevFull, w.lastFull = w.lastFull, snapRef{epoch: p.epoch, seg: p.seg}
	}
	deleted, err := w.compact()
	w.met.CompactedSegments(deleted, size, base > 0)
	if err != nil {
		w.snapshotFailed()
	}
}

// writeSidecar streams p to its sidecar file, a delta on the sidecar of
// epoch base when base is nonzero, through a temp file that it removes
// if the write or the rename fails.
func (w *Writer) writeSidecar(p *pendingSnap, base uint64) error {
	path := filepath.Join(w.dir, snapName(p.epoch))
	tmp := path + ".tmp"
	if err := writeDurable(tmp, func(f io.Writer) error { return streamSidecar(f, p, base) }); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := w.dirf.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// compact deletes the sidecars older than the previous full sidecar and
// the segments before its replay position, and returns how many
// segments it deleted. With no previous full sidecar it keeps
// everything.
func (w *Writer) compact() (int, error) {
	floor := w.prevFull
	if floor.epoch == 0 {
		return 0, nil
	}
	segs, snaps, err := scanDir(w.dir)
	if err != nil {
		return 0, err
	}
	deleted, removed := 0, false
	for _, s := range segs {
		if s.seq >= floor.seg {
			break
		}
		if err := os.Remove(s.path); err != nil {
			return deleted, fmt.Errorf("wal: %w", err)
		}
		deleted++
		removed = true
	}
	for _, s := range snaps {
		if s.epoch >= floor.epoch {
			break
		}
		if err := os.Remove(s.path); err != nil {
			return deleted, fmt.Errorf("wal: %w", err)
		}
		removed = true
	}
	if removed {
		if err := w.dirf.Sync(); err != nil {
			return deleted, fmt.Errorf("wal: %w", err)
		}
	}
	return deleted, nil
}

// snapshotFailed counts one failed sidecar write or compaction.
func (w *Writer) snapshotFailed() {
	if w.met != nil {
		w.met.SnapshotErrors.Inc()
	}
}

// removeTemps deletes the snap-<epoch>.snap.tmp files that a crash
// inside a sidecar write leaves behind, and syncs the directory if
// there were any.
func (w *Writer) removeTemps() error {
	ents, err := os.ReadDir(w.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	removed := false
	for _, e := range ents {
		if name := e.Name(); strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap.tmp") {
			if err := os.Remove(filepath.Join(w.dir, name)); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			removed = true
		}
	}
	if removed {
		if err := w.dirf.Sync(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	return nil
}

// writeDurable creates path, fills it with write and fsyncs it. If
// any step after creating it fails, it removes the file.
func writeDurable(path string, write func(io.Writer) error) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}
