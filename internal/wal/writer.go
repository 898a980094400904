package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

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
	// SyncInterval fsyncs on a background timer (Options.SyncInterval).
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
	// SyncInterval is the fsync cadence under SyncInterval (default
	// 50ms).
	SyncInterval time.Duration
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
	if o.SyncInterval <= 0 {
		o.SyncInterval = 50 * time.Millisecond
	}
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

// pendingSnap is a snapshot captured at the seal barrier, completed
// with the canonical S at publication, and serialized by the
// background compactor.
type pendingSnap struct {
	epoch uint64
	rate  float64
	s     float64
	next  int
	seg   uint64 // replay position: first byte after the covering seal record
	off   int64
	ids   []int
	ts    []float64
	drops []int
	wts   []weightEntry
}

// Writer is the registry.Journal implementation: it encodes every
// mutation and seal into the append buffer under the caller's registry
// locks (cheap: a bounds check, a CRC and a memcpy), group-commits
// batches to segment files, and hands snapshot captures to a
// background compactor. It also implements registry.BatchJournal, so
// ApplyBatch journals each shard group in one call. All methods are
// safe for concurrent use.
//
// I/O errors are sticky: the first one latches, every later append
// becomes a no-op, and Err/Close report it. A registry keeps serving
// on a dead WAL; the operator decides whether that is acceptable.
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
	appends    uint64
	sealsSince int
	pending    *pendingSnap
	lastSnap   snapRef // newest durable snapshot
	prevSnap   snapRef // the one before it (compaction retention floor)
	err        error
	closed     bool

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
	return &Writer{
		dir:    dir,
		opts:   opts,
		met:    opts.Metrics,
		dirf:   dirf,
		buf:    make([]byte, 0, opts.BatchBytes+4096),
		snapCh: make(chan *pendingSnap, 1),
		stop:   make(chan struct{}),
	}, nil
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
	w.mutation(kindAdd, uint64(id), math.Float64bits(t), true)
}

// Updated implements registry.Journal.
func (w *Writer) Updated(id int, t float64) {
	w.mutation(kindUpdate, uint64(id), math.Float64bits(t), true)
}

// Removed implements registry.Journal.
func (w *Writer) Removed(id int) {
	w.mutation(kindRemove, uint64(id), 0, false)
}

// RateChanged implements registry.Journal.
func (w *Writer) RateChanged(rate float64) {
	w.mutation(kindRate, math.Float64bits(rate), 0, false)
}

// Mutations implements registry.BatchJournal: it appends exactly the
// records the ops' Added/Updated/Removed calls would, in op order and
// at the same group-commit and rotation points, under one w.mu
// acquisition and with one metrics update for the whole call.
func (w *Writer) Mutations(ops []registry.BatchOp) {
	w.mu.Lock()
	if w.err != nil || w.closed {
		w.mu.Unlock()
		return
	}
	// Keep the per-op sampling cadence: one per-record latency sample
	// (the call's duration over its record count) for every
	// 1024-record boundary the call crosses.
	prev := w.appends
	w.appends += uint64(len(ops))
	samples := w.appends>>10 - prev>>10
	var t0 time.Time
	if samples > 0 {
		t0 = time.Now()
	}
	records, bytes := 0, 0
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case registry.BatchAdd:
			bytes += w.encodeMutation(kindAdd, uint64(op.ID), math.Float64bits(op.T), true)
		case registry.BatchRebid:
			bytes += w.encodeMutation(kindUpdate, uint64(op.ID), math.Float64bits(op.T), true)
		case registry.BatchLeave:
			bytes += w.encodeMutation(kindRemove, uint64(op.ID), 0, false)
		default:
			continue
		}
		records++
		// A latched error ends the call where the per-op path would
		// stop: after the record that raised it.
		if w.err != nil {
			break
		}
	}
	w.mu.Unlock()
	w.met.AppendedBatch(records, bytes)
	if samples > 0 && records > 0 {
		per := time.Since(t0).Seconds() / float64(records)
		for ; samples > 0; samples-- {
			w.met.AppendSampled(per)
		}
	}
}

// mutation appends one fixed-size record: kind, a, and (when wide) b.
// Every 1024th append is timed into the sampled latency histogram.
func (w *Writer) mutation(kind byte, a, b uint64, wide bool) {
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
	n := w.encodeMutation(kind, a, b, wide)
	w.mu.Unlock()
	w.met.AppendedBatch(1, n)
	if timed {
		w.met.AppendSampled(time.Since(t0).Seconds())
	}
}

// encodeMutation encodes one fixed-size mutation record and
// group-commits if the batch threshold is reached; it returns the
// framed record size. Called with w.mu held; allocation-free in
// steady state.
func (w *Writer) encodeMutation(kind byte, a, b uint64, wide bool) int {
	payload := 9
	if wide {
		payload = 17
	}
	start := w.beginRecord(payload)
	w.buf = append(w.buf, kind)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, a)
	if wide {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, b)
	}
	w.endRecord(start)
	w.maybeFlush()
	return frameLen + payload
}

// Sealed implements registry.Journal. It runs under every registry
// shard lock — the barrier that makes the log replayable — so it only
// encodes: a plain seal is 17 payload bytes, a corrected seal inlines
// the sorted correction, and on the snapshot cadence the live
// population is copied out for the background compactor. No fsync
// happens here; SyncSeal defers it to Published, outside the locks.
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
	start := w.beginRecord(payload)
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
	w.endRecord(start)
	w.met.AppendedBatch(1, frameLen+payload)

	if w.opts.SnapshotEvery > 0 {
		w.sealsSince++
		if w.sealsSince >= w.opts.SnapshotEvery {
			w.sealsSince = 0
			p := &pendingSnap{
				epoch: ev.Epoch,
				rate:  ev.Rate,
				next:  ev.Next,
				seg:   w.seg,
				off:   w.segOff + int64(len(w.buf)),
				ids:   make([]int, 0, ev.Live),
				ts:    make([]float64, 0, ev.Live),
				drops: drops,
				wts:   wts,
			}
			for id, t := range ev.T {
				if t != 0 {
					p.ids = append(p.ids, id)
					p.ts = append(p.ts, t)
				}
			}
			w.pending = p
		}
	}
	w.maybeFlush()
}

// Published implements registry.Journal: the deferred I/O half of a
// seal, outside the registry's shard locks. SyncSeal commits here, and
// a snapshot captured by Sealed is completed with the published
// epoch's canonical S and handed to the background compactor.
func (w *Writer) Published(snap *registry.Snapshot) {
	w.mu.Lock()
	var p *pendingSnap
	if w.pending != nil && w.pending.epoch == snap.Epoch() {
		p, w.pending = w.pending, nil
		p.s = snap.Sum()
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
		}
	}
}

// beginRecord rotates the segment if the framed record would overflow
// it, then reserves the 8-byte frame header. Called with w.mu held.
func (w *Writer) beginRecord(payload int) int {
	rec := int64(frameLen + payload)
	if pos := w.segOff + int64(len(w.buf)); pos+rec > w.opts.SegmentBytes && pos > segHeaderLen {
		w.flushLocked(w.opts.Sync == SyncBatch)
		if w.err == nil {
			if err := w.createSegment(w.seg + 1); err != nil {
				w.err = err
			}
		}
	}
	start := len(w.buf)
	w.buf = append(w.buf, 0, 0, 0, 0, 0, 0, 0, 0)
	return start
}

// endRecord fills the reserved frame header: payload length and CRC32C.
func (w *Writer) endRecord(start int) {
	payload := w.buf[start+frameLen:]
	binary.LittleEndian.PutUint32(w.buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.buf[start+4:], crc32.Checksum(payload, crcTable))
}

// maybeFlush group-commits once the batch threshold is reached.
func (w *Writer) maybeFlush() {
	if len(w.buf) >= w.opts.BatchBytes {
		w.flushLocked(w.opts.Sync == SyncBatch)
	}
}

// flushLocked writes the append buffer to the segment file and
// optionally fsyncs. Called with w.mu held; errors latch into w.err.
func (w *Writer) flushLocked(sync bool) {
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
// offset the next record would land at (buffered bytes included).
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
// sync policy had not yet committed is lost — which is the point; the
// restart demo and the tests recover from what was durable.
func (w *Writer) Abandon() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.buf = w.buf[:0]
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
	tick := time.NewTicker(w.opts.SyncInterval)
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

// writeSnapshot makes one snapshot durable (tmp file, fsync, rename,
// dir fsync) and then compacts: keep this snapshot and the previous
// one, delete older snapshot files, and delete every segment older
// than the segment the previous snapshot's replay position points
// into — the retained tail always suffices to recover from either
// kept snapshot.
func (w *Writer) writeSnapshot(p *pendingSnap) {
	// Sync the log first: once the snapshot is durable, every byte up
	// to its replay position (p.seg, p.off) must be durable too, or a
	// recovery could find the snapshot pointing past the end of the
	// log. Rotation syncs retired segments, so syncing the current one
	// covers the position regardless of which segment it is in.
	if err := w.Sync(); err != nil {
		return // already latched
	}
	data := encodeSnapshot(p)
	tmp := filepath.Join(w.dir, snapName(p.epoch)+".tmp")
	if err := writeDurable(tmp, data); err != nil {
		w.latch(err)
		return
	}
	if err := os.Rename(tmp, filepath.Join(w.dir, snapName(p.epoch))); err != nil {
		w.latch(fmt.Errorf("wal: %w", err))
		return
	}
	if err := w.dirf.Sync(); err != nil {
		w.latch(fmt.Errorf("wal: %w", err))
		return
	}

	w.mu.Lock()
	prev := w.lastSnap
	w.prevSnap = prev
	w.lastSnap = snapRef{epoch: p.epoch, seg: p.seg}
	w.mu.Unlock()

	// Retention floor: with a previous snapshot, segments back to its
	// position stay; the very first snapshot keeps its own tail only.
	floor := p.seg
	if prev.epoch > 0 {
		floor = prev.seg
	}
	segs, snaps, err := scanDir(w.dir)
	if err != nil {
		w.latch(err)
		return
	}
	deleted := 0
	for _, s := range segs {
		if s.seq < floor {
			if err := os.Remove(s.path); err != nil {
				w.latch(fmt.Errorf("wal: %w", err))
				return
			}
			deleted++
		}
	}
	for _, s := range snaps {
		if s.epoch < prev.epoch {
			if err := os.Remove(s.path); err != nil {
				w.latch(fmt.Errorf("wal: %w", err))
				return
			}
		}
	}
	if deleted > 0 {
		if err := w.dirf.Sync(); err != nil {
			w.latch(fmt.Errorf("wal: %w", err))
			return
		}
	}
	w.met.CompactedSegments(deleted)
}

// latch stores a background error into the sticky slot.
func (w *Writer) latch(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

// writeDurable writes data to path and fsyncs it.
func writeDurable(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}
