package registry

import "fmt"

// Journal is the write-ahead hook on the registry's mutation and seal
// paths: a durability layer (internal/wal) implements it to persist
// every state change in an order that replays to the identical sealed
// state. The contract the registry guarantees — and recovery depends
// on — is:
//
//   - Added/Updated/Removed are invoked while the mutated shard's lock
//     is held, after the mutation is applied and before that lock is
//     released. Calls for the same id therefore arrive in application
//     order (same id ⇒ same shard ⇒ same lock); calls for distinct ids
//     may interleave arbitrarily across shards, which is harmless
//     because mutations of distinct ids commute under the canonical
//     seal reduction. The serial Add/Update/Remove journal each
//     mutation immediately; ApplyBatch journals a shard group's
//     applied ops together, in op order, once the group is applied
//     and still under the group's lock (see BatchJournal).
//
//   - Sealed is invoked while EVERY shard lock is held, after the
//     population copy. It is therefore a barrier in the journal
//     stream: every mutation journaled before it was observed by the
//     sealed epoch, and every mutation journaled after it was not.
//     Implementations must be fast — they stall all writers, and
//     lb_registry_seal_hold_seconds counts their time — and must not
//     call back into the registry (the locks are held). What they
//     capture here should be O(1) in the population: the Snapshot
//     that Published delivers carries the whole epoch.
//
//   - Published is invoked after the sealed snapshot is visible to
//     readers, with the shard locks released (the seal mutex is still
//     held, so Published calls are serialized in epoch order). This is
//     where an implementation does deferred I/O: group-commit fsync,
//     snapshot capture hand-off. The snapshot is immutable, so an
//     implementation may keep it and read it later, off the seal path.
//
//   - RateChanged is serialized against seals (SetRate holds the seal
//     mutex while journaling), so rate records interleave with seal
//     records in application order.
//
// All methods must be safe for concurrent use.
type Journal interface {
	// Added records an admitted agent: id was assigned to bid t.
	Added(id int, t float64)
	// Updated records a rebid of a live agent.
	Updated(id int, t float64)
	// Removed records a departure.
	Removed(id int)
	// RateChanged records a change of the total arrival rate.
	RateChanged(rate float64)
	// Sealed records an epoch seal at the barrier. See SealEvent for
	// the view it carries; the event's slices and maps are valid only
	// during the call.
	Sealed(ev SealEvent)
	// Published delivers the sealed (corrected) snapshot after
	// publication; it stays valid for as long as it is referenced.
	Published(snap *Snapshot)
}

// BatchJournal is an optional Journal extension for ApplyBatch. A
// journal that implements it receives each shard group's applied ops
// in one Mutations call instead of one Added/Updated/Removed call per
// op; a journal that does not keeps the per-op calls. The registry
// resolves which path to take once, in New and AttachJournal.
//
// Mutations is invoked under the same guarantees as the per-op
// methods: while the group's shard lock is held, after every op in
// the group is applied, with ops in the batch's slice order (so
// per-id application order holds) — it must record exactly what the
// equivalent Added/Updated/Removed calls, made in that order, would.
// Every op in the slice applied successfully: a BatchAdd carries its
// assigned id in ID, and T is meaningless for a BatchLeave. The slice
// is the registry's scratch, valid only during the call.
type BatchJournal interface {
	Journal
	// Mutations records one shard group's applied ops, in op order.
	Mutations(ops []BatchOp)
}

// perOpJournal adapts a Journal without Mutations to BatchJournal by
// replaying each group through the per-op methods; every other call
// goes straight to the wrapped Journal.
type perOpJournal struct{ Journal }

func (j perOpJournal) Mutations(ops []BatchOp) {
	for i := range ops {
		switch op := &ops[i]; op.Kind {
		case BatchAdd:
			j.Added(op.ID, op.T)
		case BatchRebid:
			j.Updated(op.ID, op.T)
		case BatchLeave:
			j.Removed(op.ID)
		}
	}
}

// batchJournal resolves j's batch path: j itself when it implements
// BatchJournal, the per-op adapter otherwise, nil for no journal.
func batchJournal(j Journal) BatchJournal {
	switch bj := j.(type) {
	case nil:
		return nil
	case BatchJournal:
		return bj
	default:
		return perOpJournal{j}
	}
}

// SealEvent is the journal's view of one epoch seal, captured at the
// barrier point (all shard locks held, before any correction is
// applied to the sealed copy).
type SealEvent struct {
	// Epoch is the sealed epoch number.
	Epoch uint64
	// Rate is the total arrival rate frozen into the epoch.
	Rate float64
	// Next is the id counter floor: every id ever assigned is < Next.
	Next int
	// Live is the number of live agents at the barrier.
	Live int
	// Correction is the health correction the seal will apply to the
	// sealed copy (nil for a plain Seal). The maps are owned by the
	// sealer's caller: read them only during the call.
	Correction *Correction
	// T is the uncorrected live population, id-indexed (T[id] is the
	// bid; 0 marks an absent id), with len(T) == Next. The slice is the
	// seal's working copy, valid only during the call: the seal then
	// applies the correction to it in place and publishes it as the
	// Snapshot's bid array. A journal that needs uncorrected bids later
	// keeps only those of the correction's ids; the published Snapshot
	// holds every other bid unchanged.
	T []float64
	// Written calls visit once for each id written — added, rebid or
	// removed — since the previous seal or AttachJournal, whichever
	// came later, in no fixed order: a read-only, allocation-free walk
	// of the registry's written-since-seal bits, which the seal clears
	// only after Sealed returns. Call it only during Sealed; it costs
	// one visit per written id plus a scan of one bit per issued id.
	Written func(visit func(id int))
}

// AttachJournal wires a journal into the registry after construction —
// the recovery path: a WAL replays into an unjournaled registry, then
// attaches its writer before serving resumes. The attach takes every
// shard lock plus the seal mutex, so it linearizes against all
// concurrent mutations and seals; mutations applied before the attach
// are not journaled. The attach restarts the written-since-seal bits
// as a seal does, so the first SealEvent.Written after it visits only
// ids the new journal saw written; a rebid right after an attach is
// not counted as coalesced with a write from before it. A nil journal
// detaches.
func (r *Registry) AttachJournal(j Journal) {
	r.sealMu.Lock()
	for i := range r.shards {
		r.shards[i].mu.Lock()
	}
	r.journal = batchJournal(j)
	for i := range r.shards {
		clear(r.shards[i].written)
		r.shards[i].mu.Unlock()
	}
	r.sealMu.Unlock()
}

// RestoreAgent installs a live agent at an explicit id — the crash-
// recovery replay path for journaled add records, which carry the ids
// the original registry assigned. It raises the id counter past id, so
// ids stay monotone and never recycled across restarts. A t that
// alloc.ValidT rejects is a *alloc.ValueError; restoring an id that is
// already live is an error. Restore must finish before a Journal is
// attached and concurrent traffic starts.
func (r *Registry) RestoreAgent(id int, t float64) error {
	if err := checkT(t); err != nil {
		return err
	}
	if id < 0 {
		return unknownID(id)
	}
	for {
		cur := r.nextID.Load()
		if int64(id) < cur {
			break
		}
		if r.nextID.CompareAndSwap(cur, int64(id)+1) {
			break
		}
	}
	sh := &r.shards[id&r.mask]
	local := id >> r.bits

	sh.mu.Lock()
	if sh.get(local) != nil {
		sh.mu.Unlock()
		return fmt.Errorf("registry: restore of already-live id %d", id)
	}
	sh.add(local, t)
	sh.mu.Unlock()
	return nil
}

// RestoreNext raises the id counter floor to next (never lowers it) —
// recovery replays it from a snapshot so that ids assigned before the
// crash but removed before the snapshot stay retired forever.
func (r *Registry) RestoreNext(next int) {
	for {
		cur := r.nextID.Load()
		if int64(next) <= cur {
			return
		}
		if r.nextID.CompareAndSwap(cur, int64(next)) {
			return
		}
	}
}

// RestoreEpoch sets the seal counter so that the NEXT seal publishes
// epoch+1 — recovery calls it immediately before replaying each
// journaled seal record, pinning replayed epoch numbers to the
// originals. Recovery-only: resetting the counter under live readers
// would publish duplicate epoch numbers.
func (r *Registry) RestoreEpoch(epoch uint64) {
	r.epoch.Store(epoch)
}
