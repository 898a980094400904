package registry

import "math"

// Batched mutation. A networked front end that decodes thousands of
// bid ops per wakeup would pay one lock acquisition, one metrics
// round-trip and one journal interaction per op if it replayed them
// through Add/Update/Remove. ApplyBatch amortizes all three: the ops
// are grouped by shard up front, each touched shard's lock is taken
// exactly once, the instrumentation is reported once per batch, and
// each shard group's applied ops reach the journal in one
// BatchJournal.Mutations call, made under that shard's lock before it
// is released. The journal call matters as much as the lock: a WAL
// append takes the writer's own mutex, a full memory fence, so one
// call per op would serialize the ops' cache-missing slot writes
// instead of letting them overlap. A journal without Mutations gets
// the group's per-op calls, in op order, at the same point.
//
// Semantics are exactly those of applying the ops one at a time in
// slice order on a single goroutine: ids are assigned in op order by
// the same global counter, an op may reference an id admitted earlier
// in the same batch, per-id operation order is preserved (ops on one
// id always share a shard), and validation failures map to the same
// conditions as the serial methods — so a sealed epoch after a batch
// is bitwise identical to one sealed after the serial replay, which
// the differential test pins. Ops on *different* ids may reach the
// journal in a different relative order than the slice, the same
// freedom concurrent writers already have; the seal barrier and
// recovery are order-independent across ids.
//
// Failures are reported as per-op result codes rather than errors so
// the hot path never allocates: with res and sc capacity reused across
// calls, ApplyBatch is allocation-free (AllocsPerRun-pinned).
//
// A batch is not transactional: a concurrent Seal may observe a prefix
// of it (never a torn single op), and later ops still apply after an
// earlier op fails. This matches a pipelined connection's semantics —
// each op is acknowledged independently.

// BatchKind selects the mutation a BatchOp applies.
type BatchKind uint8

const (
	// BatchAdd admits an agent bidding T; the assigned id comes back in
	// the op's BatchResult.
	BatchAdd BatchKind = 1
	// BatchRebid changes live agent ID's bid to T.
	BatchRebid BatchKind = 2
	// BatchLeave deregisters live agent ID.
	BatchLeave BatchKind = 3
)

// BatchCode is a per-op outcome. Codes mirror the serial methods'
// error conditions without allocating an error value.
type BatchCode uint8

const (
	// BatchOK: the op applied.
	BatchOK BatchCode = 0
	// BatchBadValue: the bid was non-positive or non-finite (the
	// *alloc.ValueError condition of Add/Update).
	BatchBadValue BatchCode = 1
	// BatchUnknownID: the id was never assigned or is no longer live.
	BatchUnknownID BatchCode = 2
	// BatchBadKind: the op's Kind is not a BatchKind.
	BatchBadKind BatchCode = 3
)

// BatchOp is one mutation in a batch. ID is ignored for BatchAdd; T is
// ignored for BatchLeave.
type BatchOp struct {
	Kind BatchKind
	ID   int
	T    float64
}

// BatchResult is one op's outcome, in op order. ID echoes the op's id
// — for BatchAdd it carries the newly assigned id (valid only when
// Code is BatchOK).
type BatchResult struct {
	ID   int
	Code BatchCode
}

// BatchScratch holds ApplyBatch's reusable grouping state. The zero
// value is ready; reusing one across calls (one per writer goroutine —
// it is not safe for concurrent use) keeps the batch path
// allocation-free.
type BatchScratch struct {
	head, tail []int32   // per shard: first/last op index, -1 when empty
	next       []int32   // per op: next op index on the same shard, -1 at tail
	touched    []int32   // shard indices in first-touch order
	applied    []BatchOp // one shard group's applied ops, for the journal
}

// ApplyBatch applies ops in slice order with one lock acquisition per
// touched shard, appends one BatchResult per op to res, and returns
// the extended slice. See the package-level comment above BatchKind
// for the exact semantics; sc may be nil (a scratch is then allocated
// per call).
func (r *Registry) ApplyBatch(ops []BatchOp, res []BatchResult, sc *BatchScratch) []BatchResult {
	if sc == nil {
		sc = &BatchScratch{}
	}
	nShards := len(r.shards)
	if len(sc.head) != nShards {
		sc.head = make([]int32, nShards)
		sc.tail = make([]int32, nShards)
		for i := range sc.head {
			sc.head[i] = -1
		}
		sc.touched = sc.touched[:0]
	} else {
		for _, s := range sc.touched {
			sc.head[s] = -1
		}
		sc.touched = sc.touched[:0]
	}
	if cap(sc.next) < len(ops) {
		sc.next = make([]int32, len(ops))
	}
	sc.next = sc.next[:len(ops)]

	// Pass 1, in op order: validate, assign add ids from the global
	// counter (so id assignment matches the serial replay exactly), and
	// thread each admissible op onto its shard's list. Ops that fail
	// validation get their code here and never reach a shard.
	base := res
	for i := range ops {
		op := &ops[i]
		rr := BatchResult{ID: op.ID}
		switch op.Kind {
		case BatchAdd:
			if !(op.T > 0) || math.IsInf(op.T, 0) {
				rr.Code = BatchBadValue
				res = append(res, rr)
				continue
			}
			rr.ID = int(r.nextID.Add(1) - 1)
		case BatchRebid:
			if !(op.T > 0) || math.IsInf(op.T, 0) {
				rr.Code = BatchBadValue
				res = append(res, rr)
				continue
			}
			if op.ID < 0 || op.ID >= int(r.nextID.Load()) {
				rr.Code = BatchUnknownID
				res = append(res, rr)
				continue
			}
		case BatchLeave:
			if op.ID < 0 || op.ID >= int(r.nextID.Load()) {
				rr.Code = BatchUnknownID
				res = append(res, rr)
				continue
			}
		default:
			rr.Code = BatchBadKind
			res = append(res, rr)
			continue
		}
		s := int32(rr.ID & r.mask)
		if sc.head[s] < 0 {
			sc.head[s] = int32(i)
			sc.touched = append(sc.touched, s)
		} else {
			sc.next[sc.tail[s]] = int32(i)
		}
		sc.tail[s] = int32(i)
		sc.next[i] = -1
		res = append(res, rr)
	}
	out := res[len(base):]

	// Pass 2: per touched shard, lock once and apply that shard's ops
	// in op order. The bodies mirror Add/Update/Remove exactly —
	// including the coalesced-rebid stamp protocol — minus the per-op
	// lock, metrics and error traffic. With a journal attached, the
	// applied ops collect in sc.applied and are journaled in one call
	// before the shard lock is released.
	var adds, updates, removes, coalesced int64
	for _, s := range sc.touched {
		sh := &r.shards[s]
		sh.mu.Lock()
		j := r.journal
		sc.applied = sc.applied[:0]
		for i := sc.head[s]; i >= 0; i = sc.next[i] {
			op := &ops[i]
			rr := &out[i]
			switch op.Kind {
			case BatchAdd:
				id := rr.ID
				local := id >> r.bits
				v := 1 / op.T
				for len(sh.slotOf) <= local {
					sh.slotOf = append(sh.slotOf, -1)
				}
				var slot int32
				if n := len(sh.free); n > 0 {
					slot = sh.free[n-1]
					sh.free = sh.free[:n-1]
					sh.ts[slot] = op.T
					sh.inv[slot] = v
					sh.stamp[slot] = r.epoch.Load()
				} else {
					slot = int32(len(sh.ts))
					sh.ts = append(sh.ts, op.T)
					sh.inv = append(sh.inv, v)
					sh.stamp = append(sh.stamp, r.epoch.Load())
				}
				sh.slotOf[local] = slot
				sh.padd(v)
				sh.live++
				sh.bump(r.met)
				if j != nil {
					sc.applied = append(sc.applied, BatchOp{Kind: BatchAdd, ID: id, T: op.T})
				}
				adds++
			case BatchRebid:
				slot := sh.slot(op.ID >> r.bits)
				if slot < 0 {
					rr.Code = BatchUnknownID
					continue
				}
				v := 1 / op.T
				now := r.epoch.Load()
				if sh.stamp[slot] == now {
					coalesced++
				}
				sh.stamp[slot] = now
				sh.padd(v)
				sh.padd(-sh.inv[slot])
				sh.ts[slot] = op.T
				sh.inv[slot] = v
				sh.bump(r.met)
				if j != nil {
					sc.applied = append(sc.applied, *op)
				}
				updates++
			case BatchLeave:
				slot := sh.slot(op.ID >> r.bits)
				if slot < 0 {
					rr.Code = BatchUnknownID
					continue
				}
				sh.padd(-sh.inv[slot])
				sh.slotOf[op.ID>>r.bits] = -1
				sh.ts[slot] = 0
				sh.inv[slot] = 0
				sh.free = append(sh.free, slot)
				sh.live--
				sh.bump(r.met)
				if j != nil {
					sc.applied = append(sc.applied, *op)
				}
				removes++
			}
		}
		if len(sc.applied) > 0 {
			j.Mutations(sc.applied)
		}
		sh.mu.Unlock()
	}
	r.met.AppliedBatch(adds, updates, removes, coalesced)
	return res
}
