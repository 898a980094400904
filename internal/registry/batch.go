package registry

import (
	"math"

	"repro/internal/alloc"
)

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
// call per op would serialize the ops' cache-missing record writes
// instead of letting them overlap. A journal without Mutations gets
// the group's per-op calls, in op order, at the same point.
//
// The records' cache misses are overlapped explicitly too. Each op of
// a group branches on its record's bid (absent or live) and then runs
// the bid write, the written-bit update and the journal bookkeeping
// before the next op's record is even addressed, so the out-of-order
// window holds only a few ops, and a miss on every op's record would
// be taken a few at a time. Instead, once the registry has issued
// gatherMinIDs ids (records beyond a core's L2), a gather pass loads
// the record of every op in the group right after taking the shard's
// lock; the loads are independent, so the CPU keeps many of their
// misses in flight at once, and the apply loop then finds each record
// in cache. The gather runs under the lock because an add may regrow
// the shard's record array: outside it the loads would race with that
// write. An id admitted earlier in the same batch has no record yet,
// and its index usually lies past the array, so each load is
// bounds-checked; an id the group touches twice is loaded twice,
// which costs a cache hit.
//
// Semantics are exactly those of applying the ops one at a time in
// slice order on a single goroutine: ids are assigned in op order from
// the same global counter (reserved once per batch, see pass 1), an op
// may reference an id admitted earlier in the same batch, per-id
// operation order is preserved (ops on one id always share a shard),
// and validation failures map to the same conditions as the serial
// methods — so a sealed epoch after a batch is bitwise identical to
// one sealed after the serial replay, which the differential test
// pins. Ops on *different* ids may reach the
// journal in a different relative order than the slice, the same
// freedom concurrent writers already have; the seal barrier and
// recovery are order-independent across ids.
//
// Failures are reported as per-op result codes rather than errors so
// the hot path never allocates: with res and sc capacity reused across
// calls, ApplyBatch is allocation-free (AllocsPerRun-pinned).
//
// A batch is not transactional, and a concurrent Seal need not observe
// a prefix of it. Each shard group is applied under one hold of that
// shard's lock, and groups go in first-touch order, so for each shard
// a seal observes all of the batch's ops on that shard or none: per
// shard a prefix of that shard's ops, never a torn op. Across shards
// there is no such order: for ops [a on shard 0, b on shard 1, c on
// shard 0], a seal between the two groups observes {a, c} without b.
// Later ops still apply after an earlier op fails. This matches a
// pipelined connection's semantics — each op is acknowledged
// independently.

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
	// BatchBadValue: alloc.ValidT rejected the bid (the
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
	gather     uint64    // sink of pass 2's record loads (see ApplyBatch)
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

	// Pass 1, in op order: validate, assign add ids, and thread each
	// admissible op onto its shard's list. Ops that fail validation get
	// their code here and never reach a shard. The first valid add
	// reserves the ids of every valid add in the batch with one atomic
	// add on the global counter, and the adds take them in op order, so
	// a batch's ids are consecutive even when other writers interleave.
	// Id assignment matches the serial replay exactly: a rebid or leave
	// of an id reserved for a later add passes the counter check below,
	// but finds no record in pass 2, where the add has not yet run.
	base := res
	next, end := 0, 0 // ids reserved and not yet assigned: [next, end)
	for i := range ops {
		op := &ops[i]
		rr := BatchResult{ID: op.ID}
		switch op.Kind {
		case BatchAdd:
			if !alloc.ValidT(op.T) {
				rr.Code = BatchBadValue
				res = append(res, rr)
				continue
			}
			if next == end {
				n := validAdds(ops[i:])
				end = int(r.nextID.Add(int64(n)))
				next = end - n
			}
			rr.ID = next
			next++
		case BatchRebid:
			if !alloc.ValidT(op.T) {
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
	// in op order through the same shard mutators as Add/Update/Remove
	// — including the written-since-seal bits — minus the per-op
	// lock, metrics and error traffic. With a journal attached, the
	// applied ops collect in sc.applied and are journaled in one call
	// before the shard lock is released.
	var adds, updates, removes, coalesced int64
	gather := int(r.nextID.Load()) >= r.gatherMin
	for _, s := range sc.touched {
		sh := &r.shards[s]
		sh.mu.Lock()
		if gather {
			// The gather pass (see the comment above BatchKind): load
			// every record the group references so their misses
			// overlap. sc.gather keeps the compiler from dropping the
			// loads.
			g := sc.gather
			for i := sc.head[s]; i >= 0; i = sc.next[i] {
				if local := out[i].ID >> r.bits; local < len(sh.recs) {
					g ^= math.Float64bits(sh.recs[local].t)
				}
			}
			sc.gather = g
		}
		j := r.journal
		sc.applied = sc.applied[:0]
		for i := sc.head[s]; i >= 0; i = sc.next[i] {
			op := &ops[i]
			rr := &out[i]
			switch op.Kind {
			case BatchAdd:
				sh.add(rr.ID>>r.bits, op.T)
				if j != nil {
					sc.applied = append(sc.applied, BatchOp{Kind: BatchAdd, ID: rr.ID, T: op.T})
				}
				adds++
			case BatchRebid:
				local := op.ID >> r.bits
				rc := sh.get(local)
				if rc == nil {
					rr.Code = BatchUnknownID
					continue
				}
				if sh.rebid(rc, local, op.T) {
					coalesced++
				}
				if j != nil {
					sc.applied = append(sc.applied, *op)
				}
				updates++
			case BatchLeave:
				local := op.ID >> r.bits
				rc := sh.get(local)
				if rc == nil {
					rr.Code = BatchUnknownID
					continue
				}
				sh.remove(rc, local)
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

// validAdds counts the adds in ops that alloc.ValidT admits.
func validAdds(ops []BatchOp) int {
	n := 0
	for i := range ops {
		if ops[i].Kind == BatchAdd && alloc.ValidT(ops[i].T) {
			n++
		}
	}
	return n
}
