package registry

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// neverAssigned is an id no test registry reaches.
const neverAssigned = 1 << 30

// genBatch draws a batch of size ops over live (ids admitted by earlier
// batches and not yet retired) and over the ids the batch's own adds
// will be assigned: ids come from one global counter, so the batch's
// k-th valid add gets next+k. Rebids and leaves may target an id
// admitted earlier in the same batch, an id repeats within the batch
// (also after its own leave, when the repeat must fail as unknown), and
// deliberately invalid ops (bad bids, never-assigned ids, bad kinds)
// cover the failure codes.
func genBatch(rng *rand.Rand, live []int, next, size int) []BatchOp {
	ops := make([]BatchOp, 0, size)
	var fresh []int // ids admitted earlier in this batch
	last := -1      // the id the batch's latest add, rebid or leave targeted
	bid := func() float64 { return 0.5 + rng.Float64()*9.5 }
	for len(ops) < size {
		id, known := last, last >= 0
		switch {
		case len(fresh) > 0 && (len(live) == 0 || rng.Intn(4) == 0):
			id, known = fresh[rng.Intn(len(fresh))], true
		case len(live) > 0:
			id, known = live[rng.Intn(len(live))], true
		}
		switch k := rng.Intn(20); {
		case k < 7 || !known: // add
			if rng.Intn(12) == 0 {
				ops = append(ops, BatchOp{Kind: BatchAdd, T: -1}) // invalid: assigns no id
				continue
			}
			ops = append(ops, BatchOp{Kind: BatchAdd, T: bid()})
			fresh = append(fresh, next)
			last = next
			next++
		case k < 19: // rebid or leave: of the drawn id, or again of the last one
			if k >= 15 && last >= 0 {
				id = last
			}
			switch r := rng.Intn(12); {
			case r == 0:
				ops = append(ops, BatchOp{Kind: BatchRebid, ID: id, T: math.NaN()})
			case r == 1:
				ops = append(ops, BatchOp{Kind: BatchRebid, ID: neverAssigned, T: 1})
			case r == 2:
				ops = append(ops, BatchOp{Kind: BatchLeave, ID: -1})
			case r < 6:
				ops = append(ops, BatchOp{Kind: BatchLeave, ID: id})
				last = id
			default:
				ops = append(ops, BatchOp{Kind: BatchRebid, ID: id, T: bid()})
				last = id
			}
		default:
			ops = append(ops, BatchOp{Kind: BatchKind(99), ID: 0, T: 1}) // bad kind
		}
	}
	return ops
}

// settleBatch feeds a batch's outcome back into the generator's live
// set: the ids its adds were assigned join it, the ids its leaves
// retired drop out.
func settleBatch(live []int, ops []BatchOp, res []BatchResult) []int {
	for i, rr := range res {
		if rr.Code != BatchOK {
			continue
		}
		switch ops[i].Kind {
		case BatchAdd:
			live = append(live, rr.ID)
		case BatchLeave:
			j := slices.Index(live, rr.ID)
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	return live
}

// applySerial replays a batch through the one-at-a-time methods and
// returns the per-op results ApplyBatch should reproduce.
func applySerial(r *Registry, ops []BatchOp) []BatchResult {
	res := make([]BatchResult, 0, len(ops))
	for _, op := range ops {
		rr := BatchResult{ID: op.ID}
		switch op.Kind {
		case BatchAdd:
			id, err := r.Add(op.T)
			if err != nil {
				rr.Code = BatchBadValue
			} else {
				rr.ID = id
			}
		case BatchRebid:
			switch err := r.Update(op.ID, op.T); {
			case err == nil:
			case checkT(op.T) != nil:
				rr.Code = BatchBadValue
			default:
				rr.Code = BatchUnknownID
			}
		case BatchLeave:
			if err := r.Remove(op.ID); err != nil {
				rr.Code = BatchUnknownID
			}
		default:
			rr.Code = BatchBadKind
		}
		res = append(res, rr)
	}
	return res
}

// TestApplyBatchDifferential pins the batched entry point to the
// serial methods: identical per-op results (codes and assigned ids)
// and bitwise-identical sealed epochs, across seeds and shard counts.
// Each batch's admitted ids feed the next, so the batches mix adds
// with rebids and leaves of live ids, of ids admitted earlier in the
// same batch and of ids the batch itself retired; the op-mix tally at
// the end fails the test if any of those shapes goes undrawn. Even
// seeds run the gather pass from the first id, odd seeds never reach
// gatherMinIDs.
func TestApplyBatchDifferential(t *testing.T) {
	// tally counts ops by kind and code; intra counts rebids and leaves
	// that applied to an id admitted earlier in the same batch, repeats
	// the ops that reached a shard with an id an earlier such op of the
	// batch already had.
	type outcome struct {
		kind BatchKind
		code BatchCode
	}
	tally := map[outcome]int{}
	intra, repeats := 0, 0
	for _, shards := range []int{1, 4, 32} {
		for seed := int64(0); seed < 8; seed++ {
			batched, err := New(Config{Rate: 100, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			serial, err := New(Config{Rate: 100, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if seed%2 == 0 {
				batched.gatherMin = 0
			}
			rng := rand.New(rand.NewSource(seed))
			var live []int
			var res []BatchResult
			sc := &BatchScratch{}
			for round := 0; round < 6; round++ {
				next := int(serial.nextID.Load())
				ops := genBatch(rng, live, next, 1+rng.Intn(400))
				want := applySerial(serial, ops)
				res = batched.ApplyBatch(ops, res[:0], sc)
				if len(res) != len(want) {
					t.Fatalf("shards=%d seed=%d round=%d: %d results, want %d", shards, seed, round, len(res), len(want))
				}
				for i := range want {
					if res[i] != want[i] {
						t.Fatalf("shards=%d seed=%d round=%d op=%d (%+v): got %+v want %+v",
							shards, seed, round, i, ops[i], res[i], want[i])
					}
				}
				seen := map[int]bool{}
				for i, rr := range res {
					tally[outcome{ops[i].Kind, rr.Code}]++
					// Only ops that reached a shard: applied, or
					// unknown because their id had departed.
					if rr.Code != BatchOK && (rr.Code != BatchUnknownID || rr.ID < 0 || rr.ID == neverAssigned) {
						continue
					}
					if ops[i].Kind != BatchAdd && rr.ID >= next && rr.Code == BatchOK {
						intra++
					}
					if seen[rr.ID] {
						repeats++
					}
					seen[rr.ID] = true
				}
				live = settleBatch(live, ops, res)
				sb, ss := batched.Seal(), serial.Seal()
				if sb.Epoch() != ss.Epoch() || sb.N() != ss.N() ||
					math.Float64bits(sb.Sum()) != math.Float64bits(ss.Sum()) {
					t.Fatalf("shards=%d seed=%d round=%d: seal diverged: epoch %d/%d n %d/%d S %x/%x",
						shards, seed, round, sb.Epoch(), ss.Epoch(), sb.N(), ss.N(),
						math.Float64bits(sb.Sum()), math.Float64bits(ss.Sum()))
				}
				if sb.N() != len(live) {
					t.Fatalf("shards=%d seed=%d round=%d: sealed N %d, generator tracks %d live ids",
						shards, seed, round, sb.N(), len(live))
				}
				for _, id := range ss.IDs(nil) {
					vb, okb := sb.Value(id)
					vs, _ := ss.Value(id)
					if !okb || math.Float64bits(vb) != math.Float64bits(vs) {
						t.Fatalf("shards=%d seed=%d round=%d id=%d: value %x want %x (ok=%v)",
							shards, seed, round, id, math.Float64bits(vb), math.Float64bits(vs), okb)
					}
				}
			}
		}
	}
	for _, c := range []outcome{
		{BatchAdd, BatchOK}, {BatchAdd, BatchBadValue},
		{BatchRebid, BatchOK}, {BatchRebid, BatchBadValue}, {BatchRebid, BatchUnknownID},
		{BatchLeave, BatchOK}, {BatchLeave, BatchUnknownID},
		{BatchKind(99), BatchBadKind},
	} {
		if tally[c] == 0 {
			t.Errorf("no op of kind %d ended with code %d; tally %v", c.kind, c.code, tally)
		}
	}
	if intra == 0 || repeats == 0 {
		t.Errorf("%d ops applied to ids admitted in their own batch, %d repeated an id; want both > 0", intra, repeats)
	}
}

// TestApplyBatchIntraBatchDependency checks an op may target an id
// admitted earlier in the same batch, and that per-id order holds.
func TestApplyBatchIntraBatchDependency(t *testing.T) {
	r, err := New(Config{Rate: 10, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	// id0 := add(2); rebid(id0, 4); id1 := add(8); leave(id1); then a
	// rebid of the not-yet-assigned id1+1 must fail, although the batch
	// reserved it up front for a later add. So must a rebid and a leave
	// of id 3, reserved for the last add, before that add takes it;
	// once it has, a rebid of it applies. Id 4 is not even reserved.
	res := r.ApplyBatch([]BatchOp{
		{Kind: BatchAdd, T: 2},
		{Kind: BatchRebid, ID: 0, T: 4},
		{Kind: BatchAdd, T: 8},
		{Kind: BatchLeave, ID: 1},
		{Kind: BatchRebid, ID: 2, T: 1},
		{Kind: BatchAdd, T: -1},
		{Kind: BatchAdd, T: 16},
		{Kind: BatchRebid, ID: 3, T: 1},
		{Kind: BatchLeave, ID: 3},
		{Kind: BatchAdd, T: 32},
		{Kind: BatchRebid, ID: 3, T: 64},
		{Kind: BatchLeave, ID: 4},
	}, nil, nil)
	want := []BatchResult{{ID: 0}, {ID: 0}, {ID: 1}, {ID: 1}, {ID: 2, Code: BatchUnknownID},
		{Code: BatchBadValue}, {ID: 2}, {ID: 3, Code: BatchUnknownID}, {ID: 3, Code: BatchUnknownID}, {ID: 3}, {ID: 3},
		{ID: 4, Code: BatchUnknownID}}
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("op %d: got %+v want %+v", i, res[i], want[i])
		}
	}
	snap := r.Seal()
	if snap.N() != 3 {
		t.Fatalf("N=%d, want 3", snap.N())
	}
	for id, bid := range map[int]float64{0: 4, 2: 16, 3: 64} {
		if v, ok := snap.Value(id); !ok || v != bid {
			t.Fatalf("Value(%d)=%v,%v, want %v", id, v, ok, bid)
		}
	}
}

// TestApplyBatchAllocFree pins the batch hot path, gather pass
// included, at zero allocations once results and scratch are reused
// (steady state of the server's drain loop). Record-array growth
// allocates, so the population is admitted first and the measured
// batches only rebid.
func TestApplyBatchAllocFree(t *testing.T) {
	r, err := New(Config{Rate: 100, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	r.gatherMin = 0
	const n = 256
	ops := make([]BatchOp, n)
	for i := range ops {
		ops[i] = BatchOp{Kind: BatchAdd, T: float64(i + 1)}
	}
	res := make([]BatchResult, 0, n)
	sc := &BatchScratch{}
	res = r.ApplyBatch(ops, res, sc)
	for i := range ops {
		ops[i] = BatchOp{Kind: BatchRebid, ID: res[i].ID, T: float64(i + 2)}
	}
	if a := testing.AllocsPerRun(100, func() {
		res = r.ApplyBatch(ops, res[:0], sc)
	}); a != 0 {
		t.Fatalf("ApplyBatch allocates %.1f/op, want 0", a)
	}
}
