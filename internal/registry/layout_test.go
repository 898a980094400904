package registry

// Tests for the shard layout: one 8-byte record and one
// written-since-seal bit per issued id.

import (
	"math"
	"math/rand/v2"
	"testing"
	"unsafe"
)

// layoutPop is the population of the layout tests: its ids fill three
// of the seal copy's 4096-id blocks and part of a fourth, and with one
// shard its records span 100 KiB.
const layoutPop = 3*4096 + 500

// TestRecordLayout pins the sizes the hot path is built around: a rebid
// touches one 8-byte record, eight to a cache line, and a shard's hot
// fields fill one 64-byte line padded to two, so neighbouring shards
// never share a line.
func TestRecordLayout(t *testing.T) {
	if got := unsafe.Sizeof(rec{}); got != 8 {
		t.Errorf("sizeof(rec) = %d, want 8", got)
	}
	if got := unsafe.Sizeof(shard{}); got != 128 {
		t.Errorf("sizeof(shard) = %d, want 128", got)
	}
}

// TestRemovedIDChurnDifferential churns a layoutPop population and,
// after every departure, probes the departed id on each path: rebids
// and leaves (serial and batched) fail as unknown, Value reports it
// absent, and RestoreAgent reinstalls it exactly once. Seals along the
// way must match a serial alloc.Stream replay of the applied history
// bitwise, for one shard and several. Each check also pins the
// Snapshot.Bids contract on that epoch and on a corrected epoch over
// the same population: ascending id order parallel to IDs, bitwise
// equal to Value, dst reused when it has the capacity.
func TestRemovedIDChurnDifferential(t *testing.T) {
	const rate = 20.0
	for _, shards := range []int{1, 8} {
		r, err := New(Config{Rate: rate, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(uint64(shards), 99))
		bid := func() float64 { return 0.1 + 10*rng.Float64() }
		var log []op
		var live []int
		sc := &BatchScratch{}
		apply := func(ops ...BatchOp) []BatchResult {
			return r.ApplyBatch(ops, nil, sc)
		}
		for i := 0; i < layoutPop; i++ {
			tv := bid()
			res := apply(BatchOp{Kind: BatchAdd, T: tv})
			live = append(live, res[0].ID)
			log = append(log, op{'a', res[0].ID, tv})
		}

		probeGone := func(id int) {
			t.Helper()
			if err := r.Update(id, 2); err == nil {
				t.Fatalf("shards=%d: Update of departed id %d succeeded", shards, id)
			}
			if err := r.Remove(id); err == nil {
				t.Fatalf("shards=%d: Remove of departed id %d succeeded", shards, id)
			}
			res := apply(BatchOp{Kind: BatchRebid, ID: id, T: 2}, BatchOp{Kind: BatchLeave, ID: id})
			if res[0].Code != BatchUnknownID || res[1].Code != BatchUnknownID {
				t.Fatalf("shards=%d: batched rebid/leave of departed id %d = %v/%v, want unknown",
					shards, id, res[0].Code, res[1].Code)
			}
			if v, ok := r.Value(id); ok || v != 0 {
				t.Fatalf("shards=%d: Value of departed id %d = %v, %v", shards, id, v, ok)
			}
		}
		var bids []float64 // Bids' dst, reused across checks
		checkBids := func(round int, snap *Snapshot) {
			t.Helper()
			prev := bids
			bids = snap.Bids(bids)
			if len(bids) != snap.N() {
				t.Fatalf("shards=%d round=%d epoch %d: Bids has %d entries, N = %d",
					shards, round, snap.Epoch(), len(bids), snap.N())
			}
			if cap(prev) >= snap.N() && snap.N() > 0 && &bids[0] != &prev[:1][0] {
				t.Fatalf("shards=%d round=%d epoch %d: Bids reallocated a dst of capacity %d for %d bids",
					shards, round, snap.Epoch(), cap(prev), snap.N())
			}
			ids := snap.IDs(nil)
			for j, id := range ids {
				if j > 0 && id <= ids[j-1] {
					t.Fatalf("shards=%d round=%d epoch %d: ids not ascending at %d", shards, round, snap.Epoch(), j)
				}
				if v, ok := snap.Value(id); !ok || math.Float64bits(bids[j]) != math.Float64bits(v) {
					t.Fatalf("shards=%d round=%d epoch %d: Bids[%d] = %v, Value(%d) = %v, %v",
						shards, round, snap.Epoch(), j, bids[j], id, v, ok)
				}
			}
		}
		check := func(round int) {
			t.Helper()
			snap := r.Seal()
			st := replay(t, rate, [][]op{log})
			if got, want := snap.Sum(), st.Sealed(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("shards=%d round=%d: sealed S %v, serial replay %v", shards, round, got, want)
			}
			if snap.N() != st.N() {
				t.Fatalf("shards=%d round=%d: sealed N %d, serial replay %d", shards, round, snap.N(), st.N())
			}
			checkBids(round, snap)
			sids, sx := st.SnapshotInto(nil, nil)
			ids := snap.IDs(nil)
			for j, id := range ids {
				sv, _ := st.Value(sids[j])
				x, _ := snap.Load(id)
				if math.Float64bits(bids[j]) != math.Float64bits(sv) || math.Float64bits(x) != math.Float64bits(sx[j]) {
					t.Fatalf("shards=%d round=%d: id %d sealed (t=%v, x=%v), serial replay (t=%v, x=%v)",
						shards, round, id, bids[j], x, sv, sx[j])
				}
			}

			// A corrected epoch over the same population: the first
			// live id dropped, the last one priced at twice its bid.
			drop, half := ids[0], ids[len(ids)-1]
			bid, _ := snap.Value(half)
			cs, err := r.SealCorrected(&Correction{Drop: map[int]bool{drop: true}, Weights: map[int]float64{half: 0.5}})
			if err != nil {
				t.Fatal(err)
			}
			if dropped, discounted := cs.Correction(); dropped != 1 || discounted != 1 || cs.Contains(drop) {
				t.Fatalf("shards=%d round=%d: corrected epoch dropped %d, discounted %d, contains %d: %v",
					shards, round, dropped, discounted, drop, cs.Contains(drop))
			}
			checkBids(round, cs)
			if got := bids[len(bids)-1]; math.Float64bits(got) != math.Float64bits(bid/0.5) {
				t.Fatalf("shards=%d round=%d: corrected Bids of id %d = %v, want %v", shards, round, half, got, bid/0.5)
			}
		}

		for round := 0; round < 6; round++ {
			for step := 0; step < 8192; step++ {
				switch p := rng.IntN(10); {
				case p < 6:
					id, tv := live[rng.IntN(len(live))], bid()
					if res := apply(BatchOp{Kind: BatchRebid, ID: id, T: tv}); res[0].Code != BatchOK {
						t.Fatalf("shards=%d: rebid of live id %d: code %v", shards, id, res[0].Code)
					}
					log = append(log, op{'u', id, tv})
				case p < 9:
					j := rng.IntN(len(live))
					id := live[j]
					if p == 8 {
						if err := r.Remove(id); err != nil {
							t.Fatal(err)
						}
					} else if res := apply(BatchOp{Kind: BatchLeave, ID: id}); res[0].Code != BatchOK {
						t.Fatalf("shards=%d: leave of live id %d: code %v", shards, id, res[0].Code)
					}
					log = append(log, op{'r', id, 0})
					probeGone(id)
					if rng.IntN(2) == 0 {
						live[j] = live[len(live)-1]
						live = live[:len(live)-1]
						continue
					}
					tv := bid()
					if err := r.RestoreAgent(id, tv); err != nil {
						t.Fatalf("shards=%d: RestoreAgent of departed id %d: %v", shards, id, err)
					}
					log = append(log, op{'a', id, tv})
					if err := r.RestoreAgent(id, bid()); err == nil {
						t.Fatalf("shards=%d: second RestoreAgent of id %d succeeded", shards, id)
					}
					if v, ok := r.Value(id); !ok || math.Float64bits(v) != math.Float64bits(tv) {
						t.Fatalf("shards=%d: Value of restored id %d = %v, %v; want %v", shards, id, v, ok, tv)
					}
				default:
					tv := bid()
					id := mustAdd(t, r, tv)
					live = append(live, id)
					log = append(log, op{'a', id, tv})
				}
			}
			check(round)
		}
	}
}
