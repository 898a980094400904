package registry

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand/v2"
	"runtime"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/mech"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/parallel"
)

func mustAdd(t *testing.T, r *Registry, v float64) int {
	t.Helper()
	id, err := r.Add(v)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestRegistryBasicLifecycle(t *testing.T) {
	r, err := New(Config{Rate: 20, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Snapshot(); got == nil || got.N() != 0 || got.Epoch() != 1 {
		t.Fatalf("fresh registry snapshot = %+v, want sealed empty epoch 1", got)
	}
	ids := make([]int, 0, 4)
	for _, v := range []float64{1, 2, 5, 10} {
		ids = append(ids, mustAdd(t, r, v))
	}
	for i, id := range ids {
		if id != i {
			t.Errorf("id %d assigned as %d, want monotone from 0", i, id)
		}
	}
	if err := r.Update(ids[1], 4); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove(ids[2]); err != nil {
		t.Fatal(err)
	}
	if got := r.Live(); got != 3 {
		t.Errorf("Live = %d, want 3", got)
	}

	snap := r.Seal()
	if snap.Epoch() != 2 {
		t.Errorf("epoch = %d, want 2", snap.Epoch())
	}
	if snap.N() != 3 {
		t.Fatalf("sealed N = %d, want 3", snap.N())
	}
	// Canonical S must be exactly the ascending-id compensated sum.
	var k numeric.KahanSum
	for _, v := range []float64{1, 4, 10} {
		k.Add(1 / v)
	}
	if snap.Sum() != k.Value() {
		t.Errorf("sealed S = %g, want %g", snap.Sum(), k.Value())
	}
	if v, ok := snap.Value(ids[1]); !ok || v != 4 {
		t.Errorf("sealed bid of %d = %g/%v, want 4", ids[1], v, ok)
	}
	if _, ok := snap.Value(ids[2]); ok {
		t.Error("removed agent still visible in sealed epoch")
	}
	x, ok := snap.Load(ids[0])
	if !ok || x != snap.Rate()/(1*snap.Sum()) {
		t.Errorf("Load = %g/%v, want R/(t*S)", x, ok)
	}
	if got, want := snap.OptimalLatency(), snap.Rate()*snap.Rate()/snap.Sum(); got != want {
		t.Errorf("OptimalLatency = %g, want %g", got, want)
	}
	excl, ok := snap.ExclusionLatency(ids[0])
	if want := snap.Rate() * snap.Rate() / (snap.Sum() - 1); !ok || excl != want {
		t.Errorf("ExclusionLatency = %g/%v, want %g", excl, ok, want)
	}

	// Mutations after a seal do not disturb the published snapshot.
	if err := r.Update(ids[0], 100); err != nil {
		t.Fatal(err)
	}
	if v, _ := snap.Value(ids[0]); v != 1 {
		t.Errorf("sealed bid mutated to %g after post-seal update", v)
	}
}

func TestRegistryErrorsMatchStreamContract(t *testing.T) {
	r, err := New(Config{Rate: 5})
	if err != nil {
		t.Fatal(err)
	}
	var ve *alloc.ValueError
	// 1e-310 is subnormal: positive and finite, but 1/t is +Inf, which
	// would NaN-poison every later seal's S.
	bads := []float64{0, -1, math.NaN(), math.Inf(1), 1e-310, math.SmallestNonzeroFloat64}
	for _, bad := range bads {
		if _, err := r.Add(bad); !errors.As(err, &ve) {
			t.Errorf("Add(%g) error = %v, want *alloc.ValueError", bad, err)
		}
	}
	id := mustAdd(t, r, 2)
	for _, bad := range bads {
		if err := r.Update(id, bad); !errors.As(err, &ve) {
			t.Errorf("Update(%g) error = %v, want *alloc.ValueError", bad, err)
		}
		if err := r.RestoreAgent(id+1, bad); !errors.As(err, &ve) {
			t.Errorf("RestoreAgent(%g) error = %v, want *alloc.ValueError", bad, err)
		}
		res := r.ApplyBatch([]BatchOp{{Kind: BatchAdd, T: bad}, {Kind: BatchRebid, ID: id, T: bad}}, nil, nil)
		if res[0].Code != BatchBadValue || res[1].Code != BatchBadValue {
			t.Errorf("ApplyBatch add/rebid of %g = %v/%v, want BatchBadValue", bad, res[0].Code, res[1].Code)
		}
	}
	// The smallest normal float has a finite reciprocal: admissible.
	if err := r.Update(id, 0x1p-1022); err != nil {
		t.Errorf("Update(0x1p-1022) = %v, want nil", err)
	}
	if s := r.Seal().Sum(); math.IsNaN(s) || math.IsInf(s, 0) {
		t.Errorf("sealed S = %v after rejected bids, want finite", s)
	}
	if err := r.Update(id, 2); err != nil {
		t.Fatal(err)
	}
	if err := r.Update(id+7, 1); err == nil {
		t.Error("Update of unassigned id succeeded")
	}
	if err := r.Remove(id); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove(id); err == nil {
		t.Error("double Remove succeeded")
	}
	if err := r.SetRate(math.Inf(1)); !errors.As(err, &ve) {
		t.Errorf("SetRate Inf error = %v, want *alloc.ValueError", err)
	}
	if _, err := New(Config{Rate: -3}); !errors.As(err, &ve) {
		t.Errorf("New with negative rate error = %v, want *alloc.ValueError", err)
	}
}

func TestRegistryEmptyAndRateEdgeCases(t *testing.T) {
	r, err := New(Config{Rate: 7})
	if err != nil {
		t.Fatal(err)
	}
	snap := r.Seal()
	if got := snap.OptimalLatency(); !math.IsInf(got, 1) {
		t.Errorf("empty optimum under positive rate = %g, want +Inf", got)
	}
	if err := r.SetRate(0); err != nil {
		t.Fatal(err)
	}
	snap = r.Seal()
	if got := snap.OptimalLatency(); got != 0 {
		t.Errorf("empty optimum at rate 0 = %g, want 0", got)
	}
	if _, ok := snap.Load(0); ok {
		t.Error("Load of absent id reported ok")
	}
	if _, _, ok := snap.Payment(0); ok {
		t.Error("Payment of absent id reported ok")
	}
}

func TestSealedAggregateIndependentOfShardCount(t *testing.T) {
	// The same serial event sequence must seal to bitwise-identical
	// aggregates and allocations for every shard count and GOMAXPROCS,
	// equal to an alloc.Stream replay: the canonical reduction is over
	// ascending ids, which neither sharding nor the block-parallel seal
	// copy touches. The second population spans several copy blocks,
	// retires its highest ids, and issues an id count that is a
	// multiple of neither any shard count nor the copy block size.
	type mutator interface {
		Add(float64) (int, error)
		Update(int, float64) error
		Remove(int) error
	}
	apply := func(m mutator, n, retired int) {
		for i := 0; i < n; i++ {
			if _, err := m.Add(0.5 + float64(i%17)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			var err error
			switch {
			case i%3 == 0 || i >= n-retired:
				err = m.Remove(i)
			case i%3 == 1:
				err = m.Update(i, 1+float64(i%11))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, pop := range []struct{ n, retired int }{{300, 0}, {2*parallel.DefaultBlock + 777, 300}} {
		st, err := alloc.NewStream(20)
		if err != nil {
			t.Fatal(err)
		}
		apply(st, pop.n, pop.retired)
		wantIDs, wantX := st.SnapshotInto(nil, nil)
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			for _, shards := range []int{1, 2, 8, 64} {
				r, err := New(Config{Rate: 20, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				apply(r, pop.n, pop.retired)
				snap := r.Seal()
				if math.Float64bits(snap.Sum()) != math.Float64bits(st.Sealed()) {
					t.Errorf("n=%d procs=%d shards=%d: S = %g, serial replay %g", pop.n, procs, shards, snap.Sum(), st.Sealed())
				}
				if snap.N() != st.N() {
					t.Fatalf("n=%d procs=%d shards=%d: N = %d, serial replay %d", pop.n, procs, shards, snap.N(), st.N())
				}
				for j, id := range snap.IDs(nil) {
					if x, _ := snap.Load(id); id != wantIDs[j] || math.Float64bits(x) != math.Float64bits(wantX[j]) {
						t.Fatalf("n=%d procs=%d shards=%d: entry %d is (id %d, x %g), serial replay (id %d, x %g)",
							pop.n, procs, shards, j, id, x, wantIDs[j], wantX[j])
					}
				}
			}
		}
	}
}

// TestSweepAllocMatchesProportionalExactly sweeps Load over every live
// id of a sealed epoch and requires the allocation alloc.Proportional
// computes for the epoch's Bids, exactly.
func TestSweepAllocMatchesProportionalExactly(t *testing.T) {
	r, err := New(Config{Rate: 20, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 97; i++ {
		mustAdd(t, r, 0.25+float64(i%13))
	}
	snap := r.Seal()
	want, err := alloc.Proportional(snap.Bids(nil), snap.Rate())
	if err != nil {
		t.Fatal(err)
	}
	for j, id := range snap.IDs(nil) {
		if x, _ := snap.Load(id); x != want[j] {
			t.Fatalf("Load(%d) = %g, want exactly %g", id, x, want[j])
		}
	}
}

func TestSnapshotPaymentMatchesEngine(t *testing.T) {
	r, err := New(Config{Rate: 20, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{1, 1, 2, 2, 2, 5, 5, 5, 5, 5, 10, 10, 10, 10, 10, 10} {
		mustAdd(t, r, v)
	}
	snap := r.Seal()
	eng := mech.NewEngine(mech.CompensationBonus{})
	o, err := eng.Run(mech.TruthfulInto(nil, snap.Bids(nil)), snap.Rate())
	if err != nil {
		t.Fatal(err)
	}
	for j, id := range snap.IDs(nil) {
		comp, bonus, ok := snap.Payment(id)
		if !ok {
			t.Fatalf("Payment(%d) not ok", id)
		}
		if !numeric.AlmostEqual(comp, o.Compensation[j], 1e-9, 1e-12) {
			t.Errorf("agent %d compensation: O(1) query %g vs engine %g", id, comp, o.Compensation[j])
		}
		if !numeric.AlmostEqual(bonus, o.Bonus[j], 1e-9, 1e-12) {
			t.Errorf("agent %d bonus: O(1) query %g vs engine %g", id, bonus, o.Bonus[j])
		}
	}
}

// TestSnapshotPaymentMatchesBigFloat pins Payment's bonus against a
// 400-bit big.Float evaluation of R²/(S − 1/b_i) − R²/S at the same
// float64 S and b_i, for 2^20 and 2^24 agents bidding
// 1 + 0.37·(i mod 31), where the bonus is a small difference of two
// large optima. The Snapshot's fields are set directly: S is the exact
// sum of the agents' float64 inverses rounded once, and the bid array
// holds one agent of each of the 31 bid values.
func TestSnapshotPaymentMatchesBigFloat(t *testing.T) {
	const rate = 20.0
	bf := func(x float64) *big.Float { return new(big.Float).SetPrec(400).SetFloat64(x) }
	bids := make([]float64, 31)
	for k := range bids {
		bids[k] = 1 + 0.37*float64(k)
	}
	for _, n := range []int{1 << 20, 1 << 24} {
		sum := bf(0)
		for k, b := range bids {
			count := n / len(bids)
			if k < n%len(bids) {
				count++
			}
			sum.Add(sum, new(big.Float).Mul(bf(1/b), bf(float64(count))))
		}
		s, _ := sum.Float64()
		snap := &Snapshot{epoch: 1, rate: rate, s: s, n: n, t: bids}
		r2 := new(big.Float).Mul(bf(rate), bf(rate))
		worst := 0.0
		for id, b := range bids {
			comp, bonus, ok := snap.Payment(id)
			if !ok {
				t.Fatalf("n=%d: Payment(%d) not ok", n, id)
			}
			if comp != rate/s {
				t.Fatalf("n=%d id=%d: compensation %v, want R/S = %v", n, id, comp, rate/s)
			}
			inv := new(big.Float).Quo(bf(1), bf(b))
			rest := new(big.Float).Sub(bf(s), inv)
			exact := new(big.Float).Sub(new(big.Float).Quo(r2, rest), new(big.Float).Quo(r2, bf(s)))
			diff := new(big.Float).Sub(bf(bonus), exact)
			rel, _ := new(big.Float).Quo(diff.Abs(diff), exact).Float64()
			worst = max(worst, rel)
			if rel > 1e-15 {
				t.Errorf("n=%d id=%d (b=%v): bonus %v, exact %s: relative error %.3g", n, id, b, bonus, exact.Text('g', 20), rel)
			}
		}
		t.Logf("n=%d: worst relative bonus error %.3g", n, worst)
	}
}

// TestCoalescedRebidAccounting checks lb_registry_coalesced_rebids_total
// against a model of "written since the last seal": adds, rebids and
// RestoreAgent write an id, every seal (corrected or not) clears the
// writes, and a rebid of a written id is coalesced — its predecessor
// was never sealed. The scripted cases cover the serial and batched
// paths, an add and a rebid of it in one batch, rebids after Seal and
// after SealCorrected, a rebid after RestoreAgent, a leave followed by
// a restore, and a rebid refused after a leave in the same batch; a
// seeded random mix of all of them follows.
func TestCoalescedRebidAccounting(t *testing.T) {
	met := obs.NewRegistryMetrics(obs.NewRegistry())
	r, err := New(Config{Rate: 5, Shards: 2, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	written := map[int]bool{} // the model
	var coalesced, updates int64
	seals := int64(1) // New's
	write := func(id int) { written[id] = true }
	rebid := func(id int) {
		if written[id] {
			coalesced++
		}
		updates++
		written[id] = true
	}
	check := func(step string) {
		t.Helper()
		if got := met.Coalesced.Value(); got != coalesced {
			t.Fatalf("%s: coalesced = %d, want %d", step, got, coalesced)
		}
		if got := met.Updates.Value(); got != updates {
			t.Fatalf("%s: updates = %d, want %d", step, got, updates)
		}
		if got := met.Epochs.Value(); got != seals {
			t.Fatalf("%s: epochs = %d, want %d", step, got, seals)
		}
	}
	seal := func(c *Correction) {
		t.Helper()
		if _, err := r.SealCorrected(c); err != nil {
			t.Fatal(err)
		}
		seals++
		clear(written)
	}
	update := func(id int, v float64) {
		t.Helper()
		if err := r.Update(id, v); err != nil {
			t.Fatal(err)
		}
		rebid(id)
	}
	restore := func(id int, v float64) {
		t.Helper()
		if err := r.RestoreAgent(id, v); err != nil {
			t.Fatal(err)
		}
		write(id)
	}
	sc := &BatchScratch{}
	// batch applies ops and folds the applied ones into the model; a
	// result code other than want[i] (BatchOK when want is short) fails.
	batch := func(ops []BatchOp, want ...BatchCode) []BatchResult {
		t.Helper()
		res := r.ApplyBatch(ops, nil, sc)
		for i, rr := range res {
			code := BatchOK
			if i < len(want) {
				code = want[i]
			}
			if rr.Code != code {
				t.Fatalf("batched op %d (%+v): code %v, want %v", i, ops[i], rr.Code, code)
			}
			if rr.Code != BatchOK {
				continue
			}
			switch ops[i].Kind {
			case BatchAdd:
				write(rr.ID)
			case BatchRebid:
				rebid(rr.ID)
			}
		}
		return res
	}

	// Serial: the first rebid after the add coalesces with it; after a
	// seal a rebid overwrites a sealed bid; a second rebid in the same
	// open epoch coalesces again.
	id := mustAdd(t, r, 2)
	write(id)
	update(id, 3)
	check("serial rebid after add")
	seal(nil)
	update(id, 4)
	check("serial rebid after seal")
	update(id, 5)
	check("second serial rebid")
	if coalesced != 2 || updates != 3 || seals != 2 {
		t.Fatalf("model counted %d coalesced of %d updates over %d epochs, want 2 of 3 over 2", coalesced, updates, seals)
	}

	// Batched: an add and a rebid of the id it is assigned, in one
	// batch, coalesce; so does a rebid of an id written serially.
	next := int(r.nextID.Load())
	res := batch([]BatchOp{{Kind: BatchAdd, T: 1}, {Kind: BatchRebid, ID: next, T: 2}, {Kind: BatchRebid, ID: id, T: 6}})
	if res[0].ID != next {
		t.Fatalf("batched add assigned id %d, want %d", res[0].ID, next)
	}
	check("batched add then rebid")
	seal(nil)
	batch([]BatchOp{{Kind: BatchRebid, ID: next, T: 3}})
	check("batched rebid after Seal")
	batch([]BatchOp{{Kind: BatchRebid, ID: next, T: 4}, {Kind: BatchRebid, ID: id, T: 7}})
	check("batched rebids after a batched rebid")

	// A corrected seal clears the writes too, whether or not it drops
	// or discounts the id.
	seal(&Correction{Drop: map[int]bool{id: true}, Weights: map[int]float64{next: 0.5}})
	batch([]BatchOp{{Kind: BatchRebid, ID: id, T: 8}, {Kind: BatchRebid, ID: next, T: 5}})
	check("batched rebids after SealCorrected")
	update(id, 9)
	check("serial rebid after SealCorrected")

	// RestoreAgent writes the id it installs.
	far := next + 40
	restore(far, 2)
	batch([]BatchOp{{Kind: BatchRebid, ID: far, T: 3}})
	check("batched rebid after RestoreAgent")

	// A leave followed by a restore: the restored bid is unsealed, so
	// a rebid of it coalesces, across a seal between the two as well.
	// A rebid refused after a leave in the same batch counts nothing.
	seal(nil)
	batch([]BatchOp{{Kind: BatchLeave, ID: far}, {Kind: BatchRebid, ID: far, T: 1}}, BatchOK, BatchUnknownID)
	check("batched leave then rebid")
	restore(far, 4)
	batch([]BatchOp{{Kind: BatchRebid, ID: far, T: 5}})
	check("batched rebid after leave and restore")
	if err := r.Remove(next); err != nil {
		t.Fatal(err)
	}
	seal(nil)
	restore(next, 6)
	update(next, 7)
	check("serial rebid after leave, seal and restore")

	// A seeded mix of every path against the same model.
	rng := rand.New(rand.NewPCG(5, 21))
	live, gone := []int{id, next, far}, []int(nil)
	pick := func(ids []int) (int, []int) {
		j := rng.IntN(len(ids))
		v := ids[j]
		ids[j] = ids[len(ids)-1]
		return v, ids[:len(ids)-1]
	}
	var ops []BatchOp
	for step := 0; step < 4000; step++ {
		bid := 0.1 + 10*rng.Float64()
		switch p := rng.IntN(100); {
		case p < 50:
			v := live[rng.IntN(len(live))]
			if rng.IntN(2) == 0 {
				update(v, bid)
			} else {
				ops = append(ops, BatchOp{Kind: BatchRebid, ID: v, T: bid})
			}
		case p < 62:
			res := batch(append(ops, BatchOp{Kind: BatchAdd, T: bid}))
			ops = ops[:0]
			live = append(live, res[len(res)-1].ID)
		case p < 70 && len(live) > 1:
			batch(ops)
			ops = ops[:0]
			var v int
			v, live = pick(live)
			if err := r.Remove(v); err != nil {
				t.Fatal(err)
			}
			gone = append(gone, v)
		case p < 78 && len(gone) > 0:
			batch(ops)
			ops = ops[:0]
			var v int
			v, gone = pick(gone)
			restore(v, bid)
			live = append(live, v)
		case p < 84:
			batch(ops)
			ops = ops[:0]
			var c *Correction
			if rng.IntN(2) == 0 {
				c = &Correction{Drop: map[int]bool{live[0]: true}}
			}
			seal(c)
		}
		if len(ops) >= 16 {
			batch(ops)
			ops = ops[:0]
		}
		check(fmt.Sprintf("random step %d", step))
	}
	batch(ops)
	check("random mix")
	if coalesced < 100 || updates-coalesced < 100 {
		t.Fatalf("random mix modelled %d coalesced of %d updates; want both kinds exercised", coalesced, updates)
	}
}

// TestSealHoldObservedPerSeal checks the stop-the-world metric: every
// seal, New's included, observes one lock hold, and the holds never
// add up to more than the seals that contain them.
func TestSealHoldObservedPerSeal(t *testing.T) {
	reg := obs.NewRegistry()
	met := obs.NewRegistryMetrics(reg)
	r, err := New(Config{Rate: 5, Shards: 4, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		mustAdd(t, r, 1+float64(i%7))
	}
	for i := 0; i < 5; i++ {
		r.Seal()
	}
	if seals, holds := met.SealSeconds.Count(), met.SealHoldSeconds.Count(); seals != 6 || holds != 6 {
		t.Fatalf("%d seal and %d hold observations, want 6 each", seals, holds)
	}
	sums := map[string]float64{}
	for _, m := range reg.Snapshot() {
		sums[m.Name] = m.Sum
	}
	if hold, seal := sums["lb_registry_seal_hold_seconds"], sums["lb_registry_seal_seconds"]; !(hold > 0 && hold <= seal) {
		t.Fatalf("hold seconds %g, seal seconds %g: want 0 < hold <= seal", hold, seal)
	}
}

// TestSealGrowsForIDsIssuedWhileAllocating pins the seal's allocation
// order: the bid array is sized before the shard locks are taken, so
// an agent admitted in between must still be in the epoch. The test
// holds shard 0's lock, so the seal allocates and then waits at its
// first lock while an agent joins on shard 1.
func TestSealGrowsForIDsIssuedWhileAllocating(t *testing.T) {
	r, err := New(Config{Rate: 5, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	bids := []float64{1, 2, 3, 4, 5} // ids 0..4; the next id, 5, is on shard 1
	for _, v := range bids {
		mustAdd(t, r, v)
	}
	r.shards[0].mu.Lock()
	done := make(chan *Snapshot)
	go func() { done <- r.Seal() }()
	for r.sealMu.TryLock() { // wait for the seal to start
		r.sealMu.Unlock()
		runtime.Gosched()
	}
	time.Sleep(10 * time.Millisecond) // and to allocate
	id := mustAdd(t, r, 7)
	bids = append(bids, 7)
	r.shards[0].mu.Unlock()
	snap := <-done

	st, err := alloc.NewStream(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range bids {
		if _, err := st.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if v, ok := snap.Value(id); !ok || v != 7 || snap.N() != len(bids) {
		t.Fatalf("id %d sealed as (%v, %v) with N = %d; want (7, true), N = %d", id, v, ok, snap.N(), len(bids))
	}
	if got, want := snap.Sum(), st.Sealed(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("sealed S %v, serial stream %v", got, want)
	}
}

func TestSnapshotReadsZeroAllocs(t *testing.T) {
	r, err := New(Config{Rate: 20, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		mustAdd(t, r, 1+float64(i%9))
	}
	r.Seal()
	var sink float64
	allocs := testing.AllocsPerRun(1000, func() {
		snap := r.Snapshot()
		x, _ := snap.Load(421)
		e, _ := snap.ExclusionLatency(421)
		c, b, _ := snap.Payment(421)
		sink += x + e + c + b + snap.OptimalLatency()
	})
	if allocs != 0 {
		t.Errorf("snapshot read path allocated %.1f/op, want 0", allocs)
	}
	_ = sink
}
