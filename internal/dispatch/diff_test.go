package dispatch

import (
	"math"
	"sync"
	"testing"

	"repro/internal/numeric"
	"repro/internal/registry"
)

// diffDraws is the sample size of the empirical-frequency differential
// test; -short trims it for quick local runs, CI runs the full 10^7.
func diffDraws(t *testing.T) int {
	if testing.Short() {
		return 1_000_000
	}
	return 10_000_000
}

// checkFrequencies draws from the dispatcher's table with a seeded
// numeric.Rand and compares every instance's empirical frequency to
// the sealed allocation share x_i*/R = (1/b_i)/S, within a 6-sigma
// binomial band. It returns the counts so callers can pin determinism.
func checkFrequencies(t *testing.T, d *Alias, snap *registry.Snapshot, seed uint64, draws int) []int64 {
	t.Helper()
	tab := d.Table()
	if tab.N() != snap.N() {
		t.Fatalf("table over %d instances, epoch has %d", tab.N(), snap.N())
	}
	counts := make([]int64, tab.N())
	rng := numeric.NewRand(seed)
	for i := 0; i < draws; i++ {
		counts[tab.Sample(rng.Uint64())]++
	}
	for i, id := range snap.IDs(nil) {
		x, ok := snap.Load(id)
		if !ok {
			t.Fatalf("sealed id %d unreadable", id)
		}
		p := x / snap.Rate() // x_i*/R = (1/b_i)/S
		freq := float64(counts[i]) / float64(draws)
		sigma := math.Sqrt(p * (1 - p) / float64(draws))
		if math.Abs(freq-p) > 6*sigma+1e-9 {
			t.Errorf("epoch %d instance %d (id %d): freq %.6f vs sealed share %.6f (|Δ| = %.2g > 6σ = %.2g)",
				snap.Epoch(), i, id, freq, p, math.Abs(freq-p), 6*sigma)
		}
	}
	return counts
}

// TestAliasDifferentialFrequencies is the differential acceptance
// test: empirical alias-sample frequencies converge to the sealed
// PR shares for a fresh epoch, stay converged after rebids reseal,
// and track a SealCorrected epoch's drops and weight discounts. The
// draw stream is a seeded numeric.Rand, so the counts themselves are
// deterministic — pinned by a replay.
func TestAliasDifferentialFrequencies(t *testing.T) {
	draws := diffDraws(t)
	reg, err := registry.New(registry.Config{Rate: 24})
	if err != nil {
		t.Fatal(err)
	}
	bids := []float64{0.2, 0.33, 0.5, 0.8, 1, 1.25, 2, 2.5, 3.5, 5, 8, 13}
	ids := make([]int, len(bids))
	for i, b := range bids {
		if ids[i], err = reg.Add(b); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Seal()
	d := NewAlias(77)
	if err := d.Rebuild(snap); err != nil {
		t.Fatal(err)
	}
	counts := checkFrequencies(t, d, snap, 1, draws)
	replay := checkFrequencies(t, d, snap, 1, draws)
	for i := range counts {
		if counts[i] != replay[i] {
			t.Fatalf("instance %d: %d then %d draws from the same seed", i, counts[i], replay[i])
		}
	}

	// Rebid a few agents and reseal: the fresh epoch's distribution
	// follows the new bids.
	if err := reg.Update(ids[0], 6); err != nil {
		t.Fatal(err)
	}
	if err := reg.Update(ids[7], 0.4); err != nil {
		t.Fatal(err)
	}
	snap = reg.Seal()
	if err := d.Rebuild(snap); err != nil {
		t.Fatal(err)
	}
	checkFrequencies(t, d, snap, 2, draws)

	// A corrected epoch: eject two instances, discount a third to
	// half weight. The sampler must track the corrected shares —
	// ejected instances draw nothing at all.
	snap, err = reg.SealCorrected(&registry.Correction{
		Drop:    map[int]bool{ids[2]: true, ids[9]: true},
		Weights: map[int]float64{ids[4]: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Rebuild(snap); err != nil {
		t.Fatal(err)
	}
	if d.N() != len(bids)-2 {
		t.Fatalf("corrected epoch: N = %d, want %d", d.N(), len(bids)-2)
	}
	checkFrequencies(t, d, snap, 3, draws)
}

// TestAccountingWorkerInvariance pins the byte-identical claim: for
// policies whose routing is a pure function of the job (alias,
// ip-hash, greedy), partitioning one job stream across any number of
// workers yields bit-for-bit the same tallies and the same
// realized-latency accounting.
func TestAccountingWorkerInvariance(t *testing.T) {
	reg := testRegistry(t, []float64{0.5, 0.7, 1, 1.5, 2.2, 3, 4.5, 7}, 12)
	snap := reg.Snapshot()
	n := snap.N()
	mus := make([]float64, n)
	ts := make([]float64, n)
	for i, id := range snap.IDs(nil) {
		v, _ := snap.Value(id)
		ts[i] = v
		mus[i] = 4 / v
	}
	const jobs = 1 << 16
	horizon := float64(jobs) / snap.Rate()

	for _, policy := range []string{"alias", "ip-hash", "greedy"} {
		var ref *Account
		for _, workers := range []int{1, 3, 8} {
			d, err := New(policy, 123)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Rebuild(snap); err != nil {
				t.Fatal(err)
			}
			tallies := make([]*Tally, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				tallies[w] = NewTally(n)
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					lo := w * jobs / workers
					hi := (w + 1) * jobs / workers
					for id := lo; id < hi; id++ {
						j := Job{ID: int64(id), Key: mix64(uint64(id % 512))}
						tallies[w].Observe(d.Pick(j), 1)
					}
				}(w)
			}
			wg.Wait()
			merged := NewTally(n)
			for _, tal := range tallies {
				if err := merged.Merge(tal); err != nil {
					t.Fatal(err)
				}
			}
			acc, err := AccountMM1(merged, mus, horizon)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = acc
				continue
			}
			if math.Float64bits(acc.Mean) != math.Float64bits(ref.Mean) ||
				math.Float64bits(acc.P99) != math.Float64bits(ref.P99) {
				t.Errorf("%s: %d workers: mean/p99 %v/%v differ from 1-worker %v/%v",
					policy, workers, acc.Mean, acc.P99, ref.Mean, ref.P99)
			}
			for i := range acc.Rates {
				if math.Float64bits(acc.Rates[i]) != math.Float64bits(ref.Rates[i]) {
					t.Fatalf("%s: %d workers: instance %d rate %v differs from %v",
						policy, workers, i, acc.Rates[i], ref.Rates[i])
				}
			}
		}
	}
}

// TestAliasRebuildRaceClean hammers Pick/Done from several goroutines
// while epochs — fresh and corrected — are sealed and swapped in.
// Run under -race this pins the no-reader-locks protocol: an atomic
// pointer swap with immutable tables on both sides.
func TestAliasRebuildRaceClean(t *testing.T) {
	reg, err := registry.New(registry.Config{Rate: 16})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 16)
	for i := range ids {
		if ids[i], err = reg.Add(0.5 + float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	reg.Seal()
	ds := make([]Dispatcher, 0, len(Policies()))
	for _, p := range Policies() {
		d, err := New(p, 7)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Rebuild(reg.Snapshot()); err != nil {
			t.Fatal(err)
		}
		ds = append(ds, d)
	}

	const picksPerWorker = 20_000
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < picksPerWorker; i++ {
				j := Job{ID: int64(w*picksPerWorker + i), Key: uint64(i) * 2654435761}
				for _, d := range ds {
					idx := d.Pick(j)
					if idx < 0 || idx >= len(ids) {
						t.Errorf("pick out of range: %d", idx)
						return
					}
					d.Done(j, idx)
				}
			}
		}(w)
	}
	// The sealer: rebids, alternating fresh and corrected epochs
	// (which shrink the population), rebuilding every dispatcher
	// after each seal.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := numeric.NewRand(99)
		for k := 0; k < 200; k++ {
			id := ids[rng.Intn(len(ids))]
			if err := reg.Update(id, 0.25+4*rng.Float64()); err != nil {
				t.Error(err)
				return
			}
			var snap *registry.Snapshot
			if k%2 == 1 {
				var err error
				snap, err = reg.SealCorrected(&registry.Correction{
					Drop:    map[int]bool{ids[rng.Intn(len(ids))]: true},
					Weights: map[int]float64{ids[rng.Intn(len(ids))]: 0.5},
				})
				if err != nil {
					t.Error(err)
					return
				}
			} else {
				snap = reg.Seal()
			}
			for _, d := range ds {
				if err := d.Rebuild(snap); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
}
