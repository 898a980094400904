package registry

// Differential tests: W goroutines hammer the registry with adds,
// rebids and removes while recording what they did; the recorded log
// is then replayed serially through alloc.Stream, and the sealed
// epoch must match the serial replay EXACTLY — same canonical S, same
// allocation vector, same payment vector, bitwise — for every shard
// and worker count. Run under -race (make check does) this doubles as
// the registry's race test.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/alloc"
	"repro/internal/mech"
	"repro/internal/numeric"
)

// op is one recorded registry mutation.
type op struct {
	kind byte // 'a', 'u', 'r'
	id   int
	t    float64
}

// hammer runs workers concurrent goroutines of mixed traffic against
// r, each owning the agents it added (so per-id histories are total
// orders regardless of scheduling), and returns every worker's log.
// When seals is true, an extra goroutine seals epochs throughout to
// exercise the publish path under contention.
func hammer(tb testing.TB, r *Registry, workers, opsPerWorker int, seals bool) [][]op {
	tb.Helper()
	logs := make([][]op, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 0x9e3779b97f4a7c15))
			var mine []int // ids this worker owns and has not removed
			log := make([]op, 0, opsPerWorker)
			// The live ids of the last snapshot read, refreshed once
			// per epoch: IDs scans every issued id.
			var ids []int
			var idsEpoch uint64
			for i := 0; i < opsPerWorker; i++ {
				p := rng.Float64()
				switch {
				case p < 0.4 || len(mine) == 0:
					t := 0.1 + 10*rng.Float64()
					id, err := r.Add(t)
					if err != nil {
						tb.Errorf("worker %d: Add: %v", w, err)
						return
					}
					mine = append(mine, id)
					log = append(log, op{'a', id, t})
				case p < 0.85:
					id := mine[rng.IntN(len(mine))]
					t := 0.1 + 10*rng.Float64()
					if err := r.Update(id, t); err != nil {
						tb.Errorf("worker %d: Update(%d): %v", w, id, err)
						return
					}
					log = append(log, op{'u', id, t})
				default:
					j := rng.IntN(len(mine))
					id := mine[j]
					if err := r.Remove(id); err != nil {
						tb.Errorf("worker %d: Remove(%d): %v", w, id, err)
						return
					}
					mine[j] = mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					log = append(log, op{'r', id, 0})
				}
				// Interleave lock-free reads with the writes, and have
				// one worker seal periodically so publishes race the
				// other workers' mutations.
				if seals && w == 0 && i%200 == 199 {
					r.Seal()
				}
				if snap := r.Snapshot(); snap.N() > 0 {
					if snap.Epoch() != idsEpoch {
						ids, idsEpoch = snap.IDs(ids), snap.Epoch()
					}
					if _, ok := snap.Load(ids[rng.IntN(len(ids))]); !ok {
						tb.Errorf("worker %d: sealed id missing from its own snapshot", w)
						return
					}
				}
			}
			logs[w] = log
		}(w)
	}
	wg.Wait()
	return logs
}

// replay feeds the merged logs serially through a fresh alloc.Stream,
// applying each agent's history in ascending registry-id order (every
// id is owned by one worker, so its per-worker order is its total
// order; distinct ids commute). It returns the stream plus the
// registry-id list in the ascending order the stream saw them.
func replay(tb testing.TB, rate float64, logs [][]op) *alloc.Stream {
	tb.Helper()
	maxID := -1
	for _, log := range logs {
		for _, o := range log {
			if o.id > maxID {
				maxID = o.id
			}
		}
	}
	byID := make([][]op, maxID+1)
	for _, log := range logs {
		for _, o := range log {
			byID[o.id] = append(byID[o.id], o)
		}
	}
	st, err := alloc.NewStream(rate)
	if err != nil {
		tb.Fatal(err)
	}
	for id, ops := range byID {
		if len(ops) == 0 {
			continue // id assigned by a worker that errored out
		}
		var sid int
		for _, o := range ops {
			switch o.kind {
			case 'a':
				sid, err = st.Add(o.t)
			case 'u':
				err = st.Update(sid, o.t)
			case 'r':
				err = st.Remove(sid)
			}
			if err != nil {
				tb.Fatalf("replay of id %d: %v", id, err)
			}
		}
	}
	return st
}

func TestRegistryMatchesSerialStreamReplayExactly(t *testing.T) {
	const rate = 20.0
	for _, shards := range []int{1, 4, 32} {
		for _, workers := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				r, err := New(Config{Rate: rate, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				logs := hammer(t, r, workers, 1500, true)
				if t.Failed() {
					return
				}
				snap := r.Seal()
				st := replay(t, rate, logs)

				// Sealed aggregate: bitwise equal to the serial
				// canonical sum.
				if got, want := snap.Sum(), st.Sealed(); got != want {
					t.Errorf("sealed S = %v, want serial %v (diff %g)", got, want, got-want)
				}
				if snap.N() != st.N() {
					t.Fatalf("sealed N = %d, want serial %d", snap.N(), st.N())
				}

				// Full allocation sweep: per-agent O(1) snapshot loads
				// are bitwise equal to the serial stream snapshot,
				// element by element, and so are the sealed bids.
				sids, sx := st.SnapshotInto(nil, nil)
				vals := snap.Bids(nil)
				if len(vals) != len(sx) {
					t.Fatalf("sealed population %d, want %d", len(vals), len(sx))
				}
				for j, id := range snap.IDs(nil) {
					if x, ok := snap.Load(id); !ok || x != sx[j] {
						t.Fatalf("Load(%d) = %v/%v, want serial x[%d] = %v", id, x, ok, j, sx[j])
					}
					sv, _ := st.Value(sids[j])
					if vals[j] != sv {
						t.Fatalf("bid[%d] = %v, want serial %v", j, vals[j], sv)
					}
				}

				// Payment sweep: the engine over the sealed bids is
				// bitwise equal to the serial engine run over the
				// stream's population.
				if snap.N() < 2 {
					return
				}
				regEng := mech.NewEngine(mech.CompensationBonus{})
				o, err := regEng.Run(mech.TruthfulInto(nil, vals), snap.Rate())
				if err != nil {
					t.Fatal(err)
				}
				serialEng := mech.NewEngine(mech.CompensationBonus{})
				serialVals := make([]float64, len(sids))
				for j, id := range sids {
					serialVals[j], _ = st.Value(id)
				}
				so, err := serialEng.Run(mech.TruthfulInto(nil, serialVals), rate)
				if err != nil {
					t.Fatal(err)
				}
				for j := range o.Payment {
					if o.Payment[j] != so.Payment[j] || o.Compensation[j] != so.Compensation[j] || o.Bonus[j] != so.Bonus[j] {
						t.Fatalf("payment[%d] = (%v, %v, %v), want serial (%v, %v, %v)",
							j, o.Compensation[j], o.Bonus[j], o.Payment[j],
							so.Compensation[j], so.Bonus[j], so.Payment[j])
					}
				}
			})
		}
	}
}

func TestConcurrentReadersSeeConsistentEpochs(t *testing.T) {
	// Readers racing a sealer must always observe internally
	// consistent snapshots: every id a snapshot lists resolves, and
	// the listed population reproduces the sealed S exactly.
	r, err := New(Config{Rate: 10, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		mustAdd(t, r, 1+float64(i%7))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 7))
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := r.Snapshot()
				var k numeric.KahanSum
				for _, id := range snap.IDs(nil) {
					v, ok := snap.Value(id)
					if !ok {
						t.Errorf("snapshot id %d does not resolve", id)
						return
					}
					k.Add(1 / v)
				}
				if k.Value() != snap.Sum() {
					t.Errorf("snapshot S %v does not match its own population sum %v", snap.Sum(), k.Value())
					return
				}
				_ = rng
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		if err := r.Update(i%64, 0.5+float64(i%13)); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			r.Seal()
		}
	}
	close(stop)
	wg.Wait()
}

// TestCorrectedSealMatchesSerialReplayExactly pins the corrected-epoch
// protocol: a SealCorrected over a concurrently-built population must
// be bitwise identical to a serial alloc.Stream replay in which the
// dropped ids were removed and the weighted ids rebid at t/weight —
// for every shard and worker count. Run under -race (make check does)
// this also races corrected seals against writers.
func TestCorrectedSealMatchesSerialReplayExactly(t *testing.T) {
	const rate = 20.0
	for _, shards := range []int{1, 4, 32} {
		for _, workers := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				r, err := New(Config{Rate: rate, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				logs := hammer(t, r, workers, 1200, true)
				if t.Failed() {
					return
				}

				// Build a deterministic correction over the live ids:
				// every 5th live id is dropped, every 3rd discounted.
				live := r.Seal().IDs(nil)
				corr := &Correction{Weights: map[int]float64{}, Drop: map[int]bool{}}
				for j, id := range live {
					switch {
					case j%5 == 0:
						corr.Drop[id] = true
					case j%3 == 0:
						corr.Weights[id] = 0.5
					}
				}
				// Dropping or weighting dead ids must be ignored, and a
				// dropped id must win over its weight.
				corr.Drop[1<<30] = true
				corr.Weights[1<<30] = 0.25
				if len(live) > 0 {
					corr.Weights[live[0]] = 0.25 // live[0] is also dropped
				}

				snap, err := r.SealCorrected(corr)
				if err != nil {
					t.Fatal(err)
				}
				dropped, discounted := snap.Correction()
				wantDiscount := 0
				for j, id := range live {
					if j%5 != 0 && j%3 == 0 && !corr.Drop[id] {
						wantDiscount++
					}
				}
				if dropped != len(corr.Drop)-1 || discounted != wantDiscount {
					t.Fatalf("Correction() = %d dropped, %d discounted; want %d, %d",
						dropped, discounted, len(corr.Drop)-1, wantDiscount)
				}

				// Serial replay with the same adjustments appended.
				st := replay(t, rate, logs)
				sids, _ := st.SnapshotInto(nil, nil)
				regToStream := map[int]int{}
				for j, id := range live {
					regToStream[id] = sids[j]
				}
				for j, id := range live {
					if j%5 == 0 {
						if err := st.Remove(regToStream[id]); err != nil {
							t.Fatal(err)
						}
						continue
					}
					if w, ok := corr.Weights[id]; ok {
						v, _ := st.Value(regToStream[id])
						if err := st.Update(regToStream[id], v/w); err != nil {
							t.Fatal(err)
						}
					}
				}

				if got, want := snap.Sum(), st.Sealed(); got != want {
					t.Errorf("corrected S = %v, want serial %v (diff %g)", got, want, got-want)
				}
				if snap.N() != st.N() {
					t.Fatalf("corrected N = %d, want serial %d", snap.N(), st.N())
				}
				_, sx := st.SnapshotInto(nil, nil)
				for j, id := range snap.IDs(nil) {
					if x, _ := snap.Load(id); x != sx[j] {
						t.Fatalf("corrected x[%d] = %v, want serial %v", j, x, sx[j])
					}
				}

				// Dropped ids are gone from the corrected epoch but the
				// registry itself is untouched: the next plain seal
				// restores them at their original bids.
				for j, id := range live {
					if j%5 == 0 && snap.Contains(id) {
						t.Fatalf("dropped id %d still in corrected epoch", id)
					}
				}
				plain := r.Seal()
				if dropped, discounted := plain.Correction(); dropped != 0 || discounted != 0 {
					t.Fatalf("plain seal reports a correction (%d, %d)", dropped, discounted)
				}
				if plain.N() != len(live) {
					t.Fatalf("plain reseal N = %d, want %d", plain.N(), len(live))
				}
				for j, id := range live {
					v, ok := plain.Value(id)
					sv, _ := st.Value(regToStream[id])
					if j%5 == 0 {
						if !ok {
							t.Fatalf("id %d lost by corrected seal", id)
						}
						continue
					}
					if corr.Weights[id] != 0 && ok && v == sv {
						t.Fatalf("corrected seal mutated the registry bid of id %d", id)
					}
				}
			})
		}
	}
}

// TestRemovedIDsAreNeverReused pins the no-id-reuse contract the
// health controller's eject path depends on: removing an agent retires
// its id for good, so a corrected epoch that drops id k can never
// accidentally drop a later joiner, however much the population
// churns.
func TestRemovedIDsAreNeverReused(t *testing.T) {
	r, err := New(Config{Rate: 10, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	var removed []int
	for i := 0; i < 500; i++ {
		id, err := r.Add(1 + float64(i%9))
		if err != nil {
			t.Fatal(err)
		}
		if seen[id] {
			t.Fatalf("id %d assigned twice", id)
		}
		seen[id] = true
		if i%2 == 1 { // remove every other agent as soon as it joins
			if err := r.Remove(id); err != nil {
				t.Fatal(err)
			}
			removed = append(removed, id)
		}
	}
	snap := r.Seal()
	for _, id := range removed {
		if snap.Contains(id) {
			t.Fatalf("removed id %d resurfaced in a sealed epoch", id)
		}
		if err := r.Update(id, 2); err == nil {
			t.Fatalf("Update(%d) on a removed id succeeded", id)
		}
	}
	// A correction naming a removed id is a no-op, not a resurrection.
	snap2, err := r.SealCorrected(&Correction{Drop: map[int]bool{removed[0]: true}})
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := snap2.Correction(); d != 0 {
		t.Fatalf("dropping a removed id counted as a correction")
	}
	if snap2.Sum() != snap.Sum() {
		t.Fatalf("no-op correction changed S: %v vs %v", snap2.Sum(), snap.Sum())
	}

	// Malformed weights are rejected before any lock is taken.
	for _, w := range []float64{0, -1, 1.5, math.NaN(), math.Inf(1)} {
		if _, err := r.SealCorrected(&Correction{Weights: map[int]float64{0: w}}); err == nil {
			t.Errorf("weight %v accepted", w)
		}
	}
}
