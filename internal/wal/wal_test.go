package wal

// Differential tests for the write-ahead log: scripted random
// histories run against a journaled registry (with an alloc.Stream
// shadow as the serial ground truth), and recovery must rebuild a
// registry whose sealed epochs are bit-for-bit identical — same
// canonical S, same ids, same bids, same rate — for every combination
// of original and recovery shard counts, for fresh and corrected
// epochs, from full-log replay and from snapshot-plus-tail.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/alloc"
	"repro/internal/registry"
)

// sealRec freezes one sealed snapshot for bitwise comparison.
type sealRec struct {
	epoch uint64
	rate  uint64
	sum   uint64
	ids   []int
	vals  []uint64
}

func recordSnap(s *registry.Snapshot) sealRec {
	rec := sealRec{
		epoch: s.Epoch(),
		rate:  math.Float64bits(s.Rate()),
		sum:   math.Float64bits(s.Sum()),
		ids:   s.IDs(nil),
	}
	rec.vals = make([]uint64, len(rec.ids))
	for i, id := range rec.ids {
		v, ok := s.Value(id)
		if !ok {
			panic("sealed id missing from its own snapshot")
		}
		rec.vals[i] = math.Float64bits(v)
	}
	return rec
}

func compareSnap(tb testing.TB, got *registry.Snapshot, want sealRec) {
	tb.Helper()
	if got.Epoch() != want.epoch {
		tb.Fatalf("epoch: got %d, want %d", got.Epoch(), want.epoch)
	}
	if math.Float64bits(got.Rate()) != want.rate {
		tb.Fatalf("rate: got %x, want %x", math.Float64bits(got.Rate()), want.rate)
	}
	if math.Float64bits(got.Sum()) != want.sum {
		tb.Fatalf("canonical S: got %x, want %x (diff %g)",
			math.Float64bits(got.Sum()), want.sum, got.Sum()-math.Float64frombits(want.sum))
	}
	ids := got.IDs(nil)
	if len(ids) != len(want.ids) {
		tb.Fatalf("live count: got %d, want %d", len(ids), len(want.ids))
	}
	for i, id := range ids {
		if id != want.ids[i] {
			tb.Fatalf("ids[%d]: got %d, want %d", i, id, want.ids[i])
		}
		v, ok := got.Value(id)
		if !ok || math.Float64bits(v) != want.vals[i] {
			tb.Fatalf("value(%d): got %x ok=%v, want %x", id, math.Float64bits(v), ok, want.vals[i])
		}
	}
}

// randCorrection builds a correction over a random subset of the live
// ids: some dropped, some discounted with weights in (0, 1].
func randCorrection(rng *rand.Rand, live []int) *registry.Correction {
	c := &registry.Correction{Drop: map[int]bool{}, Weights: map[int]float64{}}
	for _, id := range live {
		switch rng.IntN(6) {
		case 0:
			c.Drop[id] = true
		case 1, 2:
			c.Weights[id] = 0.05 + 0.95*rng.Float64()
		}
	}
	return c
}

// mirrorCorrection applies a correction to the shadow stream the way
// the sealed epoch prices it: drops become removals, weights become
// rebids at t/w (an id that is both dropped and weighted is dropped).
func mirrorCorrection(tb testing.TB, st *alloc.Stream, c *registry.Correction) {
	tb.Helper()
	for id := range c.Drop {
		if _, ok := st.Value(id); ok {
			if err := st.Remove(id); err != nil {
				tb.Fatalf("mirror remove(%d): %v", id, err)
			}
		}
	}
	for id, w := range c.Weights {
		if c.Drop[id] || w == 1 {
			continue
		}
		if t, ok := st.Value(id); ok {
			if err := st.Update(id, t/w); err != nil {
				tb.Fatalf("mirror update(%d): %v", id, err)
			}
		}
	}
}

// TestRecoveryMatchesLiveHistory is the headline differential test:
// 32 seeded histories × original shard counts {1,4,32}, each ending in
// a fresh or corrected seal, recovered at shard counts {1,4,32} — the
// recovered registry's sealed epoch must be bitwise identical to the
// live one and to the serial alloc.Stream shadow. Even seeds recover
// through a snapshot plus log tail, odd seeds replay the whole log.
func TestRecoveryMatchesLiveHistory(t *testing.T) {
	for seed := 0; seed < 32; seed++ {
		for _, shards := range []int{1, 4, 32} {
			t.Run(fmt.Sprintf("seed=%d/shards=%d", seed, shards), func(t *testing.T) {
				dir := t.TempDir()
				opts := Options{Sync: SyncNone}
				if seed%2 == 0 {
					opts.SnapshotEvery = 3
				}
				w, err := Create(dir, opts)
				if err != nil {
					t.Fatal(err)
				}
				r, err := registry.New(registry.Config{Rate: 50, Shards: shards, Journal: w})
				if err != nil {
					t.Fatal(err)
				}
				st, err := alloc.NewStream(50)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15))
				var live []int
				maxID := -1
				n := 300 + rng.IntN(200)
				for i := 0; i < n; i++ {
					p := rng.Float64()
					switch {
					case p < 0.35 || len(live) == 0:
						bid := 0.1 + 10*rng.Float64()
						id, err := r.Add(bid)
						if err != nil {
							t.Fatal(err)
						}
						sid, err := st.Add(bid)
						if err != nil {
							t.Fatal(err)
						}
						if id != sid {
							t.Fatalf("id divergence: registry %d, stream %d", id, sid)
						}
						live = append(live, id)
						if id > maxID {
							maxID = id
						}
					case p < 0.60:
						id := live[rng.IntN(len(live))]
						bid := 0.1 + 10*rng.Float64()
						if err := r.Update(id, bid); err != nil {
							t.Fatal(err)
						}
						if err := st.Update(id, bid); err != nil {
							t.Fatal(err)
						}
					case p < 0.72 && len(live) > 1:
						j := rng.IntN(len(live))
						id := live[j]
						if err := r.Remove(id); err != nil {
							t.Fatal(err)
						}
						if err := st.Remove(id); err != nil {
							t.Fatal(err)
						}
						live[j] = live[len(live)-1]
						live = live[:len(live)-1]
					case p < 0.78:
						rate := 1 + 100*rng.Float64()
						if err := r.SetRate(rate); err != nil {
							t.Fatal(err)
						}
						if err := st.SetRate(rate); err != nil {
							t.Fatal(err)
						}
					case p < 0.92:
						snap := r.Seal()
						if math.Float64bits(snap.Sum()) != math.Float64bits(st.Sealed()) {
							t.Fatalf("live seal diverged from stream at op %d", i)
						}
					default:
						if _, err := r.SealCorrected(randCorrection(rng, live)); err != nil {
							t.Fatal(err)
						}
					}
				}

				// Final epoch: corrected for odd seeds, fresh for even.
				var final sealRec
				if seed%2 == 1 && len(live) > 0 {
					c := randCorrection(rng, live)
					snap, err := r.SealCorrected(c)
					if err != nil {
						t.Fatal(err)
					}
					final = recordSnap(snap)
					mirrorCorrection(t, st, c)
				} else {
					final = recordSnap(r.Seal())
				}
				if math.Float64bits(st.Sealed()) != final.sum {
					t.Fatalf("final live seal diverged from serial stream shadow")
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}

				for _, rshards := range []int{1, 4, 32} {
					r2, info, err := Recover(dir, registry.Config{Rate: 1, Shards: rshards})
					if err != nil {
						t.Fatalf("recover at %d shards: %v", rshards, err)
					}
					if seed%2 == 0 && info.SnapshotEpoch == 0 && final.epoch > 6 {
						t.Fatalf("expected a snapshot recovery, replayed the whole log")
					}
					compareSnap(t, r2.Snapshot(), final)
					if id, err := r2.Add(1.0); err != nil || id <= maxID {
						t.Fatalf("recovered id %d (err %v) not past pre-crash max %d", id, err, maxID)
					}
				}
			})
		}
	}
}

// workerOp is one applied mutation in a concurrent worker's log:
// kind 'a' (add), 'u' (rebid) or 'r' (leave).
type workerOp struct {
	kind byte
	id   int
	t    float64
}

// TestConcurrentJournalRecovery hammers a journaled registry from
// concurrent workers (with a sealer racing them), then recovers the
// log at several shard counts: the recovered epoch must match the last
// live one bitwise, and the final canonical S must match a serial
// alloc.Stream replay of the merged worker logs. Run under -race this
// is also the writer's race test.
func TestConcurrentJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{Sync: SyncNone, SnapshotEvery: 4, SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	r, err := registry.New(registry.Config{Rate: 25, Shards: 8, Journal: w})
	if err != nil {
		t.Fatal(err)
	}

	const workers, opsPerWorker = 8, 1500
	logs := make([][]workerOp, workers)
	done := make(chan int, workers)
	for wk := 0; wk < workers; wk++ {
		go func(wk int) {
			rng := rand.New(rand.NewPCG(uint64(wk), 77))
			var mine []int
			log := make([]workerOp, 0, opsPerWorker)
			for i := 0; i < opsPerWorker; i++ {
				p := rng.Float64()
				switch {
				case p < 0.4 || len(mine) == 0:
					bid := 0.1 + 10*rng.Float64()
					id, err := r.Add(bid)
					if err != nil {
						t.Errorf("worker %d: %v", wk, err)
						break
					}
					mine = append(mine, id)
					log = append(log, workerOp{'a', id, bid})
				case p < 0.85:
					id := mine[rng.IntN(len(mine))]
					bid := 0.1 + 10*rng.Float64()
					if err := r.Update(id, bid); err != nil {
						t.Errorf("worker %d: %v", wk, err)
						break
					}
					log = append(log, workerOp{'u', id, bid})
				default:
					j := rng.IntN(len(mine))
					id := mine[j]
					if err := r.Remove(id); err != nil {
						t.Errorf("worker %d: %v", wk, err)
						break
					}
					mine[j] = mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					log = append(log, workerOp{'r', id, 0})
				}
				if wk == 0 && i%250 == 249 {
					r.Seal()
				}
			}
			logs[wk] = log
			done <- wk
		}(wk)
	}
	for i := 0; i < workers; i++ {
		<-done
	}
	final := recordSnap(r.Seal())
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	checkMergedRecovery(t, dir, 25, logs, final)
}

// checkMergedRecovery checks a concurrently written log against its
// workers' logs: the last live seal must equal a serial alloc.Stream
// replay of the merged logs, and recovery at shard counts {1,4,32}
// must reproduce that seal bitwise.
func checkMergedRecovery(t *testing.T, dir string, rate float64, logs [][]workerOp, final sealRec) {
	t.Helper()
	// Serial ground truth: per-id histories are total orders (each id
	// is owned by one worker), so replaying id-by-id reproduces the
	// final live set; the canonical S is order-independent beyond that.
	maxID := -1
	for _, log := range logs {
		for _, o := range log {
			if o.id > maxID {
				maxID = o.id
			}
		}
	}
	byID := make([][]workerOp, maxID+1)
	for _, log := range logs {
		for _, o := range log {
			byID[o.id] = append(byID[o.id], o)
		}
	}
	st, err := alloc.NewStream(rate)
	if err != nil {
		t.Fatal(err)
	}
	liveBid := make(map[int]float64)
	for id, hist := range byID {
		bid, live := 0.0, false
		for _, o := range hist {
			switch o.kind {
			case 'a', 'u':
				bid, live = o.t, true
			case 'r':
				live = false
			}
		}
		if live {
			liveBid[id] = bid
		}
	}
	// Install the surviving population at its registry ids by adding
	// every id in ascending order and removing the dead ones — stream
	// ids are sequential, so this keeps them aligned.
	for id := 0; id <= maxID; id++ {
		bid, ok := liveBid[id]
		if !ok {
			bid = 1
		}
		sid, err := st.Add(bid)
		if err != nil {
			t.Fatal(err)
		}
		if sid != id {
			t.Fatalf("stream id %d, want %d", sid, id)
		}
	}
	for id := 0; id <= maxID; id++ {
		if _, ok := liveBid[id]; !ok {
			if err := st.Remove(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if math.Float64bits(st.Sealed()) != final.sum {
		t.Fatalf("final live seal diverged from serial stream replay")
	}

	for _, shards := range []int{1, 4, 32} {
		r2, _, err := Recover(dir, registry.Config{Rate: 1, Shards: shards})
		if err != nil {
			t.Fatalf("recover at %d shards: %v", shards, err)
		}
		compareSnap(t, r2.Snapshot(), final)
	}
}

// TestRestartContinues opens, serves, closes, reopens: epochs and ids
// must continue where the previous incarnation stopped.
func TestRestartContinues(t *testing.T) {
	dir := t.TempDir()
	cfg := registry.Config{Rate: 10, Shards: 4}
	r1, w1, info1, err := Open(dir, Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !info1.Fresh {
		t.Fatalf("expected a fresh log")
	}
	ids := make([]int, 0, 8)
	for i := 0; i < 8; i++ {
		id, err := r1.Add(float64(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	first := recordSnap(r1.Seal())
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	r2, w2, info2, err := Open(dir, Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if info2.Fresh {
		t.Fatalf("second open should recover, not start fresh")
	}
	compareSnap(t, r2.Snapshot(), first)
	id, err := r2.Add(99)
	if err != nil {
		t.Fatal(err)
	}
	if id <= ids[len(ids)-1] {
		t.Fatalf("id %d reused across restart (max was %d)", id, ids[len(ids)-1])
	}
	snap := r2.Seal()
	if snap.Epoch() != first.epoch+1 {
		t.Fatalf("epoch %d after restart, want %d", snap.Epoch(), first.epoch+1)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	// Third incarnation sees the post-restart state.
	r3, w3, _, err := Open(dir, Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	compareSnap(t, r3.Snapshot(), recordSnap(snap))
}

// TestSyncPolicies pins the durability contract of each policy under
// an Abandon (a simulated crash that drops the unflushed buffer).
func TestSyncPolicies(t *testing.T) {
	t.Run("seal-durable", func(t *testing.T) {
		dir := t.TempDir()
		w, err := Create(dir, Options{Sync: SyncSeal})
		if err != nil {
			t.Fatal(err)
		}
		r, err := registry.New(registry.Config{Rate: 10, Shards: 4, Journal: w})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if _, err := r.Add(float64(i + 1)); err != nil {
				t.Fatal(err)
			}
		}
		// The durable seal is a corrected one, as a health controller
		// would publish: one agent ejected, one discounted.
		sealed, err := r.SealCorrected(&registry.Correction{
			Drop:    map[int]bool{3: true},
			Weights: map[int]float64{7: 0.5},
		})
		if err != nil {
			t.Fatal(err)
		}
		atSeal := recordSnap(sealed)
		for i := 0; i < 20; i++ { // buffered after the seal: lost
			if _, err := r.Add(1); err != nil {
				t.Fatal(err)
			}
		}
		w.Abandon()
		r2, info, err := Recover(dir, registry.Config{Rate: 10, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		got := r2.Snapshot()
		compareSnap(t, got, atSeal)
		if dropped, discounted := got.Correction(); dropped != 1 || discounted != 1 {
			t.Fatalf("recovered Correction() = %d dropped, %d discounted; want 1, 1", dropped, discounted)
		}
		if info.TornTail {
			t.Fatalf("clean fsync boundary reported a torn tail")
		}
	})
	t.Run("none-loses-buffer", func(t *testing.T) {
		dir := t.TempDir()
		w, err := Create(dir, Options{Sync: SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		r, err := registry.New(registry.Config{Rate: 10, Shards: 4, Journal: w})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if _, err := r.Add(float64(i + 1)); err != nil {
				t.Fatal(err)
			}
		}
		r.Seal()
		w.Abandon()
		r2, _, err := Recover(dir, registry.Config{Rate: 10, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		if got := r2.Snapshot(); got.N() != 0 || got.Epoch() != 1 {
			t.Fatalf("unsynced buffer survived the crash: %d live, epoch %d", got.N(), got.Epoch())
		}
	})
	t.Run("parse", func(t *testing.T) {
		for _, s := range []string{"batch", "seal", "interval", "none"} {
			p, err := ParseSyncPolicy(s)
			if err != nil || p.String() != s {
				t.Fatalf("round trip %q: %v (%v)", s, p, err)
			}
		}
		if _, err := ParseSyncPolicy("bogus"); err == nil {
			t.Fatalf("bogus policy accepted")
		}
	})
}

// TestCreateRefusesExistingLog: Create on a directory with a log must
// fail (Open recovers it instead).
func TestCreateRefusesExistingLog(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, Options{}); err == nil {
		t.Fatalf("Create over an existing log succeeded")
	}
}

// TestCompactionAndSnapshotFallback drives enough traffic through a
// small-segment log that snapshots compact the prefix away, then
// verifies retention and recovery — including with the newest
// snapshot deliberately corrupted, which must fall back to an older
// one.
func TestCompactionAndSnapshotFallback(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{Sync: SyncNone, SegmentBytes: 4 << 10, SnapshotEvery: 2, BatchBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	r, err := registry.New(registry.Config{Rate: 10, Shards: 4, Journal: w})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 5))
	var live []int
	for i := 0; i < 2500; i++ {
		if len(live) < 40 || rng.IntN(3) == 0 {
			id, err := r.Add(0.1 + 10*rng.Float64())
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		} else {
			id := live[rng.IntN(len(live))]
			if err := r.Update(id, 0.1+10*rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		if i%150 == 149 {
			r.Seal()
		}
	}
	final := recordSnap(r.Seal())
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	segs, snaps, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Retention keeps every sidecar from the previous full one on, so
	// the oldest retained sidecar is full and at most one other is.
	// Compaction trims exactly to the older full sidecar's segment when
	// two are retained — everything before it is deleted, nothing after
	// — and keeps the log from segment 1 while one is. Which mid-run
	// snapshot candidates the background writer skipped, and so which
	// sidecars are deltas, is timing-dependent, but these invariants
	// hold for whichever survive.
	var fulls []*snapData
	for i, s := range snaps {
		sd, err := readSnapshot(s.path)
		if err != nil {
			t.Fatal(err)
		}
		if sd.delta == nil {
			fulls = append(fulls, sd)
		} else if i == 0 {
			t.Fatalf("the oldest retained sidecar, epoch %d, is a delta", sd.epoch)
		}
	}
	if len(fulls) == 0 || len(fulls) > 2 {
		t.Fatalf("retention kept %d full sidecars among %d, want 1 or 2", len(fulls), len(snaps))
	}
	wantSeg := uint64(1)
	if len(fulls) == 2 {
		wantSeg = fulls[0].seg
	}
	if segs[0].seq != wantSeg {
		t.Fatalf("oldest segment %d, want %d (%d full sidecars retained)", segs[0].seq, wantSeg, len(fulls))
	}
	t.Logf("retained %d sidecars, %d of them full, and segments %d-%d", len(snaps), len(fulls), segs[0].seq, segs[len(segs)-1].seq)

	check := func(fromSnapshot bool) {
		t.Helper()
		r2, info, err := Recover(dir, registry.Config{Rate: 1, Shards: 8})
		if err != nil {
			t.Fatal(err)
		}
		if fromSnapshot && info.SnapshotEpoch == 0 {
			t.Fatalf("recovery did not use a snapshot")
		}
		compareSnap(t, r2.Snapshot(), final)
	}
	check(true)

	// Corrupt the newest snapshot: recovery must fall back.
	newest := snaps[len(snaps)-1].path
	b, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(newest, b, 0o644); err != nil {
		t.Fatal(err)
	}
	// With one sidecar retained, the fallback is the whole log, which
	// retention then keeps from segment 1.
	check(len(snaps) > 1)

	// With every snapshot gone and the prefix compacted, recovery must
	// refuse rather than fabricate state.
	for _, s := range snaps {
		if err := os.Remove(s.path); err != nil {
			t.Fatal(err)
		}
	}
	if segs[0].seq > 1 {
		if _, _, err := Recover(dir, registry.Config{Rate: 1, Shards: 8}); err == nil {
			t.Fatalf("recovery fabricated state from a compacted log with no snapshot")
		}
	}
}

// TestOpenTruncatesTornTail appends garbage to the tail segment and
// verifies Open truncates it and keeps serving correctly.
func TestOpenTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	cfg := registry.Config{Rate: 10, Shards: 4}
	r1, w1, _, err := Open(dir, Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := r1.Add(float64(i + 1)); err != nil {
			t.Fatal(err)
		}
	}
	pre := recordSnap(r1.Seal())
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	// A torn write: a full frame header promising more payload than
	// the file holds.
	path := filepath.Join(dir, segName(1))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{17, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	r2, w2, info, err := Open(dir, Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !info.TornTail {
		t.Fatalf("torn tail not reported")
	}
	compareSnap(t, r2.Snapshot(), pre)
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size()-11 {
		t.Fatalf("tail not truncated: %d bytes, want %d", after.Size(), before.Size()-11)
	}
	if _, err := r2.Add(42); err != nil {
		t.Fatal(err)
	}
	post := recordSnap(r2.Seal())
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	r3, _, err := Recover(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	compareSnap(t, r3.Snapshot(), post)
}

// TestWALAppendAllocFree pins the zero-allocation append path, per-op
// and batched.
func TestWALAppendAllocFree(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	group := []registry.BatchOp{
		{Kind: registry.BatchAdd, ID: 8, T: 1.5},
		{Kind: registry.BatchRebid, ID: 8, T: 3},
		{Kind: registry.BatchLeave, ID: 8},
	}
	w.Added(7, 1.25) // warm the buffer
	avg := testing.AllocsPerRun(2000, func() {
		w.Added(7, 1.25)
		w.Updated(7, 2.5)
		w.Removed(7)
		w.RateChanged(3.5)
		w.Mutations(group)
	})
	if avg != 0 {
		t.Fatalf("append path allocates %.1f times per run, want 0", avg)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
}
