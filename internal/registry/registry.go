// Package registry is the concurrent, sharded bid registry behind the
// coordinator's serving path. The paper's PR allocation and its
// compensation-and-bonus payments all price agents off one aggregate
// S = Σ 1/b_i; internal/alloc.Stream maintains that aggregate online
// but is single-goroutine, so a coordinator built on it serializes
// every bid, rebid and query. This package scales the same state
// across cores:
//
//   - Writes are lock-striped. Agents live in power-of-two many
//     shards (shard = id mod nShards); each shard keeps one record
//     per local id (id / nShards) holding just the bid, 8 bytes, and
//     one written-since-seal bit per local id. A mutation resolves the
//     id with one array index, no map and no slot indirection, and
//     touches one record and one word of bits. A shard keeps no
//     running sum: the only aggregate anything prices with is the one
//     each seal recomputes from the bids. Concurrent mutations contend
//     only when they hash to the same shard.
//
//   - Reads are lock-free. Seal freezes the current population into
//     an immutable Snapshot — {epoch, R, S, n} plus one id-indexed
//     bid array — and publishes it through an atomic pointer. Readers
//     answer x_i, L*, L_{-i} and per-agent payment queries against
//     the snapshot in O(1) with zero allocations and no lock, while
//     writers keep mutating the shards underneath.
//
// Determinism. Seal computes S as a single Neumaier summation over
// the live bids in ascending id order. That reduction depends only on
// the live (id, bid) set, so it is independent of the shard count,
// the worker count and the mutation history — and it is exactly what
// alloc.Stream.Sealed and alloc.ProportionalInto compute, which makes
// sealed-epoch aggregates, allocation vectors and payment sweeps
// bitwise-identical to a serial replay of the same events through
// alloc.Stream. The differential tests pin this down.
//
// Ids are assigned by a global monotonic counter and never recycled,
// matching alloc.Stream, so everything is indexed by every id ever
// issued. Each issued id costs 8 bytes of shard record plus one
// written-since-seal bit, and 8 bytes in every sealed epoch's bid
// array (a reader computes 1/b_i from it), whether it is live or
// departed: a departed id keeps its record and its slot in every later
// seal. Nothing bounds this by the live count, so under churn the
// footprint grows with every add; ROADMAP.md's "Bound the footprint by
// live agents" item tracks the fix.
package registry

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/alloc"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// DefaultShards is the shard count used when Config.Shards is not
// positive: wide enough that a few dozen writer goroutines rarely
// collide, small enough that sealing's fixed per-shard work is noise.
const DefaultShards = 32

// gatherMinIDs is the id count from which ApplyBatch runs its gather
// pass (see the comment above BatchKind). The records of 1<<16 ids
// fill 512 KiB, half of one server core's L2. Below that a rebid's
// record is an L2 hit at worst, which the apply loop's out-of-order
// window already overlaps, so the gather would only add a walk over
// the group: about 4 ns per op at 8k agents.
const gatherMinIDs = 1 << 16

// Config configures a Registry.
type Config struct {
	// Rate is the total job arrival rate R. Like alloc.NewStream, a
	// negative or non-finite rate is rejected.
	Rate float64
	// Shards is the shard count, rounded up to a power of two;
	// non-positive means DefaultShards.
	Shards int
	// Metrics is the optional instrumentation bundle (nil disables).
	Metrics *obs.RegistryMetrics
	// Journal is the optional write-ahead hook on the mutation and
	// seal paths (nil disables; see Journal). internal/wal implements
	// it to make the registry crash-recoverable.
	Journal Journal
}

// Registry is the concurrent sharded bid registry. All methods are
// safe for concurrent use.
type Registry struct {
	shards  []shard
	mask    int // nShards - 1 (shard count is a power of two)
	bits    int // log2(shard count): id = local<<bits | shard
	nextID  atomic.Int64
	rateBit atomic.Uint64
	epoch   atomic.Uint64 // sealed epochs so far
	snap    atomic.Pointer[Snapshot]
	sealMu  sync.Mutex
	met     *obs.RegistryMetrics
	// journal is the configured Journal as resolved by batchJournal;
	// read under a shard lock or sealMu, see AttachJournal.
	journal BatchJournal
	// gatherMin is gatherMinIDs; tests lower it to drive the gather
	// pass at small populations.
	gatherMin int
	// visitWritten is writtenIDs bound once, so that handing it to
	// every SealEvent allocates nothing.
	visitWritten func(visit func(id int))
}

// rec is one id's record in its shard: the bid t, 8 bytes, eight to a
// cache line, 0 when the id is absent (a live bid is always > 0 with a
// finite 1/t, see checkT). The inverse is not stored: every reader
// computes 1/t, which is bitwise the value a stored inverse would hold.
type rec struct {
	t float64
}

// shard is one lock stripe: the records of the ids it owns and their
// written-since-seal bits.
type shard struct {
	mu sync.Mutex

	// recs is indexed by local id (id >> bits), so walking it in index
	// order visits the shard's live ids in ascending global-id order.
	recs []rec
	// written holds one bit per local id, set by every add, rebid and
	// leave and cleared by every seal (and AttachJournal). A rebid that finds its bit set
	// overwrites a bid no epoch observed (coalesced-rebid accounting),
	// and the journal reads the set bits at the seal (SealEvent.Written).
	written []uint64
	live    int

	// The fields above fill 64 bytes with 8-byte words and 36 with
	// 4-byte ones; padding them to 128 keeps one shard's hot line off
	// its neighbours' lines at any slice alignment.
	_ [128 - unsafe.Sizeof(sync.Mutex{}) - unsafe.Sizeof([]rec(nil)) - unsafe.Sizeof([]uint64(nil)) - unsafe.Sizeof(0)]byte
}

// New returns an empty registry. The zero-agent state is sealed
// immediately, so Snapshot never returns nil.
func New(cfg Config) (*Registry, error) {
	if err := checkRate(cfg.Rate); err != nil {
		return nil, err
	}
	n := cfg.Shards
	if n <= 0 {
		n = DefaultShards
	}
	pow := 1
	for pow < n {
		pow <<= 1
	}
	r := &Registry{shards: make([]shard, pow), mask: pow - 1, bits: shardBits(pow - 1), met: cfg.Metrics, journal: batchJournal(cfg.Journal), gatherMin: gatherMinIDs}
	r.visitWritten = r.writtenIDs
	r.rateBit.Store(math.Float64bits(cfg.Rate))
	r.Seal()
	return r, nil
}

// Shards returns the shard count.
func (r *Registry) Shards() int { return r.mask + 1 }

// Rate returns the current total arrival rate.
func (r *Registry) Rate() float64 { return math.Float64frombits(r.rateBit.Load()) }

// SetRate changes the total arrival rate; it takes effect at the next
// Seal. A negative or non-finite rate is a *alloc.ValueError, the
// same contract as alloc.Stream. Rate changes serialize against seals
// (they share the seal mutex) so a journal sees them in the order the
// epochs observed them.
func (r *Registry) SetRate(rate float64) error {
	if err := checkRate(rate); err != nil {
		return err
	}
	r.sealMu.Lock()
	r.rateBit.Store(math.Float64bits(rate))
	if j := r.journal; j != nil {
		j.RateChanged(rate)
	}
	r.sealMu.Unlock()
	return nil
}

// Add registers an agent bidding t and returns its id. A t that
// alloc.ValidT rejects is a *alloc.ValueError, the same contract as
// alloc.Stream.Add. Ids are globally monotone: an Add never reuses
// the id of a removed agent.
func (r *Registry) Add(t float64) (int, error) {
	if err := checkT(t); err != nil {
		return 0, err
	}
	id := int(r.nextID.Add(1) - 1)
	sh := &r.shards[id&r.mask]

	sh.mu.Lock()
	sh.add(id>>r.bits, t)
	if j := r.journal; j != nil {
		j.Added(id, t)
	}
	sh.mu.Unlock()

	r.met.Mutated("add", false)
	return id, nil
}

// Remove deregisters an agent.
func (r *Registry) Remove(id int) error {
	sh, local, err := r.locate(id)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	rc := sh.get(local)
	if rc == nil {
		sh.mu.Unlock()
		return unknownID(id)
	}
	sh.remove(rc, local)
	if j := r.journal; j != nil {
		j.Removed(id)
	}
	sh.mu.Unlock()

	r.met.Mutated("remove", false)
	return nil
}

// Update changes an agent's bid. A t that alloc.ValidT rejects is a
// *alloc.ValueError, the same contract as alloc.Stream.Update.
func (r *Registry) Update(id int, t float64) error {
	if err := checkT(t); err != nil {
		return err
	}
	sh, local, err := r.locate(id)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	rc := sh.get(local)
	if rc == nil {
		sh.mu.Unlock()
		return unknownID(id)
	}
	coalesced := sh.rebid(rc, local, t)
	if j := r.journal; j != nil {
		j.Updated(id, t)
	}
	sh.mu.Unlock()

	r.met.Mutated("update", coalesced)
	return nil
}

// Value returns the agent's current bid (not the sealed one; use
// Snapshot().Value for epoch-consistent reads).
func (r *Registry) Value(id int) (float64, bool) {
	sh, local, err := r.locate(id)
	if err != nil {
		return 0, false
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rc := sh.get(local)
	if rc == nil {
		return 0, false
	}
	return rc.t, true
}

// Live returns the current live agent count (summing shard counters
// under their locks; prefer Snapshot().N for the sealed view).
func (r *Registry) Live() int {
	total := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		total += sh.live
		sh.mu.Unlock()
	}
	return total
}

// Snapshot returns the last sealed snapshot. The load is a single
// atomic pointer read: it never blocks, never allocates, and is safe
// to call from any number of goroutines while writers mutate and
// sealers publish.
func (r *Registry) Snapshot() *Snapshot {
	return r.snap.Load()
}

// Correction is the health adjustment a corrected seal applies on top
// of the live population — the registry-side half of the paper's
// verification loop run continuously (see internal/health). It never
// mutates the registry: the underlying bids stay whatever the agents
// bid, and a later uncorrected Seal sees them untouched.
type Correction struct {
	// Weights maps agent ids to capacity factors in (0, 1]: the sealed
	// epoch prices id as if it had bid t/weight, so a half-weight
	// (degraded or slow-starting) computer draws half the allocation
	// share its bid would earn. Weights outside (0, 1] or non-finite
	// are rejected; ids that are not live are ignored.
	Weights map[int]float64
	// Drop is the set of agent ids excluded from the sealed epoch
	// entirely (ejected computers). Ids that are not live are ignored;
	// an id that is both dropped and weighted is dropped.
	Drop map[int]bool
}

// empty reports whether the correction adjusts nothing.
func (c *Correction) empty() bool {
	return c == nil || (len(c.Weights) == 0 && len(c.Drop) == 0)
}

// validate rejects malformed weights up front, before any lock is
// taken.
func (c *Correction) validate() error {
	if c == nil {
		return nil
	}
	for _, w := range c.Weights {
		if !(w > 0 && w <= 1) || math.IsNaN(w) {
			return &alloc.ValueError{Field: "weight", Value: w}
		}
	}
	return nil
}

// Seal freezes the current population into a new immutable Snapshot,
// publishes it, and returns it. The sealed bid array (8 bytes per
// issued id) is allocated before any lock is taken; the shard locks
// are then all held only for the copy of the bids into it, the reset
// of the written-since-seal bits (1 bit per issued id) and the
// journal's seal record — writers queue behind a seal for that
// window, O(ids issued) work spread across cores, which
// lb_registry_seal_hold_seconds measures. The canonical aggregate is
// computed after they are released: one Neumaier pass over the live
// bids in ascending id order, the shard-count- and schedule-
// independent reduction shared with alloc.Stream.Sealed. Concurrent
// Seal calls serialize.
func (r *Registry) Seal() *Snapshot {
	snap, _ := r.SealCorrected(nil) // a nil correction cannot fail
	return snap
}

// SealCorrected seals an epoch with health corrections applied:
// dropped agents are absent from the snapshot (as if removed) and
// weighted agents are priced at bid t/weight (as if they had rebid),
// while the registry's own state is untouched. The canonical S is the
// same ascending-id Neumaier reduction as Seal, computed over the
// corrected bids — so the corrected epoch is bitwise identical to a
// serial alloc.Stream replay in which the dropped agents were removed
// and the weighted agents updated to t/weight, for any shard count,
// worker count and mutation history. It depends only on the live
// (id, bid) set and the correction, never on map iteration order.
func (r *Registry) SealCorrected(c *Correction) (*Snapshot, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	r.sealMu.Lock()
	defer r.sealMu.Unlock()
	start := time.Now()

	// The sealed bid array is allocated (and zeroed) before the writers
	// stop; ids issued in between extend it under the locks below.
	t := make([]float64, r.nextID.Load())

	held := time.Now()
	for i := range r.shards {
		r.shards[i].mu.Lock()
	}
	maxID := int(r.nextID.Load())
	if maxID > len(t) {
		t = append(t, make([]float64, maxID-len(t))...)
	}
	live := 0
	// The copy walks ids in ascending order, so each block writes t
	// sequentially and reads every shard's records as one sequential
	// stream; per-shard passes would write t at a stride of the shard
	// count and return to each output line once per shard. With every
	// shard lock held the blocks are independent, so they fan out
	// across cores; a single block or a single-core host runs the
	// plain loop. An id below maxID may still lack a record (its add
	// is between taking its id and its shard lock), and an absent
	// record holds t = 0, so the copy needs no liveness test.
	shards, mask, bits := r.shards, r.mask, r.bits
	parallel.ForEachBlock(maxID, 0, 0, func(lo, hi int) {
		for id := lo; id < hi; id++ {
			if recs, local := shards[id&mask].recs, id>>bits; local < len(recs) {
				t[id] = recs[local].t
			}
		}
	})
	for i := range r.shards {
		live += r.shards[i].live
	}
	rate := r.Rate()
	epoch := r.epoch.Add(1)
	// The journal barrier: with every shard lock still held, mutations
	// journaled before this record are exactly those the copy above
	// observed (see Journal). T is the uncorrected copy; the
	// correction below turns it into the published epoch's bids.
	if j := r.journal; j != nil {
		j.Sealed(SealEvent{Epoch: epoch, Rate: rate, Next: maxID, Live: live, Correction: c, T: t, Written: r.visitWritten})
	}
	// The copy observed every bid written so far, so the written-since-
	// seal bits restart here, once the journal has read them.
	for i := range r.shards {
		clear(r.shards[i].written)
		r.shards[i].mu.Unlock()
	}
	hold := time.Since(held)

	// Apply the correction to the sealed copy (never to the shards):
	// drops zero the slot, discounts reprice it at t/weight — exactly
	// what an alloc.Stream replay of the same adjustments produces.
	// Map iteration order is irrelevant: each entry pokes an
	// independent array slot, and the aggregate below is a single
	// ascending-id pass.
	dropped, discounted := 0, 0
	if !c.empty() {
		for id := range c.Drop {
			if id >= 0 && id < len(t) && t[id] != 0 {
				t[id] = 0
				dropped++
			}
		}
		for id, w := range c.Weights {
			if id >= 0 && id < len(t) && t[id] != 0 && w != 1 {
				t[id] /= w
				discounted++
			}
		}
	}

	n := 0
	var k numeric.KahanSum
	for _, v := range t {
		if v != 0 {
			k.Add(1 / v)
			n++
		}
	}
	snap := &Snapshot{
		epoch: epoch, rate: rate, s: k.Value(), n: n, t: t,
		dropped: dropped, discounted: discounted,
	}
	r.snap.Store(snap)
	r.met.Sealed(n, time.Since(start).Seconds(), hold.Seconds())
	// Deferred journal I/O happens here, outside the shard locks but
	// still serialized by the seal mutex.
	if j := r.journal; j != nil {
		j.Published(snap)
	}
	return snap, nil
}

// locate resolves an id to its shard and local index, rejecting ids
// that were never assigned.
func (r *Registry) locate(id int) (*shard, int, error) {
	if id < 0 || id >= int(r.nextID.Load()) {
		return nil, 0, unknownID(id)
	}
	return &r.shards[id&r.mask], id >> r.bits, nil
}

// get returns the local id's record when the id is live, nil
// otherwise (including local ids beyond the shard's records).
func (sh *shard) get(local int) *rec {
	if local < len(sh.recs) && sh.recs[local].t != 0 {
		return &sh.recs[local]
	}
	return nil
}

// add installs a live bid t at the absent local id, growing the
// records and the written bits to reach it. Called with the shard lock
// held, like every mutator below.
func (sh *shard) add(local int, t float64) {
	if local >= len(sh.recs) {
		sh.recs = append(sh.recs, make([]rec, local+1-len(sh.recs))...)
		if words := local>>6 + 1; words > len(sh.written) {
			sh.written = append(sh.written, make([]uint64, words-len(sh.written))...)
		}
	}
	sh.recs[local].t = t
	sh.mark(local)
	sh.live++
}

// rebid replaces live record rc's bid (local id local) with t. It
// reports whether the rebid coalesced: a predecessor written after the
// last seal is a value no epoch ever observed, so from every reader's
// point of view the two updates were one.
func (sh *shard) rebid(rc *rec, local int, t float64) bool {
	rc.t = t
	return sh.mark(local)
}

// remove retires live record rc (local id local). The written bit is
// set too, so the journal learns the id changed since the seal; no
// rebid can coalesce with a departure, since ids are never reused.
func (sh *shard) remove(rc *rec, local int) {
	rc.t = 0
	sh.mark(local)
	sh.live--
}

// mark sets the local id's written-since-seal bit and reports whether
// it was already set.
func (sh *shard) mark(local int) bool {
	w, bit := &sh.written[local>>6], uint64(1)<<(local&63)
	was := *w&bit != 0
	*w |= bit
	return was
}

// writtenIDs calls visit for each id whose written-since-seal bit is
// set, shard by shard. Called with every shard lock held.
func (r *Registry) writtenIDs(visit func(id int)) {
	for s := range r.shards {
		for i, x := range r.shards[s].written {
			for ; x != 0; x &= x - 1 {
				visit((i<<6|bits.TrailingZeros64(x))<<r.bits | s)
			}
		}
	}
}

// shardBits returns log2 of the shard count for the given mask.
func shardBits(mask int) int {
	bits := 0
	for m := mask; m > 0; m >>= 1 {
		bits++
	}
	return bits
}

func unknownID(id int) error {
	return fmt.Errorf("registry: unknown agent id %d", id)
}

// checkT validates a bid with alloc.Stream's contract (alloc.ValidT).
func checkT(t float64) error {
	if !alloc.ValidT(t) {
		return &alloc.ValueError{Field: "t", Value: t}
	}
	return nil
}

// checkRate validates a rate with alloc.Stream's contract.
func checkRate(rate float64) error {
	if rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return &alloc.ValueError{Field: "rate", Value: rate}
	}
	return nil
}
