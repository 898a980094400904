// Package dispatch routes individual jobs against sealed registry
// epochs. The mechanism computes an optimal rate allocation x_i* and
// internal/registry serves it as immutable O(1) snapshots; this
// package closes the remaining gap between "mechanism" and "load
// balancer": given a stream of online job arrivals, which instance
// does each job go to?
//
// The mechanism-faithful answer is the Alias dispatcher: a Walker
// alias table built from the sealed epoch's weights 1/b_i, so each
// job lands on instance i with probability x_i*/R — the sampled
// stream realizes the PR optimum without any instance coordination.
// Its hot path is two array reads and one branch (O(1) regardless of
// the instance count), the table is rebuilt per epoch (including
// health-corrected SealCorrected epochs, so ejections and weight
// discounts take effect at the next seal) and swapped through an
// atomic pointer: readers never take a lock and never observe a
// half-built table.
//
// The classic baselines every production balancer ships — round-robin,
// least-connections (plus its power-of-two-choices variant),
// smooth static-weighted, and ip-hash stickiness — live behind the
// same Dispatcher interface, so the lbdispatch load generator can
// drive millions of jobs per second through each policy and measure
// realized latency against the sealed optimum. All policies are
// allocation-free in steady state and safe for concurrent callers:
// shared state is either an atomic cursor, padded per-instance
// atomic counters, or an immutable view behind an atomic pointer.
//
// Policies whose per-job decision is a pure function of the job and
// the sealed epoch (alias, ip-hash, greedy) assign every job the same
// instance no matter how many goroutines drive them or how the job
// stream is partitioned — per-instance tallies, and therefore the
// realized-latency accounting in Account, are byte-identical for any
// worker count. Policies with shared mutable state (round-robin
// cursor, connection counters, smooth-weighted state) are fair in
// aggregate but schedule-dependent per job.
package dispatch

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/registry"
)

// Job is the routing context for one arriving request.
type Job struct {
	// ID is the job's sequence number in its stream; stateless
	// randomized policies hash it so every job gets a fresh draw.
	ID int64
	// Key identifies the client (an ip-hash input): sticky policies
	// route equal keys to the same instance within an epoch.
	Key uint64
}

// Dispatcher routes jobs to instances of the current sealed epoch.
// Instances are dense indices in [0, N()) ordering the epoch's live
// agents by ascending registry id. All methods are safe for
// concurrent use. Pick must not be called before the first
// successful Rebuild — a dispatcher with no epoch has nothing to
// route against and panics.
type Dispatcher interface {
	// Name returns the policy name (see Policies).
	Name() string
	// Pick routes one job, returning its instance index in [0, N()).
	Pick(j Job) int
	// Done reports completion of a job previously routed to target.
	// Connection-counting policies decrement their in-flight state;
	// the rest ignore it.
	Done(j Job, target int)
	// Rebuild swaps the dispatcher onto a newly sealed epoch. The
	// swap is atomic: concurrent Picks observe either the old or the
	// new epoch, never a mix. On error the previous epoch stays
	// active.
	Rebuild(snap *registry.Snapshot) error
	// N returns the instance count of the active epoch (0 before the
	// first successful Rebuild).
	N() int
}

// ErrNoInstances is returned by Rebuild (and the alias-table
// constructor) for an epoch with no live instances — a dispatcher
// cannot route against an empty population, mirroring the
// no-computers error of the allocation layer.
var ErrNoInstances = errors.New("dispatch: no live instances in epoch")

// view is the immutable per-epoch instance set shared by the simple
// policies: the sealed epoch number, the live registry ids in
// ascending order, and each instance's sampling weight 1/b_i (the
// sealed PR allocation is x_i* = R·w_i/Σw).
type view struct {
	epoch uint64
	ids   []int
	w     []float64
}

// viewFromSnapshot extracts the dense instance view of a sealed
// epoch. The weights are the snapshot's inverse bids, so a
// SealCorrected epoch's drops (absent ids) and weight discounts
// (re-priced bids) flow straight into the dispatch distribution. The
// view owns its ids and weights: 16 bytes per instance per rebuild.
func viewFromSnapshot(snap *registry.Snapshot) (*view, error) {
	if snap == nil || snap.N() == 0 {
		return nil, ErrNoInstances
	}
	w := snap.Bids(nil)
	for i, t := range w {
		w[i] = 1 / t
	}
	return &view{epoch: snap.Epoch(), ids: snap.IDs(nil), w: w}, nil
}

// mix64 is the SplitMix64 finalizer: a cheap invertible mix with full
// avalanche, used to turn job identity into uniform bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// jobBits maps a (seed, job) pair to 64 uniform bits, deterministically:
// the same job always draws the same bits, so hash-randomized policies
// are schedule- and worker-count-independent.
func jobBits(seed uint64, j Job) uint64 {
	return mix64(seed ^ uint64(j.ID)*0x9e3779b97f4a7c15 ^ j.Key*0xd1b54a32d192ed03)
}

// indexOf maps 32 uniform bits (the high word of u) onto [0, n) by
// multiply-shift — the bias is < 2^-32, far below every tolerance in
// this package — without a divide on the hot path.
func indexOf(u uint64, n int) int {
	return int((u >> 32) * uint64(n) >> 32)
}

// Policies lists the built-in policy names in presentation order.
func Policies() []string {
	return []string{"alias", "rr", "least-conn", "p2c", "weighted", "ip-hash", "greedy"}
}

// New constructs a dispatcher by policy name. The seed drives the
// hash-randomized policies (alias, p2c, ip-hash); deterministic
// policies ignore it. The dispatcher routes nothing until its first
// successful Rebuild.
func New(policy string, seed uint64) (Dispatcher, error) {
	switch policy {
	case "alias":
		return NewAlias(seed), nil
	case "rr":
		return NewRoundRobin(), nil
	case "least-conn":
		return NewLeastConn(), nil
	case "p2c":
		return NewPowerOfTwo(seed), nil
	case "weighted":
		return NewStaticWeighted(), nil
	case "ip-hash":
		return NewIPHash(seed), nil
	case "greedy":
		return NewGreedy(), nil
	}
	return nil, fmt.Errorf("dispatch: unknown policy %q", policy)
}

// atomicView is the shared swap cell: policies that need nothing
// beyond the instance view embed it.
type atomicView struct {
	v atomic.Pointer[view]
}

func (a *atomicView) rebuild(snap *registry.Snapshot) error {
	nv, err := viewFromSnapshot(snap)
	if err != nil {
		return err
	}
	a.v.Store(nv)
	return nil
}

func (a *atomicView) N() int {
	if v := a.v.Load(); v != nil {
		return len(v.ids)
	}
	return 0
}
