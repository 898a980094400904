package alloc

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/numeric"
)

// Stream is an online PR allocator for the linear model: it maintains
// the aggregate S = sum_i 1/t_i incrementally so that computers can
// join, leave and change speed in O(1) amortized time, with
// allocations, the optimal latency and every exclusion optimum
// available in O(1) per query. It is the data structure a long-running
// coordinator would keep between mechanism rounds in a system with
// churn.
//
// Floating-point drift from long add/remove sequences is bounded by
// recomputing S exactly (with compensated summation) every
// rebuildEvery mutations.
type Stream struct {
	rate    float64
	values  map[int]float64 // id -> t
	s       float64         // running sum of 1/t
	mutates int
	nextID  int
	sealIDs []int // scratch for Sealed's canonical id walk
}

// rebuildEvery bounds drift: after this many mutations the running sum
// is recomputed from scratch.
const rebuildEvery = 4096

// NewStream creates an empty online allocator for the given total
// arrival rate. A non-finite or negative rate is a *ValueError, the
// same contract as Proportional.
func NewStream(rate float64) (*Stream, error) {
	if err := checkRate(rate); err != nil {
		return nil, err
	}
	return &Stream{rate: rate, values: make(map[int]float64)}, nil
}

// Reset empties the stream in place and sets a new rate, keeping the
// map's storage so a long-lived engine can reuse one Stream across
// rounds without reallocating. Ids restart from zero.
func (st *Stream) Reset(rate float64) error {
	if err := checkRate(rate); err != nil {
		return err
	}
	if st.values == nil {
		st.values = make(map[int]float64)
	} else {
		clear(st.values)
	}
	st.rate = rate
	st.s = 0
	st.mutates = 0
	st.nextID = 0
	return nil
}

// Add registers a computer with latency parameter t and returns its
// id. A t that ValidT rejects is a *ValueError, the same contract as
// Proportional.
func (st *Stream) Add(t float64) (int, error) {
	if !ValidT(t) {
		return 0, &ValueError{Field: "t", Value: t}
	}
	id := st.nextID
	st.nextID++
	st.values[id] = t
	st.s += 1 / t
	st.bump()
	return id, nil
}

// Remove deregisters a computer.
func (st *Stream) Remove(id int) error {
	t, ok := st.values[id]
	if !ok {
		return fmt.Errorf("alloc: unknown computer id %d", id)
	}
	delete(st.values, id)
	st.s -= 1 / t
	st.bump()
	return nil
}

// Update changes a computer's latency parameter. A t that ValidT
// rejects is a *ValueError, the same contract as Proportional.
func (st *Stream) Update(id int, t float64) error {
	old, ok := st.values[id]
	if !ok {
		return fmt.Errorf("alloc: unknown computer id %d", id)
	}
	if !ValidT(t) {
		return &ValueError{Field: "t", Value: t}
	}
	st.values[id] = t
	st.s += 1/t - 1/old
	st.bump()
	return nil
}

// SetRate changes the total arrival rate. A non-finite or negative
// rate is a *ValueError, the same contract as Proportional.
func (st *Stream) SetRate(rate float64) error {
	if err := checkRate(rate); err != nil {
		return err
	}
	st.rate = rate
	return nil
}

// N returns the number of registered computers.
func (st *Stream) N() int { return len(st.values) }

// Sum returns the aggregate S = sum 1/t.
func (st *Stream) Sum() float64 { return st.s }

// Load returns the optimal load of one computer, x = rate/(t*S).
func (st *Stream) Load(id int) (float64, error) {
	t, ok := st.values[id]
	if !ok {
		return 0, fmt.Errorf("alloc: unknown computer id %d", id)
	}
	if st.s == 0 {
		return 0, errors.New("alloc: empty system")
	}
	return st.rate / (t * st.s), nil
}

// OptimalLatency returns the system optimum rate^2/S, or +Inf for an
// empty system under positive rate.
func (st *Stream) OptimalLatency() float64 {
	if st.s == 0 {
		if st.rate == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return st.rate * st.rate / st.s
}

// ExclusionLatency returns the optimal latency of the system without
// the given computer — the L_{-i} term of the mechanism's bonus — in
// O(1).
func (st *Stream) ExclusionLatency(id int) (float64, error) {
	t, ok := st.values[id]
	if !ok {
		return 0, fmt.Errorf("alloc: unknown computer id %d", id)
	}
	rest := st.s - 1/t
	if rest <= 0 {
		if st.rate == 0 {
			return 0, nil
		}
		return math.Inf(1), nil
	}
	return st.rate * st.rate / rest, nil
}

// Snapshot returns the ids and the full allocation vector in id order.
// The allocation is computed against the canonical sealed aggregate
// (see Sealed), so snapshots are deterministic functions of the live
// population: any two streams holding the same (id, t) set snapshot
// identically, regardless of the mutation history that produced them.
func (st *Stream) Snapshot() (ids []int, x []float64) {
	return st.SnapshotInto(nil, nil)
}

// SnapshotInto is Snapshot writing into caller-provided buffers
// (reused when their capacity suffices), so steady-state full sweeps
// allocate nothing. It returns the filled slices.
func (st *Stream) SnapshotInto(ids []int, x []float64) ([]int, []float64) {
	if cap(ids) < len(st.values) {
		ids = make([]int, 0, len(st.values))
	}
	ids = ids[:0]
	for id := range st.values {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	x = numeric.Resize(x, len(ids))
	var k numeric.KahanSum
	for _, id := range ids {
		k.Add(1 / st.values[id])
	}
	s := k.Value()
	for i, id := range ids {
		x[i] = st.rate / (st.values[id] * s)
	}
	return ids, x
}

// Sealed returns the canonical aggregate S = sum 1/t: a single
// compensated (Neumaier) summation over the live computers in
// ascending id order. Unlike the running Sum — whose last few bits
// depend on the mutation history — Sealed depends only on the live
// (id, t) set, which makes it the determinism anchor shared with the
// concurrent sharded registry: registry.Seal computes exactly this
// reduction, so sealed aggregates compare bitwise-equal across the
// two implementations for any shard or worker count.
func (st *Stream) Sealed() float64 {
	if cap(st.sealIDs) < len(st.values) {
		st.sealIDs = make([]int, 0, len(st.values))
	}
	st.sealIDs = st.sealIDs[:0]
	for id := range st.values {
		st.sealIDs = append(st.sealIDs, id)
	}
	slices.Sort(st.sealIDs)
	var k numeric.KahanSum
	for _, id := range st.sealIDs {
		k.Add(1 / st.values[id])
	}
	return k.Value()
}

// Value returns the latency parameter registered under id.
func (st *Stream) Value(id int) (float64, bool) {
	t, ok := st.values[id]
	return t, ok
}

// bump counts a mutation and periodically rebuilds the running sum
// with compensated summation to cancel drift.
func (st *Stream) bump() {
	st.mutates++
	if st.mutates%rebuildEvery != 0 {
		return
	}
	var k numeric.KahanSum
	for _, t := range st.values {
		k.Add(1 / t)
	}
	st.s = k.Value()
}
