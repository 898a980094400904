package registry

import "math"

// Snapshot is one sealed epoch: the immutable live population, its
// canonical aggregate S = Σ 1/b_i and the rate R frozen at seal time.
// It holds {epoch, R, S, n} and one id-indexed bid array, 8 bytes per
// id issued before the seal; readers compute 1/b_i from the bid,
// which is bitwise the inverse the seal summed. Every per-agent query
// below is O(1), lock-free and allocation-free — a snapshot is never
// mutated after publication, so readers touch it without
// coordination, and a reader holding an old snapshot keeps a
// consistent (if stale) view for as long as it likes. IDs and Bids
// are the exceptions: they scan the whole array.
type Snapshot struct {
	epoch uint64
	rate  float64
	s     float64
	n     int       // live agents: the nonzero entries of t
	t     []float64 // id-indexed bid; 0 = absent

	// Health correction applied at seal time (see SealCorrected).
	dropped    int
	discounted int
}

// Epoch returns the seal sequence number. New seals the empty
// population as epoch 1, so published epochs are strictly positive
// and increase by one per seal.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Rate returns the total arrival rate R frozen at seal time.
func (s *Snapshot) Rate() float64 { return s.rate }

// Sum returns the canonical sealed aggregate S = Σ 1/b_i (the
// ascending-id Neumaier reduction; see the package comment).
func (s *Snapshot) Sum() float64 { return s.s }

// N returns the number of live agents in the sealed epoch.
func (s *Snapshot) N() int { return s.n }

// IDs returns the live ids in ascending order, parallel to Bids. It
// scans every id issued before the seal — O(ids issued), not O(1) —
// so call it once per snapshot, outside any per-agent loop. dst is
// filled and returned when it has the capacity; otherwise a new slice
// is allocated.
func (s *Snapshot) IDs(dst []int) []int {
	if cap(dst) < s.n {
		dst = make([]int, s.n)
	}
	dst = dst[:s.n]
	j := 0
	for id, t := range s.t {
		if t != 0 {
			dst[j] = id
			j++
		}
	}
	return dst
}

// Bids returns the sealed bids in ascending id order, parallel to
// IDs: the population that alloc.ProportionalInto and the mech.Engine
// price against this epoch's canonical S. Like IDs it scans every id
// issued before the seal, and dst is reused when it has the capacity.
func (s *Snapshot) Bids(dst []float64) []float64 {
	if cap(dst) < s.n {
		dst = make([]float64, s.n)
	}
	dst = dst[:s.n]
	j := 0
	for _, t := range s.t {
		if t != 0 {
			dst[j] = t
			j++
		}
	}
	return dst
}

// Correction reports the health adjustment applied at seal time: how
// many live agents the corrected epoch dropped (ejected) and how many
// it discounted (degraded or slow-starting). Both are zero for an
// uncorrected epoch.
func (s *Snapshot) Correction() (dropped, discounted int) {
	return s.dropped, s.discounted
}

// Contains reports whether the agent was live in the sealed epoch.
func (s *Snapshot) Contains(id int) bool {
	return id >= 0 && id < len(s.t) && s.t[id] != 0
}

// Value returns the agent's sealed bid.
func (s *Snapshot) Value(id int) (float64, bool) {
	if !s.Contains(id) {
		return 0, false
	}
	return s.t[id], true
}

// Load returns the agent's PR allocation x_i = R/(b_i·S) under the
// sealed epoch — the same expression, against the same canonical S,
// that alloc.ProportionalInto evaluates for the id-ordered bid
// vector, so per-agent loads agree bitwise with a full serial
// allocation.
func (s *Snapshot) Load(id int) (float64, bool) {
	if !s.Contains(id) {
		return 0, false
	}
	return s.rate / (s.t[id] * s.s), true
}

// OptimalLatency returns the sealed system optimum L* = R²/S, +Inf
// for an empty epoch under positive rate (0 at rate 0), matching
// alloc.Stream.OptimalLatency.
func (s *Snapshot) OptimalLatency() float64 {
	if s.s == 0 {
		if s.rate == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return s.rate * s.rate / s.s
}

// ExclusionLatency returns the sealed optimum of the system without
// the agent — the L_{-i} term of the mechanism's bonus — in O(1),
// matching alloc.Stream.ExclusionLatency evaluated at the canonical
// aggregate.
func (s *Snapshot) ExclusionLatency(id int) (float64, bool) {
	if !s.Contains(id) {
		return 0, false
	}
	rest := s.s - 1/s.t[id]
	if rest <= 0 {
		if s.rate == 0 {
			return 0, true
		}
		return math.Inf(1), true
	}
	return s.rate * s.rate / rest, true
}

// Payment returns the agent's compensation-and-bonus payment under
// the sealed epoch assuming truthful execution, in O(1): for the
// linear model a truthful agent's compensation is l_i(x_i) = R/S and
// its bonus is L*_{-i} − L* = R²/(S − 1/b_i) − R²/S. The bonus is
// evaluated as (R²/S)·((1/b_i)/(S − 1/b_i)): it is only L*/(S·b_i − 1),
// so subtracting the two optima would multiply their rounding errors
// by about S·b_i, while this form stays within a few ulps of the exact
// value at any population. These closed forms are algebraically equal
// to the mech.Engine payment run over the sealed population, differing
// only in floating-point association (the differential tests bound
// the gap); full sweeps that must match the engine bitwise run it over
// Bids instead.
func (s *Snapshot) Payment(id int) (compensation, bonus float64, ok bool) {
	if !s.Contains(id) {
		return 0, 0, false
	}
	compensation = s.rate / s.s
	lStar := s.rate * s.rate / s.s
	inv := 1 / s.t[id]
	rest := s.s - inv
	if rest <= 0 {
		if s.rate == 0 {
			return compensation, 0, true
		}
		return compensation, math.Inf(1), true
	}
	bonus = lStar * (inv / rest)
	return compensation, bonus, true
}
