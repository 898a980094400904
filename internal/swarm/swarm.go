// Package swarm simulates distributed selfish load balancing at the
// scale the ROADMAP's north star asks for: millions of tasks
// selfishly migrating over thousands of machines, with no central
// coordinator. The protocol is the neighborhood-free randomized
// dynamics of Berenbrink, Friedetzky, Goldberg, Goldberg, Hu & Martin
// (Distributed Selfish Load Balancing, arXiv cs/0506098): in every
// round each task, in parallel, samples one machine uniformly at
// random, compares the destination's load with its own machine's load
// — both frozen at the start of the round — and migrates with
// probability 1 − ℓ_dest/ℓ_src when the destination is less loaded.
// The online variant (arXiv 2412.20711 frames the same dynamics under
// arrivals) is covered by per-round join/leave churn.
//
// Machines carry the mechanism's linear latency slopes t_i, so the
// load of machine i holding c_i tasks is ℓ_i = c_i·t_i and the
// balanced fixed point — all ℓ_i equal — is exactly the mechanism's
// one-shot optimum x*_i ∝ 1/t_i from alloc.Proportional. The swarm
// therefore measures how fast selfish dynamics approach the optimum
// the mechanism computes directly; a Config whose T is a sealed
// registry epoch's Snapshot.Bids runs the dynamics over that epoch's
// live bid population.
//
// # Layout and determinism
//
// State is struct-of-arrays: one int32 machine index per task, one
// int64 task count and one float64 load per machine. Rounds are
// fanned out over fixed-size task blocks via parallel.ForEachBlock;
// every block owns a numeric.Rand substream derived serially from the
// root stream in block order at the start of the round, so the random
// draws a task sees depend only on (seed, round, block layout) and
// never on scheduling. Migrations accumulate into cache-line-padded
// per-worker int64 load deltas that are merged into the canonical
// counts once per round; integer addition is exact and commutative,
// so the merged counts — and hence the next round's loads — are
// byte-identical for any worker count. The serial Reference in this
// package replays the same stream layout with direct count updates
// and is the differential oracle for the parallel engine.
//
// The block size is part of the stream layout: changing Config.Block
// changes which substream serves each task and therefore the
// trajectory (not the stationary behavior). Workers is not — any
// worker count replays the identical trajectory.
//
// # Allocation discipline
//
// After the first round, Round is allocation-free in steady state at
// Workers == 1 (pinned by an AllocsPerRun guard): block substreams,
// delta rows and the fan-out closure are all preallocated. With
// Workers > 1 each round pays only the fan-out's goroutine spawns
// (O(workers) small allocations, amortized over millions of tasks);
// the per-task hot path never allocates. Join churn beyond the
// preallocated capacity (max(Tasks, MaxTasks)) grows the assignment
// array and is the one documented steady-state allocation source.
package swarm

import (
	"fmt"
	"math"

	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Config describes one swarm. The zero value is invalid; Tasks and
// either Machines or T are required.
type Config struct {
	// Tasks is the initial number of tasks m.
	Tasks int
	// Machines is the number of uniform machines n (slope 1) when T is
	// nil. Ignored when T is set.
	Machines int
	// T optionally gives per-machine linear latency slopes t_i > 0
	// (the mechanism's bids); machine speed is 1/t_i and the balanced
	// point is the mechanism optimum x*_i ∝ 1/t_i. Nil means Machines
	// uniform machines with t_i = 1.
	T []float64
	// Seed seeds the root stream. The whole trajectory is a pure
	// function of (Config minus Workers).
	Seed uint64
	// Workers is the fan-out width (<= 0 means GOMAXPROCS). Any value
	// replays the identical trajectory.
	Workers int
	// Block is the tasks-per-block grain of the fan-out and of the
	// substream layout (<= 0 means parallel.DefaultBlock). Part of the
	// stream format: changing it changes the trajectory.
	Block int
	// PlaceSingle starts every task on machine 0 — the adversarial
	// initial assignment convergence is measured from. Default is
	// uniformly random placement.
	PlaceSingle bool
	// Join and Leave are the tasks arriving and departing per round
	// (the online variant). Leaves remove uniformly random live tasks;
	// joins place new tasks on uniformly random machines. Both are
	// applied at the start of a round, leaves first.
	Join, Leave int
	// ChurnFrom and ChurnUntil bound the churn window in rounds
	// (1-based, inclusive). ChurnFrom <= 0 means from the first round;
	// ChurnUntil <= 0 means forever.
	ChurnFrom, ChurnUntil int
	// MaxTasks sizes the assignment capacity (default Tasks). Join
	// churn past the capacity grows it and allocates.
	MaxTasks int
	// Metrics optionally records per-round totals (nil disables; the
	// record path is plain atomic stores either way).
	Metrics *obs.SwarmMetrics
}

// ConfigError reports a Config field that is out of range or not
// finite.
type ConfigError struct {
	// Field names the input, e.g. "Tasks" or "T[3]".
	Field string
	// Value is the rejected value.
	Value float64
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("swarm: invalid %s = %g", e.Field, e.Value)
}

// RoundStats summarizes one completed round.
type RoundStats struct {
	// Round is the 1-based round number.
	Round int
	// Tasks is the live task count after churn.
	Tasks int
	// Joined and Left are the churn applied this round.
	Joined, Left int
	// Migrations is the number of tasks that moved this round.
	Migrations int64
	// MaxLoad and MinLoad are the extreme machine loads ℓ_i = c_i·t_i
	// after the round's migrations.
	MaxLoad, MinLoad float64
	// Imbalance is the relative distance to the balanced point:
	// max_i |ℓ_i − ℓ*| / ℓ* with ℓ* = m/Σ(1/t_j). Zero for an empty
	// swarm.
	Imbalance float64
	// TVOptimum is the total-variation distance between the empirical
	// task shares c_i/m and the mechanism optimum's shares
	// x*_i/R = (1/t_i)/Σ(1/t_j). Zero for an empty swarm.
	TVOptimum float64
}

// state is the SoA core shared by Swarm and Reference: the init-time
// stream derivation and placement live here so both engines replay
// the identical layout, while round execution is implemented
// independently (Reference is the differential oracle for Swarm's
// fan-out and delta merge).
type state struct {
	n      int
	block  int
	t      []float64 // per-machine slope t_i
	inv    []float64 // 1/t_i
	invSum float64   // Σ 1/t_i (compensated)
	load   []float64 // start-of-round loads ℓ_i = c_i·t_i
	counts []int64   // canonical tasks per machine
	assign []int32   // task k -> machine, live prefix [0, m)
	m      int       // live tasks
	round  int       // completed rounds

	root  numeric.Rand // per-round block-substream parent
	churn numeric.Rand // join/leave stream, consumed only by churn

	cfg Config
}

// newState validates cfg and builds the initial assignment. Stream
// derivation order is fixed and part of the format: root.Reset(seed),
// then the churn stream, then the placement stream, then per-round
// block substreams.
func newState(cfg Config) (*state, error) {
	if cfg.Tasks < 0 {
		return nil, &ConfigError{Field: "Tasks", Value: float64(cfg.Tasks)}
	}
	n := cfg.Machines
	if cfg.T != nil {
		n = len(cfg.T)
	}
	if n <= 0 {
		return nil, &ConfigError{Field: "Machines", Value: float64(n)}
	}
	if n > math.MaxInt32 {
		return nil, &ConfigError{Field: "Machines", Value: float64(n)}
	}
	if cfg.Join < 0 {
		return nil, &ConfigError{Field: "Join", Value: float64(cfg.Join)}
	}
	if cfg.Leave < 0 {
		return nil, &ConfigError{Field: "Leave", Value: float64(cfg.Leave)}
	}
	s := &state{n: n, cfg: cfg}
	s.block = cfg.Block
	if s.block <= 0 {
		s.block = parallel.DefaultBlock
	}
	s.t = make([]float64, n)
	s.inv = make([]float64, n)
	var invSum numeric.KahanSum
	for i := 0; i < n; i++ {
		t := 1.0
		if cfg.T != nil {
			t = cfg.T[i]
		}
		if t <= 0 || math.IsNaN(t) || math.IsInf(t, 0) {
			return nil, &ConfigError{Field: fmt.Sprintf("T[%d]", i), Value: t}
		}
		s.t[i] = t
		s.inv[i] = 1 / t
		invSum.Add(1 / t)
	}
	s.invSum = invSum.Value()
	s.load = make([]float64, n)
	s.counts = make([]int64, n)
	capTasks := cfg.Tasks
	if cfg.MaxTasks > capTasks {
		capTasks = cfg.MaxTasks
	}
	s.assign = make([]int32, capTasks)
	s.m = cfg.Tasks

	s.root.Reset(cfg.Seed)
	s.root.SplitInto(&s.churn)
	var place numeric.Rand
	s.root.SplitInto(&place)
	if cfg.PlaceSingle {
		s.counts[0] = int64(s.m)
	} else {
		for k := 0; k < s.m; k++ {
			i := place.Intn(n)
			s.assign[k] = int32(i)
			s.counts[i]++
		}
	}
	return s, nil
}

// applyChurn removes Leave uniformly random live tasks and then adds
// Join tasks on uniformly random machines, when the round is inside
// the churn window. Serial and driven only by the churn stream, so it
// is identical for any worker count.
func (s *state) applyChurn() (joined, left int) {
	c := &s.cfg
	if c.Join == 0 && c.Leave == 0 {
		return 0, 0
	}
	if c.ChurnFrom > 0 && s.round < c.ChurnFrom {
		return 0, 0
	}
	if c.ChurnUntil > 0 && s.round > c.ChurnUntil {
		return 0, 0
	}
	for j := 0; j < c.Leave && s.m > 0; j++ {
		k := s.churn.Intn(s.m)
		s.counts[s.assign[k]]--
		s.m--
		s.assign[k] = s.assign[s.m]
		left++
	}
	for j := 0; j < c.Join; j++ {
		i := s.churn.Intn(s.n)
		if s.m < len(s.assign) {
			s.assign[s.m] = int32(i)
		} else {
			s.assign = append(s.assign, int32(i))
		}
		s.counts[i]++
		s.m++
		joined++
	}
	return joined, left
}

// refreshLoads freezes the start-of-round load snapshot.
func (s *state) refreshLoads() {
	for i := 0; i < s.n; i++ {
		s.load[i] = float64(s.counts[i]) * s.t[i]
	}
}

// stats computes the round summary from the canonical counts. Pure —
// shared by Swarm and Reference.
func (s *state) stats(joined, left int, migrations int64) RoundStats {
	st := RoundStats{
		Round:      s.round,
		Tasks:      s.m,
		Joined:     joined,
		Left:       left,
		Migrations: migrations,
	}
	if s.m == 0 {
		return st
	}
	target := float64(s.m) / s.invSum
	maxL, minL := math.Inf(-1), math.Inf(1)
	var tv numeric.KahanSum
	im := float64(s.m)
	for i := 0; i < s.n; i++ {
		l := float64(s.counts[i]) * s.t[i]
		if l > maxL {
			maxL = l
		}
		if l < minL {
			minL = l
		}
		tv.Add(math.Abs(float64(s.counts[i])/im - s.inv[i]/s.invSum))
	}
	st.MaxLoad, st.MinLoad = maxL, minL
	dev := maxL - target
	if d := target - minL; d > dev {
		dev = d
	}
	st.Imbalance = dev / target
	st.TVOptimum = tv.Value() / 2
	return st
}

// Swarm is the parallel selfish-migration engine. Not safe for
// concurrent use; one Round call at a time.
type Swarm struct {
	state

	workers   int
	stride    int                 // delta-row stride, padded
	deltas    []int64             // workers rows × stride
	moved     []parallel.PadInt64 // per-slot migration counters
	slots     chan int
	blockRand []numeric.Rand
	blockFn   func(lo, hi int) // preallocated fan-out body
}

// New builds a swarm from cfg. Returns a *ConfigError for
// out-of-range or non-finite fields.
func New(cfg Config) (*Swarm, error) {
	st, err := newState(cfg)
	if err != nil {
		return nil, err
	}
	s := &Swarm{state: *st}
	s.workers = parallel.Workers(cfg.Workers)
	// Pad each worker's delta row so no two rows share a cache line:
	// the backing array is only 8-byte aligned, so an 8-element (64 B)
	// guard after the n live slots keeps row w's hot tail off row
	// w+1's head regardless of where the array starts.
	s.stride = (s.n+7)/8*8 + 8
	s.deltas = make([]int64, s.workers*s.stride)
	s.moved = make([]parallel.PadInt64, s.workers)
	s.slots = make(chan int, s.workers)
	for w := 0; w < s.workers; w++ {
		s.slots <- w
	}
	s.blockRand = make([]numeric.Rand, s.blocksFor(cap(s.assign)))
	s.blockFn = func(lo, hi int) {
		slot := <-s.slots
		s.runBlock(slot, lo/s.block, lo, hi)
		s.slots <- slot
	}
	return s, nil
}

// blocksFor returns the block count covering m tasks.
func (s *Swarm) blocksFor(m int) int {
	return (m + s.block - 1) / s.block
}

// Machines returns the machine count n.
func (s *Swarm) Machines() int { return s.n }

// Workers returns the resolved fan-out width.
func (s *Swarm) Workers() int { return s.workers }

// Tasks returns the live task count m.
func (s *Swarm) Tasks() int { return s.m }

// Counts returns the canonical per-machine task counts. The slice is
// owned by the swarm: read-only, valid until the next Round.
func (s *Swarm) Counts() []int64 { return s.counts }

// Assignments returns the live task→machine assignment prefix. Owned
// by the swarm: read-only, valid until the next Round.
func (s *Swarm) Assignments() []int32 { return s.assign[:s.m] }

// Shares fills dst (grown as needed) with the empirical task shares
// c_i/m and returns it; all zeros when the swarm is empty.
func (s *Swarm) Shares(dst []float64) []float64 {
	if cap(dst) < s.n {
		dst = make([]float64, s.n)
	}
	dst = dst[:s.n]
	if s.m == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	im := 1 / float64(s.m)
	for i := 0; i < s.n; i++ {
		dst[i] = float64(s.counts[i]) * im
	}
	return dst
}

// Round applies churn, freezes the load snapshot, derives the per-
// block substreams and runs one migration round, returning its
// summary. Counts after the round are byte-identical for any worker
// count.
func (s *Swarm) Round() RoundStats {
	s.round++
	joined, left := s.applyChurn()
	s.refreshLoads()
	nb := s.blocksFor(s.m)
	if nb > cap(s.blockRand) {
		s.blockRand = make([]numeric.Rand, nb)
	}
	s.blockRand = s.blockRand[:nb]
	// Serial substream derivation in block order: the draws block b
	// will make are fixed here, before any worker runs.
	for b := range s.blockRand {
		s.root.SplitInto(&s.blockRand[b])
	}
	if s.workers == 1 {
		// Inline fan-out: same blocks, same streams, no goroutines —
		// this is the allocation-free steady-state path.
		for b := 0; b < nb; b++ {
			lo := b * s.block
			hi := lo + s.block
			if hi > s.m {
				hi = s.m
			}
			s.runBlock(0, b, lo, hi)
		}
	} else {
		parallel.ForEachBlock(s.m, s.block, s.workers, s.blockFn)
	}
	var migrations int64
	for w := 0; w < s.workers; w++ {
		row := s.deltas[w*s.stride : w*s.stride+s.n]
		for i, d := range row {
			if d != 0 {
				s.counts[i] += d
				row[i] = 0
			}
		}
		migrations += s.moved[w].V
		s.moved[w].V = 0
	}
	st := s.stats(joined, left, migrations)
	s.cfg.Metrics.RoundDone(int64(st.Tasks), st.Migrations, int64(joined), int64(left), st.Imbalance, st.TVOptimum)
	return st
}

// runBlock executes tasks [lo, hi) of block b against the frozen load
// snapshot, accumulating load deltas into worker slot's padded row.
// The per-task cost is one Uint64 draw for the destination plus, when
// the destination is lighter, one Float64 draw for the migration coin.
func (s *Swarm) runBlock(slot, b, lo, hi int) {
	r := &s.blockRand[b]
	row := s.deltas[slot*s.stride : slot*s.stride+s.n]
	load, assign, n := s.load, s.assign, s.n
	var moved int64
	for k := lo; k < hi; k++ {
		src := assign[k]
		dst := int32(r.Intn(n))
		if dst == src {
			continue
		}
		ls, ld := load[src], load[dst]
		if ld >= ls {
			continue
		}
		// Migrate with probability 1 − ld/ls, evaluated as
		// u·ls < ls − ld to trade the division for a multiply. The
		// exact expression is part of the trajectory contract shared
		// with Reference.
		if r.Float64()*ls < ls-ld {
			assign[k] = dst
			row[src]--
			row[dst]++
			moved++
		}
	}
	s.moved[slot].V += moved
}

// RunUntil runs rounds until the imbalance is at most eps or
// maxRounds rounds have completed, returning the round count in this
// call, the last round's stats and whether the target was met.
func (s *Swarm) RunUntil(eps float64, maxRounds int) (rounds int, last RoundStats, converged bool) {
	if math.IsNaN(eps) || eps < 0 {
		eps = 0
	}
	for rounds < maxRounds {
		last = s.Round()
		rounds++
		if last.Imbalance <= eps {
			s.cfg.Metrics.BalancedRun()
			return rounds, last, true
		}
	}
	return rounds, last, false
}

// BoundUniform is the cs/0506098 convergence scale for m tasks on n
// uniform machines: the protocol reaches (roughly) balanced load in
// O(log log m + n²) expected rounds. The returned value uses constant
// 1 on both terms — a reference scale for the benchmark tables, not a
// proven constant.
func BoundUniform(m, n int) float64 {
	if m < 4 {
		m = 4
	}
	return math.Log2(math.Log2(float64(m))) + float64(n)*float64(n)
}
