package rounds

import (
	"errors"
	"fmt"

	"repro/internal/alloc"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// Engine runs multi-round simulations with state reused across rounds
// and across Run calls. Two things make it fast:
//
//   - Churn is incremental. Joins, leaves, suspensions and ban
//     expiries are bucketed per round, and each event updates an
//     online alloc.Stream (the running S = Σ 1/t_i) plus sorted
//     active/suspended rosters in O(events) — the per-round optimum
//     L* = R²/S is then an O(1) read instead of an O(n) rebuild, and
//     a dropout round subtracts the dropouts' 1/t in O(#dropouts).
//
//   - Scratch is reused. The protocol engine underneath (and through
//     it the cluster scratch, the pooled DES heap, the RNG streams
//     and the payment engines), the roster slices and the per-round
//     Records are all engine-owned, so a steady-state round does
//     near-zero heap allocation.
//
// The Result returned by Run is owned by the engine and is valid only
// until the next Run; call Result.Clone to keep one. An Engine is not
// safe for concurrent use — RunReplications hands each worker its own.
type Engine struct {
	proto  *protocol.Engine
	stream *alloc.Stream

	// Membership state, indexed by population position.
	status      []uint8 // computerOut, computerActive or computerSuspended
	sid         []int   // stream id while active
	bannedUntil []int
	lastFlag    []int

	// Sorted rosters, updated incrementally.
	activeList    []int
	suspendedList []int

	// Per-round event buckets, indexed by round.
	joinAt   [][]int
	leaveAt  [][]int
	returnAt [][]int

	// Per-round scratch.
	trues      []float64
	strategies []protocol.Strategy
	responsive []bool
	scratchTs  []float64

	res Result
}

const (
	computerOut uint8 = iota
	computerActive
	computerSuspended
)

// NewEngine returns a reusable multi-round engine.
func NewEngine() *Engine {
	return &Engine{proto: protocol.NewEngine()}
}

// Run executes the multi-round system, reusing the engine's state. The
// returned Result is invalidated by the next Run.
func (e *Engine) Run(cfg Config) (*Result, error) {
	n := len(cfg.Computers)
	if n < 2 {
		return nil, errors.New("rounds: need at least two computers")
	}
	if cfg.Rounds <= 0 {
		return nil, errors.New("rounds: non-positive round count")
	}
	if cfg.Rate <= 0 && cfg.RateFor == nil {
		return nil, errors.New("rounds: no arrival rate configured")
	}
	for i, c := range cfg.Computers {
		if c.True <= 0 {
			return nil, fmt.Errorf("rounds: computer %d has invalid true value %g", i, c.True)
		}
		if c.JoinRound < 0 {
			return nil, fmt.Errorf("rounds: computer %d has negative join round", i)
		}
	}
	if err := faults.CheckNodes(cfg.Faults, n); err != nil {
		return nil, err
	}
	pol := cfg.Policy.withDefaults()
	jobs := cfg.JobsPerRound
	if jobs <= 0 {
		jobs = 5000
	}
	met := cfg.Obs.SuperviseMetrics()
	e.reset(cfg)

	for round := 0; round < cfg.Rounds; round++ {
		rate := cfg.Rate
		if cfg.RateFor != nil {
			rate = cfg.RateFor(round)
		}
		if rate <= 0 || e.stream.SetRate(rate) != nil {
			return nil, fmt.Errorf("rounds: round %d has invalid rate %g", round, rate)
		}

		// Apply this round's membership events: departures first (a
		// computer that leaves the round its ban expires is simply
		// gone), then arrivals, then ban expiries.
		for _, i := range e.leaveAt[round] {
			e.depart(i)
		}
		for _, i := range e.joinAt[round] {
			e.activate(i, cfg.Computers[i].True)
		}
		for _, i := range e.returnAt[round] {
			if e.status[i] == computerSuspended {
				e.suspendedList = removeSorted(e.suspendedList, i)
				e.activate(i, cfg.Computers[i].True)
			}
		}

		rec := e.nextRecord(round)
		rec.Active = append(rec.Active, e.activeList...)
		rec.Suspended = append(rec.Suspended, e.suspendedList...)
		e.trues = e.trues[:0]
		e.strategies = e.strategies[:0]
		for _, i := range e.activeList {
			e.trues = append(e.trues, cfg.Computers[i].True)
			e.strategies = append(e.strategies, cfg.Computers[i].Strategy)
		}
		if len(rec.Active) < 2 {
			return nil, fmt.Errorf("rounds: round %d has only %d active computers", round, len(rec.Active))
		}
		met.Excluded("suspended", len(rec.Suspended))

		base := protocol.Config{
			Trues:      e.trues,
			Strategies: e.strategies,
			Rate:       rate,
			Jobs:       jobs,
			Seed:       cfg.Seed + uint64(round)*0x9e3779b9,
			Obs:        cfg.Obs,
		}
		var pres *protocol.Result
		var err error
		for attempt := 0; ; attempt++ {
			pcfg := base
			if attempt > 0 {
				pcfg.Seed = base.Seed + uint64(attempt)*0x85ebca6b
			}
			if cfg.Faults != nil {
				// Re-key the schedule per (round, attempt) — attempt 0
				// of round 0 keeps the plan's own seed — resolve
				// flapping nodes against the round number (a flapper is
				// stalled or healthy for whole rounds, so it trips
				// verification in its bad phase and serves normally in
				// its good one), and remap the population-level node
				// ids onto this round's active set.
				salt := uint64(round)<<8 | uint64(attempt&0xff)
				pcfg.Faults = faults.Remap(faults.FlapPhase(faults.Reseed(cfg.Faults, salt), round), rec.Active)
			}
			// Retries chase a fully responsive round; the final
			// attempt degrades to whoever answers.
			pcfg.AllowDropouts = cfg.MaxRetries > 0 && attempt == cfg.MaxRetries
			pres, err = e.proto.Run(pcfg)
			rec.Attempts = attempt + 1
			if err == nil {
				met.AttemptDone("ok")
				break
			}
			met.AttemptDone("protocol-error")
			if cfg.Obs != nil {
				cfg.Obs.Emit(obs.Event{
					Layer: "rounds", Kind: "attempt-failed", Node: round,
					Detail: fmt.Sprintf("#%d: %v", attempt+1, err),
				})
			}
			if attempt >= cfg.MaxRetries {
				return nil, fmt.Errorf("rounds: round %d: %w", round, err)
			}
			met.RetryScheduled(0)
		}
		rec.LostMessages = pres.Lost
		met.AcceptedRound(len(pres.Active) != len(rec.Active))

		// The optimum for the computers that actually served: R²/S
		// straight off the stream, with dropouts' 1/t subtracted.
		rec.OptLatency = e.stream.OptimalLatency()
		if len(pres.Active) != len(rec.Active) {
			if cap(e.responsive) < len(rec.Active) {
				e.responsive = make([]bool, len(rec.Active))
			}
			e.responsive = e.responsive[:len(rec.Active)]
			for i := range e.responsive {
				e.responsive[i] = false
			}
			for _, j := range pres.Active {
				e.responsive[j] = true
			}
			rest := e.stream.Sum()
			for j := range rec.Active {
				if !e.responsive[j] {
					rec.Dropouts = append(rec.Dropouts, rec.Active[j])
					rest -= 1 / e.trues[j]
				}
			}
			if rest > 0 {
				rec.OptLatency = rate * rate / rest
			} else {
				// Cancellation ate the whole sum (cannot happen with
				// ≥ 2 responsive computers short of pathological
				// trues): recompute from scratch over the responsive
				// subset.
				e.scratchTs = e.scratchTs[:0]
				for _, j := range pres.Active {
					e.scratchTs = append(e.scratchTs, e.trues[j])
				}
				opt, oerr := alloc.OptimalLatencyLinear(e.scratchTs, rate)
				if oerr != nil {
					return nil, oerr
				}
				rec.OptLatency = opt
			}
			met.Excluded("dropout", len(rec.Dropouts))
		}
		rec.Latency = pres.Oracle.RealLatency
		rec.TotalPayment = pres.Outcome.TotalPayment()

		for pos, v := range pres.Verdicts {
			// Flagged covers both deviation and invalid verdicts: a
			// measurement the coordinator cannot verify counts as a
			// strike, not as a pass.
			if !v.Flagged() {
				continue
			}
			// pres positions index the responsive subset; pres.Active
			// maps them to this round's roster, rec.Active to the
			// population.
			idx := rec.Active[pres.Active[pos]]
			rec.Flagged = append(rec.Flagged, idx)
			if pol.ForgiveAfter > 0 && e.lastFlag[idx] >= 0 &&
				round-e.lastFlag[idx] > pol.ForgiveAfter {
				e.res.Strikes[idx] = 0
			}
			e.lastFlag[idx] = round
			e.res.Strikes[idx]++
			if e.res.Strikes[idx] >= pol.Strikes {
				e.suspend(idx, round, pol, cfg.Rounds)
				if cfg.Obs != nil {
					cfg.Obs.Emit(obs.Event{
						Layer: "rounds", Kind: "suspend", Node: idx,
						Detail: fmt.Sprintf("round %d, %d rounds", round, pol.BanRounds),
					})
				}
			}
		}
	}
	return &e.res, nil
}

// reset prepares all engine state for a fresh simulation over cfg.
func (e *Engine) reset(cfg Config) {
	n := len(cfg.Computers)
	if e.stream == nil {
		e.stream, _ = alloc.NewStream(0)
	} else {
		_ = e.stream.Reset(0)
	}
	e.status = resizeUint8(e.status, n)
	e.sid = resizeInts(e.sid, n)
	e.bannedUntil = resizeInts(e.bannedUntil, n)
	e.lastFlag = resizeInts(e.lastFlag, n)
	for i := range e.lastFlag {
		e.lastFlag[i] = -1
	}
	e.activeList = e.activeList[:0]
	e.suspendedList = e.suspendedList[:0]
	e.joinAt = resizeBuckets(e.joinAt, cfg.Rounds)
	e.leaveAt = resizeBuckets(e.leaveAt, cfg.Rounds)
	e.returnAt = resizeBuckets(e.returnAt, cfg.Rounds)
	for i, c := range cfg.Computers {
		neverPresent := c.LeaveRound > 0 && c.LeaveRound <= c.JoinRound
		if neverPresent || c.JoinRound >= cfg.Rounds {
			continue
		}
		e.joinAt[c.JoinRound] = append(e.joinAt[c.JoinRound], i)
		if c.LeaveRound > 0 && c.LeaveRound < cfg.Rounds {
			e.leaveAt[c.LeaveRound] = append(e.leaveAt[c.LeaveRound], i)
		}
	}
	e.res.Records = e.res.Records[:0]
	e.res.Strikes = resizeInts(e.res.Strikes, n)
	e.res.Suspensions = resizeInts(e.res.Suspensions, n)
}

// activate moves computer i into the active set (join or ban expiry).
func (e *Engine) activate(i int, t float64) {
	id, err := e.stream.Add(t)
	if err != nil {
		// Trues are validated up front; this is unreachable.
		panic(err)
	}
	e.sid[i] = id
	e.status[i] = computerActive
	e.activeList = insertSorted(e.activeList, i)
}

// depart removes computer i from whichever set it is in (leave event).
func (e *Engine) depart(i int) {
	switch e.status[i] {
	case computerActive:
		_ = e.stream.Remove(e.sid[i])
		e.activeList = removeSorted(e.activeList, i)
	case computerSuspended:
		e.suspendedList = removeSorted(e.suspendedList, i)
	}
	e.status[i] = computerOut
}

// suspend bans computer idx at the end of round, moving it from the
// active to the suspended set and scheduling its return.
func (e *Engine) suspend(idx, round int, pol Policy, rounds int) {
	e.bannedUntil[idx] = round + 1 + pol.BanRounds
	e.res.Suspensions[idx]++
	e.res.Strikes[idx] = 0
	_ = e.stream.Remove(e.sid[idx])
	e.activeList = removeSorted(e.activeList, idx)
	e.suspendedList = insertSorted(e.suspendedList, idx)
	e.status[idx] = computerSuspended
	if e.bannedUntil[idx] < rounds {
		e.returnAt[e.bannedUntil[idx]] = append(e.returnAt[e.bannedUntil[idx]], idx)
	}
}

// nextRecord appends a cleared Record to the result, reusing the
// slot's nested slice capacity. The roster slices are kept non-nil so
// serialized Results compare byte-identical regardless of slot
// history.
func (e *Engine) nextRecord(round int) *Record {
	if len(e.res.Records) < cap(e.res.Records) {
		e.res.Records = e.res.Records[:len(e.res.Records)+1]
	} else {
		e.res.Records = append(e.res.Records, Record{})
	}
	rec := &e.res.Records[len(e.res.Records)-1]
	*rec = Record{
		Round:     round,
		Active:    emptyInts(rec.Active),
		Suspended: emptyInts(rec.Suspended),
		Flagged:   emptyInts(rec.Flagged),
		Dropouts:  emptyInts(rec.Dropouts),
	}
	return rec
}

// Clone deep-copies a Result so it survives the next Engine.Run.
func (r *Result) Clone() *Result {
	out := &Result{
		Records:     make([]Record, len(r.Records)),
		Strikes:     copyInts(r.Strikes),
		Suspensions: copyInts(r.Suspensions),
	}
	for i, rec := range r.Records {
		rec.Active = copyInts(rec.Active)
		rec.Suspended = copyInts(rec.Suspended)
		rec.Flagged = copyInts(rec.Flagged)
		rec.Dropouts = copyInts(rec.Dropouts)
		out.Records[i] = rec
	}
	return out
}

// insertSorted inserts v into ascending-sorted xs (churn lists are
// small and events rare; a linear shift beats the constant factors of
// anything fancier).
func insertSorted(xs []int, v int) []int {
	xs = append(xs, v)
	i := len(xs) - 1
	for i > 0 && xs[i-1] > v {
		xs[i] = xs[i-1]
		i--
	}
	xs[i] = v
	return xs
}

// removeSorted removes v from ascending-sorted xs, preserving order.
func removeSorted(xs []int, v int) []int {
	for i, x := range xs {
		if x == v {
			copy(xs[i:], xs[i+1:])
			return xs[:len(xs)-1]
		}
	}
	return xs
}

// emptyInts returns s truncated to length 0, allocating a non-nil
// empty slice the first time.
func emptyInts(s []int) []int {
	if s == nil {
		return []int{}
	}
	return s[:0]
}

// copyInts deep-copies s, preserving nil-ness and non-nil emptiness.
func copyInts(s []int) []int {
	if s == nil {
		return nil
	}
	out := make([]int, len(s))
	copy(out, s)
	return out
}

// resizeInts returns s with length n and all elements zero.
func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// resizeUint8 returns s with length n and all elements zero.
func resizeUint8(s []uint8, n int) []uint8 {
	if cap(s) < n {
		return make([]uint8, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// resizeBuckets returns s with length n and every bucket empty,
// keeping the buckets' capacity.
func resizeBuckets(s [][]int, n int) [][]int {
	if cap(s) < n {
		grown := make([][]int, n)
		copy(grown, s[:cap(s)])
		s = grown
	}
	s = s[:n]
	for i := range s {
		if s[i] != nil {
			s[i] = s[i][:0]
		}
	}
	return s
}
