// Package supervise runs the distributed mechanism round under
// supervision: a deadline per attempt, a typed classification of
// every way a round can fail, retries with exponential backoff and a
// growing exclusion list of misbehaving or unreachable nodes, and
// graceful degradation down to any quorum of at least two reachable
// agents — the minimum the PR allocation needs. Every retry,
// exclusion and degradation decision is reported in a structured,
// deterministic RoundReport.
//
// The policy is fixed: an audit flag excludes a node at once, a node
// missing from two attempts is excluded as unreachable, and the
// backoff starts at 0.05 s and doubles per attempt up to 5 s. Only
// the retry budget and the per-attempt deadline are Options.
//
// The supervisor is what turns the one-shot mechanism of the paper
// into something deployable: Theorem 3.1's truthfulness only binds if
// a round actually completes (bids collected, allocation
// disseminated, execution audited), and over a real network that
// requires exactly this retry-classify-exclude loop.
package supervise

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/distmech"
	"repro/internal/faults"
	"repro/internal/mech"
	"repro/internal/obs"
)

// FailureClass classifies one attempt's outcome.
type FailureClass int

const (
	// ClassOK is a clean, accepted round.
	ClassOK FailureClass = iota
	// ClassConfig is a non-retryable configuration error.
	ClassConfig
	// ClassQuorumLost means fewer than two nodes stayed reachable.
	ClassQuorumLost
	// ClassDeadline means the attempt hit its deadline mid-round.
	ClassDeadline
	// ClassPartialAggregate means the convergecast never completed.
	ClassPartialAggregate
	// ClassPartialDissemination means contributors never received the
	// aggregate back.
	ClassPartialDissemination
	// ClassConservation means the assembled allocation did not
	// conserve the rate.
	ClassConservation
	// ClassAudit means the payment audit flagged misbehaving nodes.
	ClassAudit
	// ClassAuditIncomplete means allocation succeeded but some payment
	// claims never arrived, leaving audit coverage gaps.
	ClassAuditIncomplete
	// ClassUnreachable means healthy-looking nodes were cut off
	// (crashes or lost messages) and should be excluded.
	ClassUnreachable
)

// String names the class.
func (c FailureClass) String() string {
	switch c {
	case ClassOK:
		return "ok"
	case ClassConfig:
		return "config"
	case ClassQuorumLost:
		return "quorum-lost"
	case ClassDeadline:
		return "deadline"
	case ClassPartialAggregate:
		return "partial-aggregate"
	case ClassPartialDissemination:
		return "partial-dissemination"
	case ClassConservation:
		return "conservation"
	case ClassAudit:
		return "audit"
	case ClassAuditIncomplete:
		return "audit-incomplete"
	case ClassUnreachable:
		return "unreachable"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Verdict is the pure classifier's decision about one attempt.
type Verdict struct {
	// Class is the failure class (ClassOK when accepted).
	Class FailureClass
	// Accept means the round result stands.
	Accept bool
	// Retry means another attempt may fix it.
	Retry bool
	// ExcludeAudit lists local node indices caught misbehaving, to be
	// excluded before the next attempt.
	ExcludeAudit []int
	// ExcludeUnreachable lists local node indices cut off by faults,
	// to be excluded before the next attempt.
	ExcludeUnreachable []int
	// Detail is a short human-readable cause.
	Detail string
}

// Classify maps one attempt's (result, error) pair to a verdict. It
// is pure and total: any combination of inputs — including partial or
// corrupted results — yields a well-formed verdict without panicking,
// a property the fuzz target pins down. n is the attempt's node
// count; out-of-range node indices in the result are discarded.
func Classify(res *distmech.Result, err error, n int) Verdict {
	if err != nil {
		switch {
		case errors.Is(err, distmech.ErrQuorumLost):
			return Verdict{Class: ClassQuorumLost, Retry: true, Detail: err.Error()}
		case errors.Is(err, distmech.ErrDeadlineExceeded):
			return Verdict{Class: ClassDeadline, Retry: true, Detail: err.Error()}
		case errors.Is(err, distmech.ErrAggregationIncomplete):
			return Verdict{Class: ClassPartialAggregate, Retry: true, Detail: err.Error()}
		case errors.Is(err, distmech.ErrDisseminationIncomplete):
			return Verdict{Class: ClassPartialDissemination, Retry: true, Detail: err.Error()}
		case errors.Is(err, distmech.ErrConservation):
			return Verdict{Class: ClassConservation, Retry: true, Detail: err.Error()}
		default:
			return Verdict{Class: ClassConfig, Detail: err.Error()}
		}
	}
	if res == nil {
		return Verdict{Class: ClassConfig, Detail: "no result and no error"}
	}
	flagged := sanitizeNodes(res.Flagged, n)
	missing := sanitizeNodes(res.Missing, n)
	switch {
	case len(flagged) > 0:
		return Verdict{
			Class: ClassAudit, Retry: true,
			ExcludeAudit:       flagged,
			ExcludeUnreachable: missing,
			Detail:             fmt.Sprintf("audit flagged %v", flagged),
		}
	case len(missing) > 0:
		return Verdict{
			Class: ClassUnreachable, Retry: true,
			ExcludeUnreachable: missing,
			Detail:             fmt.Sprintf("unreachable %v", missing),
		}
	case res.ClaimsOutstanding > 0:
		return Verdict{
			Class: ClassAuditIncomplete, Retry: true,
			Detail: fmt.Sprintf("%d payment claims never arrived", res.ClaimsOutstanding),
		}
	default:
		return Verdict{Class: ClassOK, Accept: true, Detail: "clean round"}
	}
}

// sanitizeNodes deduplicates, range-checks and sorts node indices.
func sanitizeNodes(nodes []int, n int) []int {
	seen := map[int]bool{}
	var out []int
	for _, v := range nodes {
		if v >= 0 && v < n && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

// The supervision policy.
const (
	// quorum is the minimum serving set: the exclusion optimum
	// R^2/(S - 1/b_i) needs at least one other agent.
	quorum = 2
	// unreachableStrikes is how many attempts a node must be missing
	// from before it is excluded. Message loss is schedule-dependent,
	// so one miss is weak evidence; an audit flag by contrast is
	// definitive and excludes immediately.
	unreachableStrikes = 2
	// The retry backoff starts at backoffBase seconds and grows by
	// backoffFactor per further attempt, capped at backoffMax.
	backoffBase   = 0.05
	backoffFactor = 2
	backoffMax    = 5
)

// backoff returns the delay scheduled after the 0-based attempt (so
// backoff(0) follows the first attempt).
func backoff(attempt int) float64 {
	d := backoffBase
	for i := 0; i < attempt && d < backoffMax; i++ {
		d *= backoffFactor
	}
	return min(d, backoffMax)
}

// Options configures the supervisor.
type Options struct {
	// MaxAttempts bounds the retry loop (default 6).
	MaxAttempts int
	// Deadline is the per-attempt simulated-time budget passed to the
	// round (0 = none).
	Deadline float64
	// Obs receives supervisor metrics and trace events and is threaded
	// into every attempt's round (see package obs). Nil disables all
	// instrumentation.
	Obs *obs.Observer
}

func (o Options) withDefaults() Options {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 6
	}
	return o
}

// Attempt records one supervised attempt.
type Attempt struct {
	// Index is the attempt number, starting at 1.
	Index int
	// Alive is how many nodes participated.
	Alive int
	// Class is the attempt's failure class.
	Class FailureClass
	// Detail is the classifier's cause string.
	Detail string
	// ExcludedAudit and ExcludedUnreachable are the original node ids
	// newly excluded after this attempt.
	ExcludedAudit, ExcludedUnreachable []int
	// Backoff is the delay scheduled before the next attempt (0 when
	// no further attempt follows).
	Backoff float64
	// Messages and Lost are the attempt's transport counters.
	Messages, Lost int
	// Completion is the attempt's simulated completion time.
	Completion float64
}

// Report is the structured outcome of a supervised round.
type Report struct {
	// N is the original population size; Rate the arrival rate.
	N int
	// Rate is the arrival rate the round conserved.
	Rate float64
	// Attempts traces every attempt in order.
	Attempts []Attempt
	// Alloc, Payments and Utilities are indexed by original node id;
	// excluded nodes hold zero. Nil when no attempt was accepted.
	Alloc, Payments, Utilities []float64
	// Final is the accepted round's raw result (survivor-local
	// indexing), nil when no attempt was accepted.
	Final *distmech.Result
	// Serving lists the original ids of the accepted serving set.
	Serving []int
	// ExcludedAudit and ExcludedUnreachable list all exclusions, by
	// reason, in original ids.
	ExcludedAudit, ExcludedUnreachable []int
	// StaticExcluded lists nodes excluded before the first attempt
	// because the fault plan marks them fail-stop or silent: they can
	// never respond, so their subtrees are reparented immediately
	// instead of burning a retry on a timeout.
	StaticExcluded []int
	// Degraded reports whether the accepted round served fewer agents
	// than the original population.
	Degraded bool
	// TotalBackoff is the summed retry backoff.
	TotalBackoff float64
}

// Trace renders the report as a deterministic, line-oriented text
// trace: same seed, same fault plan — byte-identical trace.
func (r *Report) Trace() string {
	var b strings.Builder
	fmt.Fprintf(&b, "supervised round: n=%d rate=%g attempts=%d\n", r.N, r.Rate, len(r.Attempts))
	if len(r.StaticExcluded) > 0 {
		fmt.Fprintf(&b, "statically excluded (fail-stop/silent): %v\n", r.StaticExcluded)
	}
	for _, a := range r.Attempts {
		fmt.Fprintf(&b, "attempt %d: alive=%d class=%s", a.Index, a.Alive, a.Class)
		if a.Class != ClassOK {
			fmt.Fprintf(&b, " detail=%q", a.Detail)
		}
		if len(a.ExcludedAudit) > 0 {
			fmt.Fprintf(&b, " exclude-audit=%v", a.ExcludedAudit)
		}
		if len(a.ExcludedUnreachable) > 0 {
			fmt.Fprintf(&b, " exclude-unreachable=%v", a.ExcludedUnreachable)
		}
		if a.Backoff > 0 {
			fmt.Fprintf(&b, " backoff=%.6gs", a.Backoff)
		}
		if a.Class == ClassOK {
			fmt.Fprintf(&b, " messages=%d lost=%d t=%.6g", a.Messages, a.Lost, a.Completion)
		}
		b.WriteString("\n")
	}
	if r.Final != nil {
		fmt.Fprintf(&b, "accepted: serving %d/%d agents degraded=%v\n",
			len(r.Serving), r.N, r.Degraded)
	} else {
		fmt.Fprintf(&b, "not accepted\n")
	}
	fmt.Fprintf(&b, "excluded misbehaving: %v\n", intsOrNone(r.ExcludedAudit))
	fmt.Fprintf(&b, "excluded unreachable: %v\n", intsOrNone(r.ExcludedUnreachable))
	fmt.Fprintf(&b, "total backoff: %.6gs\n", r.TotalBackoff)
	return b.String()
}

func intsOrNone(xs []int) string {
	if len(xs) == 0 {
		return "none"
	}
	return fmt.Sprintf("%v", xs)
}

// Typed supervisor errors.
var (
	// ErrNoQuorum means the exclusion list grew past the point where
	// a quorum of reachable agents remains.
	ErrNoQuorum = errors.New("supervise: not enough reachable agents for a quorum")
	// ErrExhausted means MaxAttempts rounds all failed.
	ErrExhausted = errors.New("supervise: retry budget exhausted")
	// ErrCoordinatorMisbehaving means the audit flagged node 0, which
	// cannot be excluded because it coordinates the round.
	ErrCoordinatorMisbehaving = errors.New("supervise: the coordinator was flagged by the audit")
)

// QuorumError carries the serving-set arithmetic behind ErrNoQuorum.
type QuorumError struct {
	// Alive is the remaining serving-set size; Quorum the floor.
	Alive, Quorum int
}

// Error implements error.
func (e *QuorumError) Error() string {
	return fmt.Sprintf("supervise: %d reachable agents, quorum needs %d", e.Alive, e.Quorum)
}

// Is makes errors.Is(err, ErrNoQuorum) match.
func (e *QuorumError) Is(target error) bool { return target == ErrNoQuorum }

// ExhaustedError carries the last failure behind ErrExhausted.
type ExhaustedError struct {
	// Attempts is how many rounds were tried.
	Attempts int
	// Last is the final attempt's failure class; Detail its cause.
	Last FailureClass
	// Detail is the final attempt's cause string.
	Detail string
}

// Error implements error.
func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("supervise: %d attempts exhausted, last failure %s (%s)",
		e.Attempts, e.Last, e.Detail)
}

// Is makes errors.Is(err, ErrExhausted) match.
func (e *ExhaustedError) Is(target error) bool { return target == ErrExhausted }

// AbortError wraps a non-retryable failure.
type AbortError struct {
	// Class is the failure class that aborted supervision.
	Class FailureClass
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *AbortError) Error() string {
	return fmt.Sprintf("supervise: aborted (%s): %v", e.Class, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *AbortError) Unwrap() error { return e.Err }

// Run executes a supervised round over cfg's population under
// cfg.Faults, whose node ids are the population's. Each retry re-keys
// the message-level fault schedule (deterministically) and rebuilds
// the spanning tree over the non-excluded survivors, reparenting
// orphaned subtrees to their nearest surviving ancestor.
//
// It returns the report together with nil on acceptance, or with a
// typed error (*QuorumError, *ExhaustedError, *AbortError) naming the
// cause. The report is always non-nil and its Trace is deterministic.
func Run(cfg distmech.Config, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	n := cfg.Tree.N()
	met := opts.Obs.SuperviseMetrics()
	report := &Report{N: n, Rate: cfg.Rate}
	if err := cfg.Validate(); err != nil {
		return report, &AbortError{Class: ClassConfig, Err: err}
	}
	inj := cfg.Faults
	if inj == nil {
		inj = faults.None
	}

	base := cfg
	base.Faults = nil
	base.Deadline = opts.Deadline
	base.Obs = opts.Obs

	// Static pre-exclusion: nodes the fault plan marks fail-stop or
	// silent can never respond. Excluding them up front reparents
	// their (healthy) subtrees to surviving ancestors instead of
	// timing the whole branch out and burning a retry. The
	// coordinator runs the supervisor itself, so a plan marking node
	// 0 fail-stop describes a system that cannot run at all.
	alive := make([]int, 0, n)
	for i := 0; i < n; i++ {
		switch inj.Class(i) {
		case faults.NodeCrashed, faults.NodeSilent:
			if i == 0 {
				return report, &AbortError{Class: ClassConfig, Err: distmech.ErrRootCrashed}
			}
			report.StaticExcluded = append(report.StaticExcluded, i)
			report.ExcludedUnreachable = append(report.ExcludedUnreachable, i)
		default:
			alive = append(alive, i)
		}
	}
	met.Excluded("static", len(report.StaticExcluded))
	if len(report.StaticExcluded) > 0 {
		opts.Obs.Emit(obs.Event{
			Layer: "supervise", Kind: "static-exclude", Node: -1,
			Detail: fmt.Sprintf("%v", report.StaticExcluded),
			Value:  float64(len(report.StaticExcluded)),
		})
	}

	missStrikes := map[int]int{}
	for attempt := 0; attempt < opts.MaxAttempts; attempt++ {
		if len(alive) < quorum {
			return report, &QuorumError{Alive: len(alive), Quorum: quorum}
		}
		sub := base
		sub.Tree = subTopology(cfg.Tree, alive)
		sub.Agents = pickAgents(cfg.Agents, alive)
		// Flapping nodes are resolved against the attempt number: a
		// flapper is stalled for whole attempts and healthy for others,
		// so a retry can land in its good phase instead of burning
		// every attempt on the same bad node.
		sub.Faults = faults.Remap(faults.FlapPhase(faults.Reseed(inj, uint64(attempt)), attempt), alive)

		res, err := distmech.Run(sub)
		v := Classify(res, err, len(alive))
		rec := Attempt{
			Index:  attempt + 1,
			Alive:  len(alive),
			Class:  v.Class,
			Detail: v.Detail,
		}
		if res != nil {
			rec.Messages = res.Messages
			rec.Lost = res.Lost
			rec.Completion = res.CompletionTime
		}
		met.AttemptDone(v.Class.String())
		opts.Obs.Emit(obs.Event{
			Time: rec.Completion, Layer: "supervise", Kind: "attempt",
			Node: -1, Detail: fmt.Sprintf("#%d class=%s alive=%d", rec.Index, v.Class, rec.Alive),
			Value: float64(rec.Index),
		})

		if v.Accept {
			report.Attempts = append(report.Attempts, rec)
			report.Final = res
			report.Serving = append([]int(nil), alive...)
			report.Alloc = make([]float64, n)
			report.Payments = make([]float64, n)
			report.Utilities = make([]float64, n)
			for local, orig := range alive {
				report.Alloc[orig] = res.Alloc[local]
				report.Payments[orig] = res.Payments[local]
				report.Utilities[orig] = res.Utilities[local]
			}
			report.Degraded = len(alive) < n
			met.AcceptedRound(report.Degraded)
			opts.Obs.Emit(obs.Event{
				Time: rec.Completion, Layer: "supervise", Kind: "accepted",
				Node: -1, Detail: fmt.Sprintf("serving %d/%d", len(alive), n),
				Value: float64(len(alive)),
			})
			return report, nil
		}
		if !v.Retry {
			report.Attempts = append(report.Attempts, rec)
			cause := err
			if cause == nil {
				cause = errors.New(v.Detail)
			}
			opts.Obs.Emit(obs.Event{
				Time: rec.Completion, Layer: "supervise", Kind: "aborted",
				Node: -1, Detail: v.Class.String(),
			})
			return report, &AbortError{Class: v.Class, Err: cause}
		}

		// Apply exclusions (translated to original ids). The
		// coordinator cannot be excluded: a flagged coordinator is a
		// non-retryable failure, an unreachable one cannot happen
		// (it starts every round). Audit flags exclude immediately;
		// unreachability is schedule-dependent, so a node is excluded
		// only once it has been missing unreachableStrikes times.
		rec.ExcludedAudit = translate(v.ExcludeAudit, alive)
		unreachable := translate(v.ExcludeUnreachable, alive)
		// The classifier speaks in roster-local indices; the report
		// speaks in original node ids.
		switch v.Class {
		case ClassAudit:
			rec.Detail = fmt.Sprintf("audit flagged %v", rec.ExcludedAudit)
		case ClassUnreachable:
			rec.Detail = fmt.Sprintf("unreachable %v", unreachable)
		}
		for _, orig := range unreachable {
			missStrikes[orig]++
			if missStrikes[orig] >= unreachableStrikes {
				rec.ExcludedUnreachable = append(rec.ExcludedUnreachable, orig)
			}
		}
		if containsZero(rec.ExcludedAudit) {
			report.Attempts = append(report.Attempts, rec)
			opts.Obs.Emit(obs.Event{
				Time: rec.Completion, Layer: "supervise", Kind: "aborted",
				Node: 0, Detail: "coordinator flagged by the audit",
			})
			return report, &AbortError{Class: ClassAudit, Err: ErrCoordinatorMisbehaving}
		}
		met.Excluded("audit", len(rec.ExcludedAudit))
		met.Excluded("unreachable", len(rec.ExcludedUnreachable))
		for _, id := range rec.ExcludedAudit {
			opts.Obs.Emit(obs.Event{
				Time: rec.Completion, Layer: "supervise", Kind: "exclude-audit", Node: id,
			})
		}
		for _, id := range rec.ExcludedUnreachable {
			opts.Obs.Emit(obs.Event{
				Time: rec.Completion, Layer: "supervise", Kind: "exclude-unreachable", Node: id,
			})
		}
		report.ExcludedAudit = append(report.ExcludedAudit, rec.ExcludedAudit...)
		report.ExcludedUnreachable = append(report.ExcludedUnreachable, rec.ExcludedUnreachable...)
		alive = without(alive, append(append([]int(nil), rec.ExcludedAudit...), rec.ExcludedUnreachable...))

		if attempt+1 < opts.MaxAttempts {
			rec.Backoff = backoff(attempt)
			report.TotalBackoff += rec.Backoff
			met.RetryScheduled(rec.Backoff)
			opts.Obs.Emit(obs.Event{
				Time: rec.Completion, Layer: "supervise", Kind: "backoff",
				Node: -1, Value: rec.Backoff,
			})
		}
		report.Attempts = append(report.Attempts, rec)

		if attempt+1 == opts.MaxAttempts {
			return report, &ExhaustedError{
				Attempts: opts.MaxAttempts, Last: v.Class, Detail: v.Detail,
			}
		}
	}
	// Unreachable: the loop always returns.
	return report, &ExhaustedError{Attempts: opts.MaxAttempts, Last: ClassConfig, Detail: "empty retry loop"}
}

// subTopology rebuilds the spanning tree over the alive subset
// (original ids, ascending, alive[0] == 0): each surviving node's
// parent becomes its nearest surviving ancestor.
func subTopology(tree distmech.Topology, alive []int) distmech.Topology {
	pos := make(map[int]int, len(alive))
	for local, orig := range alive {
		pos[orig] = local
	}
	parent := make([]int, len(alive))
	parent[0] = -1
	for local := 1; local < len(alive); local++ {
		p := tree.Parent[alive[local]]
		for {
			if lp, ok := pos[p]; ok {
				parent[local] = lp
				break
			}
			p = tree.Parent[p]
		}
	}
	return distmech.Topology{Parent: parent}
}

func pickAgents(agents []mech.Agent, alive []int) []mech.Agent {
	out := make([]mech.Agent, len(alive))
	for i, orig := range alive {
		out[i] = agents[orig]
	}
	return out
}

func translate(locals, alive []int) []int {
	out := make([]int, 0, len(locals))
	for _, l := range locals {
		if l >= 0 && l < len(alive) {
			out = append(out, alive[l])
		}
	}
	sort.Ints(out)
	return out
}

func containsZero(xs []int) bool {
	for _, v := range xs {
		if v == 0 {
			return true
		}
	}
	return false
}

func without(alive, excluded []int) []int {
	drop := map[int]bool{}
	for _, e := range excluded {
		drop[e] = true
	}
	out := alive[:0]
	for _, v := range alive {
		if !drop[v] {
			out = append(out, v)
		}
	}
	return out
}
