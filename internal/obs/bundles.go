package obs

import "math"

// This file defines the per-layer instrumentation bundles: one struct
// of metrics per instrumented subsystem, registered under stable
// Prometheus-style names, with nil-safe recording methods so a layer
// holding a nil bundle pays only a branch per record call.

// RoundMetrics instruments round execution — the distmech tree round
// and the centralized protocol round share this vocabulary (messages,
// timeouts, subtree cuts, audit verdicts, outcomes).
type RoundMetrics struct {
	// MessagesSent/Lost/Duplicated mirror the transport counters.
	MessagesSent, MessagesLost, MessagesDuplicated *Counter
	// Timeouts counts parent timeouts that fired and cut children off.
	Timeouts *Counter
	// SubtreesCut counts subtrees severed by timeouts or crashes.
	SubtreesCut *Counter
	// AuditFlags counts nodes flagged by the payment audit or the
	// verification step.
	AuditFlags *Counter
	// InvalidVerdicts counts verification verdicts rejected as invalid
	// (non-finite estimate or declaration).
	InvalidVerdicts *Counter
	// ClaimsOutstanding counts payment claims that never arrived.
	ClaimsOutstanding *Counter
	// Rounds counts finished rounds by outcome (ok, quorum-lost, ...).
	Rounds *CounterVec
	// Completion observes round completion times in simulated seconds.
	Completion *Histogram
}

// NewRoundMetrics registers the round bundle on r (nil r — or nil
// receiver use later — disables it).
func NewRoundMetrics(r *Registry) *RoundMetrics {
	if r == nil {
		return nil
	}
	return &RoundMetrics{
		MessagesSent:       r.Counter("lb_round_messages_sent_total", "logical messages sent during rounds"),
		MessagesLost:       r.Counter("lb_round_messages_lost_total", "messages dropped by the fault layer"),
		MessagesDuplicated: r.Counter("lb_round_messages_duplicated_total", "messages delivered twice by the fault layer"),
		Timeouts:           r.Counter("lb_round_timeouts_total", "parent timeouts fired waiting for child aggregates"),
		SubtreesCut:        r.Counter("lb_round_subtrees_cut_total", "subtrees severed by timeouts or crashes"),
		AuditFlags:         r.Counter("lb_round_audit_flags_total", "nodes flagged by the payment audit or verification"),
		InvalidVerdicts:    r.Counter("lb_round_invalid_verdicts_total", "verification verdicts rejected as invalid"),
		ClaimsOutstanding:  r.Counter("lb_round_claims_outstanding_total", "payment claims that never arrived"),
		Rounds:             r.CounterVec("lb_rounds_total", "finished rounds by outcome", "outcome"),
		Completion:         r.Histogram("lb_round_completion_seconds", "round completion time in simulated seconds", nil),
	}
}

// AddMessages records one round's transport totals.
func (m *RoundMetrics) AddMessages(sent, lost, duplicated int) {
	if m == nil {
		return
	}
	m.MessagesSent.Add(int64(sent))
	m.MessagesLost.Add(int64(lost))
	m.MessagesDuplicated.Add(int64(duplicated))
}

// TimeoutFired records one parent timeout expiry.
func (m *RoundMetrics) TimeoutFired() {
	if m == nil {
		return
	}
	m.Timeouts.Inc()
}

// SubtreeCut records n subtrees severed from the round.
func (m *RoundMetrics) SubtreeCut(n int) {
	if m == nil {
		return
	}
	m.SubtreesCut.Add(int64(n))
}

// AuditFlagged records n nodes flagged by the audit.
func (m *RoundMetrics) AuditFlagged(n int) {
	if m == nil {
		return
	}
	m.AuditFlags.Add(int64(n))
}

// VerdictInvalid records one invalid verification verdict.
func (m *RoundMetrics) VerdictInvalid() {
	if m == nil {
		return
	}
	m.InvalidVerdicts.Inc()
}

// ClaimsPending records n payment claims the audit never received.
func (m *RoundMetrics) ClaimsPending(n int) {
	if m == nil {
		return
	}
	m.ClaimsOutstanding.Add(int64(n))
}

// RoundDone records a finished round: its outcome label and, when
// completion >= 0, its simulated completion time.
func (m *RoundMetrics) RoundDone(outcome string, completion float64) {
	if m == nil {
		return
	}
	m.Rounds.With(outcome).Inc()
	if completion >= 0 {
		m.Completion.Observe(completion)
	}
}

// SuperviseMetrics instruments the supervisor's retry-classify-
// exclude loop.
type SuperviseMetrics struct {
	// Attempts counts round attempts; Retries those that scheduled a
	// further attempt.
	Attempts, Retries *Counter
	// Failures counts non-accepted attempts by failure class.
	Failures *CounterVec
	// Exclusions counts excluded nodes by reason (audit, unreachable,
	// static, suspended, dropout).
	Exclusions *CounterVec
	// Backoff observes individual retry delays; BackoffTotal sums them.
	Backoff      *Histogram
	BackoffTotal *Gauge
	// Accepted and Degraded count supervised rounds that completed,
	// and the subset that served fewer agents than the population.
	Accepted, Degraded *Counter
}

// NewSuperviseMetrics registers the supervisor bundle on r.
func NewSuperviseMetrics(r *Registry) *SuperviseMetrics {
	if r == nil {
		return nil
	}
	return &SuperviseMetrics{
		Attempts:     r.Counter("lb_supervise_attempts_total", "supervised round attempts"),
		Retries:      r.Counter("lb_supervise_retries_total", "attempts that scheduled a retry"),
		Failures:     r.CounterVec("lb_supervise_failures_total", "failed attempts by class", "class"),
		Exclusions:   r.CounterVec("lb_supervise_exclusions_total", "excluded nodes by reason", "reason"),
		Backoff:      r.Histogram("lb_supervise_backoff_seconds", "retry backoff delays", nil),
		BackoffTotal: r.Gauge("lb_supervise_backoff_seconds_total", "summed retry backoff"),
		Accepted:     r.Counter("lb_supervise_accepted_total", "supervised rounds accepted"),
		Degraded:     r.Counter("lb_supervise_degraded_total", "accepted rounds serving fewer agents than the population"),
	}
}

// AttemptDone records one attempt and its failure class ("ok" for an
// accepted attempt; anything else also counts into Failures).
func (m *SuperviseMetrics) AttemptDone(class string) {
	if m == nil {
		return
	}
	m.Attempts.Inc()
	if class != "ok" {
		m.Failures.With(class).Inc()
	}
}

// RetryScheduled records a scheduled retry and its backoff delay.
func (m *SuperviseMetrics) RetryScheduled(delay float64) {
	if m == nil {
		return
	}
	m.Retries.Inc()
	if delay > 0 {
		m.Backoff.Observe(delay)
		m.BackoffTotal.Add(delay)
	}
}

// Excluded records n nodes excluded for the given reason.
func (m *SuperviseMetrics) Excluded(reason string, n int) {
	if m == nil || n <= 0 {
		return
	}
	m.Exclusions.With(reason).Add(int64(n))
}

// AcceptedRound records an accepted supervised round.
func (m *SuperviseMetrics) AcceptedRound(degraded bool) {
	if m == nil {
		return
	}
	m.Accepted.Inc()
	if degraded {
		m.Degraded.Inc()
	}
}

// FaultMetrics instruments the fault-injection layer: every injected
// fault, by kind, wherever a transport consults an injector.
type FaultMetrics struct {
	// Injections counts injected faults by kind (drop, duplicate,
	// delay, stall).
	Injections *CounterVec
}

// NewFaultMetrics registers the fault bundle on r.
func NewFaultMetrics(r *Registry) *FaultMetrics {
	if r == nil {
		return nil
	}
	return &FaultMetrics{
		Injections: r.CounterVec("lb_fault_injections_total", "injected faults by kind", "kind"),
	}
}

// Injected records one injected fault of the given kind.
func (m *FaultMetrics) Injected(kind string) {
	if m == nil {
		return
	}
	m.Injections.With(kind).Inc()
}

// RegistryMetrics instruments the sharded bid registry: mutation
// traffic, epoch sealing and the latency of both sides of the
// snapshot protocol. Every record method is a plain atomic add, so the
// registry's lock-free read path and O(1) mutation path stay
// allocation-free with metrics on or off.
type RegistryMetrics struct {
	// Adds, Removes, Updates count applied mutations by kind.
	Adds, Removes, Updates *Counter
	// Coalesced counts rebids that overwrote a bid no epoch had sealed
	// yet — traffic the epoch protocol absorbed without any reader
	// ever observing the intermediate value.
	Coalesced *Counter
	// Batches counts ApplyBatch calls (the grouped-mutation entry
	// point); the ops inside a batch land in Adds/Updates/Removes.
	Batches *Counter
	// Epochs counts sealed epochs.
	Epochs *Counter
	// Live gauges the live agent count as of the last seal.
	Live *Gauge
	// SealSeconds observes wall-clock seal latencies; SealHoldSeconds
	// the part of each seal that holds every shard lock, the window in
	// which all writers wait.
	SealSeconds, SealHoldSeconds *Histogram
}

// NewRegistryMetrics registers the bid-registry bundle on r.
func NewRegistryMetrics(r *Registry) *RegistryMetrics {
	if r == nil {
		return nil
	}
	return &RegistryMetrics{
		Adds:            r.Counter("lb_registry_adds_total", "agents added to the bid registry"),
		Removes:         r.Counter("lb_registry_removes_total", "agents removed from the bid registry"),
		Updates:         r.Counter("lb_registry_updates_total", "bid updates applied"),
		Coalesced:       r.Counter("lb_registry_coalesced_rebids_total", "rebids overwriting a bid no epoch had sealed"),
		Batches:         r.Counter("lb_registry_batches_total", "grouped mutation batches applied"),
		Epochs:          r.Counter("lb_registry_epochs_sealed_total", "epochs sealed"),
		Live:            r.Gauge("lb_registry_live_agents", "live agents as of the last sealed epoch"),
		SealSeconds:     r.Histogram("lb_registry_seal_seconds", "epoch seal wall-clock latency", nil),
		SealHoldSeconds: r.Histogram("lb_registry_seal_hold_seconds", "time each epoch seal held every shard lock", nil),
	}
}

// Mutated records one applied mutation; coalesced marks an update
// that overwrote a not-yet-sealed bid.
func (m *RegistryMetrics) Mutated(kind string, coalesced bool) {
	if m == nil {
		return
	}
	switch kind {
	case "add":
		m.Adds.Inc()
	case "remove":
		m.Removes.Inc()
	case "update":
		m.Updates.Inc()
	}
	if coalesced {
		m.Coalesced.Inc()
	}
}

// AppliedBatch records one grouped mutation batch: per-kind applied
// counts and the coalesced-rebid count, in one call per batch instead
// of one per op.
func (m *RegistryMetrics) AppliedBatch(adds, updates, removes, coalesced int64) {
	if m == nil {
		return
	}
	m.Batches.Inc()
	m.Adds.Add(adds)
	m.Updates.Add(updates)
	m.Removes.Add(removes)
	m.Coalesced.Add(coalesced)
}

// Sealed records one sealed epoch over n live agents, its wall-clock
// latency and the time it held every shard lock (negative durations
// are not observed).
func (m *RegistryMetrics) Sealed(n int, seconds, hold float64) {
	if m == nil {
		return
	}
	m.Epochs.Inc()
	m.Live.Set(float64(n))
	if seconds >= 0 {
		m.SealSeconds.Observe(seconds)
	}
	if hold >= 0 {
		m.SealHoldSeconds.Observe(hold)
	}
}

// HealthMetrics instruments the health controller's serving control
// loop: per-state population gauges, state-transition counters by
// reason, verify-verdict counters and z-score histograms, and the
// corrected-epoch seal stream.
type HealthMetrics struct {
	// Healthy..Probing gauge the tracked population by state as of the
	// last control tick.
	Healthy, Suspect, Degraded, Ejected, Probing *Gauge
	// Capacity gauges the aggregate effective capacity fraction: the
	// weight-discounted live share of the tracked population's full
	// capacity (1 when everyone is healthy at full weight).
	Capacity *Gauge
	// Transitions counts state transitions by reason (verify-fail,
	// max-fails, two-strike, recovered, fail-timeout, probe-fail,
	// probe-timeout, reinstated).
	Transitions *CounterVec
	// Verdicts counts per-observation verify outcomes (pass, dead-band,
	// fail, invalid, silent).
	Verdicts *CounterVec
	// ZScores observes every finite verification z-score, so the
	// distance between the trip and recover thresholds is visible in
	// the exported distribution.
	ZScores *Histogram
	// CorrectedEpochs counts health-corrected epochs sealed;
	// Ejections and Reinstatements count the loop's terminal actions.
	CorrectedEpochs, Ejections, Reinstatements *Counter
}

// zScoreBuckets spans the hysteresis band: recover thresholds sit
// around 1, trip thresholds around 3-4, runaway deviations beyond.
var zScoreBuckets = []float64{-4, -3, -2, -1, 0, 0.5, 1, 2, 3, 4, 6, 8, 12, 20}

// NewHealthMetrics registers the health-controller bundle on r.
func NewHealthMetrics(r *Registry) *HealthMetrics {
	if r == nil {
		return nil
	}
	return &HealthMetrics{
		Healthy:         r.Gauge("lb_health_state_healthy", "tracked computers in state healthy"),
		Suspect:         r.Gauge("lb_health_state_suspect", "tracked computers in state suspect"),
		Degraded:        r.Gauge("lb_health_state_degraded", "tracked computers in state degraded"),
		Ejected:         r.Gauge("lb_health_state_ejected", "tracked computers in state ejected"),
		Probing:         r.Gauge("lb_health_state_probing", "tracked computers in state probing"),
		Capacity:        r.Gauge("lb_health_capacity_fraction", "weight-discounted live capacity fraction"),
		Transitions:     r.CounterVec("lb_health_transitions_total", "state transitions by reason", "reason"),
		Verdicts:        r.CounterVec("lb_health_verdicts_total", "verification verdicts by outcome", "verdict"),
		ZScores:         r.Histogram("lb_health_zscore", "verification z-scores", zScoreBuckets),
		CorrectedEpochs: r.Counter("lb_health_corrected_epochs_total", "health-corrected registry epochs sealed"),
		Ejections:       r.Counter("lb_health_ejections_total", "computers ejected from serving"),
		Reinstatements:  r.Counter("lb_health_reinstatements_total", "computers reinstated via slow-start"),
	}
}

// States records the per-state population and the aggregate effective
// capacity fraction after one control tick.
func (m *HealthMetrics) States(healthy, suspect, degraded, ejected, probing int, capacity float64) {
	if m == nil {
		return
	}
	m.Healthy.Set(float64(healthy))
	m.Suspect.Set(float64(suspect))
	m.Degraded.Set(float64(degraded))
	m.Ejected.Set(float64(ejected))
	m.Probing.Set(float64(probing))
	m.Capacity.Set(capacity)
}

// Transitioned records one state transition and its terminal action.
func (m *HealthMetrics) Transitioned(reason string, ejected, reinstated bool) {
	if m == nil {
		return
	}
	m.Transitions.With(reason).Inc()
	if ejected {
		m.Ejections.Inc()
	}
	if reinstated {
		m.Reinstatements.Inc()
	}
}

// VerdictObserved records one per-observation verify outcome and, for
// finite z, the z-score itself.
func (m *HealthMetrics) VerdictObserved(verdict string, z float64) {
	if m == nil {
		return
	}
	m.Verdicts.With(verdict).Inc()
	if !math.IsNaN(z) && !math.IsInf(z, 0) {
		m.ZScores.Observe(z)
	}
}

// CorrectedSealed records one health-corrected epoch seal.
func (m *HealthMetrics) CorrectedSealed() {
	if m == nil {
		return
	}
	m.CorrectedEpochs.Inc()
}

// DispatchMetrics instruments the per-job dispatcher layer: routed
// jobs and epoch rebuilds by policy, rebuild failures, and the
// herding indicator of the last accounted run. Load generators record
// jobs in batches (one atomic add per worker block), keeping the
// sub-20ns Pick hot path entirely metric-free.
type DispatchMetrics struct {
	// Jobs counts jobs routed, by policy.
	Jobs *CounterVec
	// Rebuilds counts successful epoch rebuilds, by policy.
	Rebuilds *CounterVec
	// RebuildErrors counts rebuilds rejected (empty epoch, invalid
	// weights) — the dispatcher kept serving its previous epoch.
	RebuildErrors *Counter
	// Epoch gauges the sealed epoch the alias dispatcher last rebuilt
	// onto.
	Epoch *Gauge
	// MaxShare gauges the largest per-instance job share of the last
	// accounted run (1/n is level, 1.0 is herding collapse).
	MaxShare *Gauge
	// Unstable gauges how many instances the last accounted run drove
	// past capacity.
	Unstable *Gauge
}

// NewDispatchMetrics registers the dispatcher bundle on r.
func NewDispatchMetrics(r *Registry) *DispatchMetrics {
	if r == nil {
		return nil
	}
	return &DispatchMetrics{
		Jobs:          r.CounterVec("lb_dispatch_jobs_total", "jobs routed by policy", "policy"),
		Rebuilds:      r.CounterVec("lb_dispatch_rebuilds_total", "dispatcher epoch rebuilds by policy", "policy"),
		RebuildErrors: r.Counter("lb_dispatch_rebuild_errors_total", "dispatcher rebuilds rejected"),
		Epoch:         r.Gauge("lb_dispatch_epoch", "sealed epoch the dispatcher last rebuilt onto"),
		MaxShare:      r.Gauge("lb_dispatch_max_share", "largest per-instance job share of the last accounted run"),
		Unstable:      r.Gauge("lb_dispatch_unstable_instances", "instances past capacity in the last accounted run"),
	}
}

// Dispatched records n jobs routed by the named policy.
func (m *DispatchMetrics) Dispatched(policy string, n int64) {
	if m == nil {
		return
	}
	m.Jobs.With(policy).Add(n)
}

// Rebuilt records one epoch rebuild outcome for the named policy.
func (m *DispatchMetrics) Rebuilt(policy string, epoch uint64, err error) {
	if m == nil {
		return
	}
	if err != nil {
		m.RebuildErrors.Inc()
		return
	}
	m.Rebuilds.With(policy).Inc()
	m.Epoch.Set(float64(epoch))
}

// Accounted records the herding indicators of one accounted run.
func (m *DispatchMetrics) Accounted(maxShare float64, unstable int) {
	if m == nil {
		return
	}
	m.MaxShare.Set(maxShare)
	m.Unstable.Set(float64(unstable))
}

// WALMetrics instruments the write-ahead log: append and group-commit
// traffic, fsync policy behavior, snapshot compaction and crash
// recovery. Append-path records are plain atomic adds and appends are
// timed on a sample (every 1024th), so the WAL's zero-allocation
// append guarantee holds with metrics on or off.
type WALMetrics struct {
	// Appends counts journaled mutations, rate changes and seals (a
	// run record counts once per mutation in it); AppendedBytes the
	// bytes they contributed to the log, framing included.
	Appends, AppendedBytes *Counter
	// Batches counts group-commit flushes (buffer writes to the
	// segment file); Fsyncs the flushes that were made durable;
	// FlushedBytes the bytes handed to the kernel.
	Batches, Fsyncs, FlushedBytes *Counter
	// Segments counts log segment files created; Compacted counts
	// segment files deleted by snapshot compaction.
	Segments, Compacted *Counter
	// Snapshots counts snapshot sidecar files made durable, full and
	// delta alike; DeltaSnapshots the deltas among them; SnapshotBytes
	// their bytes; SnapshotErrors the sidecar writes and compactions
	// that failed (journaling goes on, and the next sidecar is full);
	// SnapshotsSkipped the captures dropped because the compactor was
	// still writing the previous one.
	Snapshots, DeltaSnapshots, SnapshotBytes, SnapshotErrors, SnapshotsSkipped *Counter
	// Recoveries counts crash recoveries run; ReplayedRecords and
	// ReplayedBytes size the log tails they replayed.
	Recoveries, ReplayedRecords, ReplayedBytes *Counter
	// AppendSeconds observes sampled per-append latencies (encode
	// plus any flush the append triggered; a batched append observes
	// its duration divided by its mutation count), one sample per 1024
	// mutations; CommitSeconds observes flush+fsync latencies.
	AppendSeconds, CommitSeconds *Histogram
}

// walLatencyBuckets resolve the sub-microsecond encode path and the
// millisecond fsync path in one layout.
var walLatencyBuckets = []float64{
	1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 5e-2, 0.1,
}

// NewWALMetrics registers the write-ahead-log bundle on r.
func NewWALMetrics(r *Registry) *WALMetrics {
	if r == nil {
		return nil
	}
	return &WALMetrics{
		Appends:          r.Counter("lb_wal_appends_total", "mutations, rate changes and seals appended to the write-ahead log"),
		AppendedBytes:    r.Counter("lb_wal_appended_bytes_total", "log bytes appended, framing included"),
		Batches:          r.Counter("lb_wal_batches_total", "group-commit batches flushed to the segment file"),
		Fsyncs:           r.Counter("lb_wal_fsyncs_total", "segment fsyncs issued"),
		FlushedBytes:     r.Counter("lb_wal_flushed_bytes_total", "bytes written to segment files"),
		Segments:         r.Counter("lb_wal_segments_created_total", "log segment files created"),
		Compacted:        r.Counter("lb_wal_segments_compacted_total", "log segment files deleted by snapshot compaction"),
		Snapshots:        r.Counter("lb_wal_snapshots_total", "snapshot sidecar files made durable"),
		DeltaSnapshots:   r.Counter("lb_wal_delta_snapshots_total", "delta snapshot sidecar files made durable"),
		SnapshotBytes:    r.Counter("lb_wal_snapshot_bytes_total", "snapshot sidecar bytes made durable"),
		SnapshotErrors:   r.Counter("lb_wal_snapshot_errors_total", "snapshot sidecar writes and compactions that failed"),
		SnapshotsSkipped: r.Counter("lb_wal_snapshots_skipped_total", "snapshot captures dropped while the compactor wrote the previous one"),
		Recoveries:       r.Counter("lb_wal_recoveries_total", "crash recoveries run"),
		ReplayedRecords:  r.Counter("lb_wal_replayed_records_total", "log records replayed during recovery"),
		ReplayedBytes:    r.Counter("lb_wal_replayed_bytes_total", "log bytes replayed during recovery"),
		AppendSeconds:    r.Histogram("lb_wal_append_seconds", "sampled append latency", walLatencyBuckets),
		CommitSeconds:    r.Histogram("lb_wal_commit_seconds", "flush+fsync latency", walLatencyBuckets),
	}
}

// AppendedBatch records appends journaled mutations, rate changes or
// seals totalling bytes log bytes, with one add per counter.
func (m *WALMetrics) AppendedBatch(appends, bytes int) {
	if m == nil {
		return
	}
	m.Appends.Add(int64(appends))
	m.AppendedBytes.Add(int64(bytes))
}

// AppendSampled records one sampled append latency.
func (m *WALMetrics) AppendSampled(seconds float64) {
	if m == nil {
		return
	}
	m.AppendSeconds.Observe(seconds)
}

// Flushed records one group-commit batch of n bytes and whether it was
// fsynced; seconds is the flush(+fsync) latency (negative = untimed).
func (m *WALMetrics) Flushed(n int, synced bool, seconds float64) {
	if m == nil {
		return
	}
	m.Batches.Inc()
	m.FlushedBytes.Add(int64(n))
	if synced {
		m.Fsyncs.Inc()
	}
	if seconds >= 0 {
		m.CommitSeconds.Observe(seconds)
	}
}

// SegmentCreated records one new log segment file.
func (m *WALMetrics) SegmentCreated() {
	if m == nil {
		return
	}
	m.Segments.Inc()
}

// CompactedSegments records one durable snapshot sidecar of bytes
// bytes, a delta when delta is set, and the n whole segment files its
// compaction retired.
func (m *WALMetrics) CompactedSegments(n int, bytes int64, delta bool) {
	if m == nil {
		return
	}
	m.Snapshots.Inc()
	m.SnapshotBytes.Add(bytes)
	if delta {
		m.DeltaSnapshots.Inc()
	}
	m.Compacted.Add(int64(n))
}

// SnapshotSkipped records one snapshot capture dropped because the
// compactor was still writing the previous one.
func (m *WALMetrics) SnapshotSkipped() {
	if m == nil {
		return
	}
	m.SnapshotsSkipped.Inc()
}

// Recovered records one crash recovery that replayed records totalling
// bytes from the log tail.
func (m *WALMetrics) Recovered(records int, bytes int64) {
	if m == nil {
		return
	}
	m.Recoveries.Inc()
	m.ReplayedRecords.Add(int64(records))
	m.ReplayedBytes.Add(bytes)
}

// SwarmMetrics instruments the selfish-rebalancing swarm: per-round
// task, migration and churn totals plus the two convergence gauges
// (relative imbalance and total-variation distance to the mechanism
// optimum x*). Every record method is a plain atomic store or add, so
// the swarm's allocation-free steady-state round holds with metrics
// on or off; the per-task migration hot path is entirely metric-free
// (one RoundDone call per round, not per task).
type SwarmMetrics struct {
	// Rounds counts completed migration rounds; Migrations the tasks
	// that moved; Joined and Left the online churn applied.
	Rounds, Migrations, Joined, Left *Counter
	// Balanced counts RunUntil convergences to the ε target.
	Balanced *Counter
	// Tasks gauges the live task count after the last round.
	Tasks *Gauge
	// Imbalance gauges max_i |ℓ_i − ℓ*|/ℓ* after the last round;
	// TVOptimum gauges the total-variation distance between the
	// empirical task shares and the mechanism optimum's shares.
	Imbalance, TVOptimum *Gauge
	// RoundSeconds observes wall-clock round latencies when a driver
	// times them (the engine itself never reads the clock).
	RoundSeconds *Histogram
}

// NewSwarmMetrics registers the swarm bundle on r.
func NewSwarmMetrics(r *Registry) *SwarmMetrics {
	if r == nil {
		return nil
	}
	return &SwarmMetrics{
		Rounds:       r.Counter("lb_swarm_rounds_total", "selfish migration rounds completed"),
		Migrations:   r.Counter("lb_swarm_migrations_total", "tasks that migrated between machines"),
		Joined:       r.Counter("lb_swarm_tasks_joined_total", "tasks joined by online churn"),
		Left:         r.Counter("lb_swarm_tasks_left_total", "tasks removed by online churn"),
		Balanced:     r.Counter("lb_swarm_balanced_total", "runs converged to the ε-balance target"),
		Tasks:        r.Gauge("lb_swarm_tasks", "live tasks after the last round"),
		Imbalance:    r.Gauge("lb_swarm_imbalance", "relative load imbalance after the last round"),
		TVOptimum:    r.Gauge("lb_swarm_tv_to_optimum", "total-variation distance to the mechanism optimum"),
		RoundSeconds: r.Histogram("lb_swarm_round_seconds", "wall-clock migration round latency", nil),
	}
}

// RoundDone records one completed round's totals.
func (m *SwarmMetrics) RoundDone(tasks, migrations, joined, left int64, imbalance, tv float64) {
	if m == nil {
		return
	}
	m.Rounds.Inc()
	m.Migrations.Add(migrations)
	if joined > 0 {
		m.Joined.Add(joined)
	}
	if left > 0 {
		m.Left.Add(left)
	}
	m.Tasks.Set(float64(tasks))
	m.Imbalance.Set(imbalance)
	m.TVOptimum.Set(tv)
}

// BalancedRun records one convergence to the ε-balance target.
func (m *SwarmMetrics) BalancedRun() {
	if m == nil {
		return
	}
	m.Balanced.Inc()
}

// RoundTimed records one wall-clock round latency.
func (m *SwarmMetrics) RoundTimed(seconds float64) {
	if m == nil {
		return
	}
	m.RoundSeconds.Observe(seconds)
}

// ServerMetrics instruments the networked serving front end
// (internal/server): connection lifecycle, request traffic by op,
// admission batch sizes, per-wakeup inflight depth and backpressure.
// The hot admission path reports once per batch, not once per op, and
// per-op counters are resolved at construction so recording is a plain
// atomic add.
type ServerMetrics struct {
	// Conns gauges currently open connections; ConnsTotal counts every
	// connection ever accepted.
	Conns      *Gauge
	ConnsTotal *Counter
	// Ops counts served requests by op name (add, rebid, leave, rate,
	// seal, epoch, load, payment, ping, subscribe, ack_runs) plus
	// pushed seal-notify messages under "notify". A request answered
	// inside an ack counts under its own op.
	Ops *CounterVec
	// BatchSize observes admission batch sizes (bid ops per
	// registry.ApplyBatch call).
	BatchSize *Histogram
	// Inflight gauges the most recent wakeup's decoded request count —
	// the depth the pipelining actually reached.
	Inflight *Gauge
	// Overloads counts requests rejected with StatusOverloaded.
	Overloads *Counter
	// ProtocolErrors counts connections dropped for malformed frames.
	ProtocolErrors *Counter
	// AckRuns counts ack messages sent, each standing for a run of OK
	// bid-op responses; Acked counts the requests they answered.
	AckRuns, Acked *Counter

	ops [13]*Counter // indexed by wire op byte; resolved in NewServerMetrics
}

// serverOpNames maps wire op bytes (1..12) to their label values; the
// names are part of the metric schema, not the wire format.
var serverOpNames = [13]string{
	"", "add", "rebid", "leave", "rate", "seal", "epoch", "load",
	"payment", "ping", "subscribe", "notify", "ack_runs",
}

// NewServerMetrics registers the serving-front-end bundle on r.
func NewServerMetrics(r *Registry) *ServerMetrics {
	if r == nil {
		return nil
	}
	m := &ServerMetrics{
		Conns:          r.Gauge("lb_server_open_conns", "currently open client connections"),
		ConnsTotal:     r.Counter("lb_server_conns_total", "client connections accepted"),
		Ops:            r.CounterVec("lb_server_ops_total", "requests served by op", "op"),
		BatchSize:      r.Histogram("lb_server_batch_ops", "bid ops per admission batch", []float64{1, 4, 16, 64, 256, 1024, 4096, 16384}),
		Inflight:       r.Gauge("lb_server_inflight_reqs", "decoded requests in the last wakeup"),
		Overloads:      r.Counter("lb_server_overload_rejections_total", "requests rejected with the overload status"),
		ProtocolErrors: r.Counter("lb_server_protocol_errors_total", "connections dropped for malformed frames"),
		AckRuns:        r.Counter("lb_server_ack_runs_total", "ack messages sent for runs of OK bid ops"),
		Acked:          r.Counter("lb_server_acked_total", "requests answered inside ack messages"),
	}
	for op, name := range serverOpNames {
		if name != "" {
			m.ops[op] = m.Ops.With(name)
		}
	}
	return m
}

// ConnOpened / ConnClosed track the connection lifecycle.
func (m *ServerMetrics) ConnOpened() {
	if m == nil {
		return
	}
	m.Conns.Add(1)
	m.ConnsTotal.Inc()
}

// ConnClosed records a connection teardown; protocolErr marks one
// dropped for a malformed frame.
func (m *ServerMetrics) ConnClosed(protocolErr bool) {
	if m == nil {
		return
	}
	m.Conns.Add(-1)
	if protocolErr {
		m.ProtocolErrors.Inc()
	}
}

// Served records n served requests of the given wire op (out-of-range
// ops are dropped). The admission path calls it once per drained batch
// with that batch's per-op counts.
func (m *ServerMetrics) Served(op byte, n int64) {
	if m == nil || int(op) >= len(m.ops) {
		return
	}
	m.ops[op].Add(n)
}

// Batched records one admission batch of n bid ops.
func (m *ServerMetrics) Batched(n int) {
	if m == nil {
		return
	}
	m.BatchSize.Observe(float64(n))
}

// Wakeup records one connection wakeup that decoded n requests.
func (m *ServerMetrics) Wakeup(n int) {
	if m == nil {
		return
	}
	m.Inflight.Set(float64(n))
}

// Acks records runs ack messages answering acked requests in all.
func (m *ServerMetrics) Acks(runs, acked int64) {
	if m == nil {
		return
	}
	m.AckRuns.Add(runs)
	m.Acked.Add(acked)
}

// Overloaded records one StatusOverloaded rejection.
func (m *ServerMetrics) Overloaded() {
	if m == nil {
		return
	}
	m.Overloads.Inc()
}

// Observer bundles a registry, a trace ring and every layer bundle,
// so a CLI can enable full observability with one value and each
// layer can pull its slice. A nil *Observer disables everything.
type Observer struct {
	// Registry collects the metrics below.
	Registry *Registry
	// Trace is the shared event ring.
	Trace *Trace
	// Round, Supervise, Faults, BidRegistry, Health, Dispatch, WAL,
	// Swarm and Server are the layer bundles.
	Round       *RoundMetrics
	Supervise   *SuperviseMetrics
	Faults      *FaultMetrics
	BidRegistry *RegistryMetrics
	Health      *HealthMetrics
	Dispatch    *DispatchMetrics
	WAL         *WALMetrics
	Swarm       *SwarmMetrics
	Server      *ServerMetrics
}

// New returns an Observer with every bundle registered and a trace
// ring of the given capacity (<= 0 uses DefaultTraceCap). All
// counters exist — at zero — from the start, so exported snapshots
// always contain the full schema.
func New(traceCap int) *Observer {
	r := NewRegistry()
	return &Observer{
		Registry:    r,
		Trace:       NewTrace(traceCap),
		Round:       NewRoundMetrics(r),
		Supervise:   NewSuperviseMetrics(r),
		Faults:      NewFaultMetrics(r),
		BidRegistry: NewRegistryMetrics(r),
		Health:      NewHealthMetrics(r),
		Dispatch:    NewDispatchMetrics(r),
		WAL:         NewWALMetrics(r),
		Swarm:       NewSwarmMetrics(r),
		Server:      NewServerMetrics(r),
	}
}

// RoundMetrics returns the round bundle (nil on a nil observer).
func (o *Observer) RoundMetrics() *RoundMetrics {
	if o == nil {
		return nil
	}
	return o.Round
}

// SuperviseMetrics returns the supervisor bundle (nil on a nil
// observer).
func (o *Observer) SuperviseMetrics() *SuperviseMetrics {
	if o == nil {
		return nil
	}
	return o.Supervise
}

// FaultMetrics returns the fault bundle (nil on a nil observer).
func (o *Observer) FaultMetrics() *FaultMetrics {
	if o == nil {
		return nil
	}
	return o.Faults
}

// RegistryMetrics returns the bid-registry bundle (nil on a nil
// observer).
func (o *Observer) RegistryMetrics() *RegistryMetrics {
	if o == nil {
		return nil
	}
	return o.BidRegistry
}

// HealthMetrics returns the health-controller bundle (nil on a nil
// observer).
func (o *Observer) HealthMetrics() *HealthMetrics {
	if o == nil {
		return nil
	}
	return o.Health
}

// DispatchMetrics returns the per-job dispatcher bundle (nil on a nil
// observer).
func (o *Observer) DispatchMetrics() *DispatchMetrics {
	if o == nil {
		return nil
	}
	return o.Dispatch
}

// WALMetrics returns the write-ahead-log bundle (nil on a nil
// observer).
func (o *Observer) WALMetrics() *WALMetrics {
	if o == nil {
		return nil
	}
	return o.WAL
}

// SwarmMetrics returns the selfish-rebalancing bundle (nil on a nil
// observer).
func (o *Observer) SwarmMetrics() *SwarmMetrics {
	if o == nil {
		return nil
	}
	return o.Swarm
}

// ServerMetrics returns the serving-front-end bundle (nil on a nil
// observer).
func (o *Observer) ServerMetrics() *ServerMetrics {
	if o == nil {
		return nil
	}
	return o.Server
}

// Emit forwards an event to the trace ring (no-op on a nil observer).
func (o *Observer) Emit(e Event) {
	if o == nil {
		return
	}
	o.Trace.Emit(e)
}
