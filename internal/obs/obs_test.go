package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %g, want 1.5", got)
	}
	// Re-registering a name returns the same metric.
	if r.Counter("c_total", "again") != c {
		t.Error("re-registration did not return the existing counter")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "a histogram", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100, math.NaN()} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Errorf("count = %d, want 5 (NaN dropped)", got)
	}
	snaps := r.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("got %d snapshots, want 1", len(snaps))
	}
	s := snaps[0]
	// Cumulative: <=1: 2, <=2: 3, <=4: 4, +Inf: 5.
	wantCum := []int64{2, 3, 4, 5}
	for i, b := range s.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket %d cum = %d, want %d", i, b.Count, wantCum[i])
		}
	}
	if s.Sum != 0.5+1+1.5+3+100 {
		t.Errorf("sum = %g", s.Sum)
	}
}

func TestCounterVecSortedExport(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("f_total", "faults", "kind")
	v.With("drop").Add(3)
	v.With("stall").Inc()
	v.With("delay").Add(2)
	snaps := r.Snapshot()
	var kinds []string
	for _, s := range snaps {
		kinds = append(kinds, s.Labels["kind"])
	}
	want := []string{"delay", "drop", "stall"}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("label order = %v, want %v", kinds, want)
		}
	}
	if v.Value("drop") != 3 {
		t.Errorf("drop = %d, want 3", v.Value("drop"))
	}
}

func TestNilSafety(t *testing.T) {
	// Every operation on nil metrics, bundles, traces and observers
	// must be a silent no-op.
	var r *Registry
	r.Counter("x", "").Inc()
	r.Gauge("x", "").Set(1)
	r.Histogram("x", "", nil).Observe(1)
	r.CounterVec("x", "", "l").With("v").Inc()
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot not nil")
	}

	var o *Observer
	o.RoundMetrics().AddMessages(1, 2, 3)
	o.RoundMetrics().TimeoutFired()
	o.RoundMetrics().RoundDone("ok", 1)
	o.SuperviseMetrics().AttemptDone("deadline")
	o.SuperviseMetrics().RetryScheduled(0.1)
	o.SuperviseMetrics().Excluded("audit", 2)
	o.FaultMetrics().Injected("drop")
	o.RegistryMetrics().Mutated("update", true)
	o.RegistryMetrics().Sealed(5, 0.01, 0.001)
	o.WALMetrics().AppendedBatch(3, 40)
	o.WALMetrics().AppendSampled(1e-6)
	o.WALMetrics().Flushed(40, true, 1e-3)
	o.WALMetrics().SegmentCreated()
	o.WALMetrics().CompactedSegments(2, 1<<20, true)
	o.WALMetrics().SnapshotSkipped()
	o.WALMetrics().Recovered(5, 100)
	o.ServerMetrics().ConnOpened()
	o.ServerMetrics().ConnClosed(true)
	o.ServerMetrics().Served(12, 1)
	o.ServerMetrics().Batched(3)
	o.ServerMetrics().Wakeup(3)
	o.ServerMetrics().Overloaded()
	o.ServerMetrics().Acks(1, 3)
	o.Emit(Event{Kind: "x"})

	var tr *Trace
	tr.Emit(Event{})
	if tr.Events() != nil || tr.Dropped() != 0 {
		t.Error("nil trace misbehaved")
	}
}

// TestRegistrySealedRecordsHold pins the seal bundle: each Sealed call
// observes its latency and its lock hold in separate histograms, and a
// negative duration is left out of its own histogram only.
func TestRegistrySealedRecordsHold(t *testing.T) {
	r := NewRegistry()
	m := NewRegistryMetrics(r)
	m.Sealed(3, 0.004, 0.001)
	m.Sealed(5, 0.006, -1)
	if m.Epochs.Value() != 2 || m.Live.Value() != 5 {
		t.Fatalf("epochs %d, live %g; want 2, 5", m.Epochs.Value(), m.Live.Value())
	}
	if m.SealSeconds.Count() != 2 || m.SealHoldSeconds.Count() != 1 {
		t.Fatalf("seal histogram has %d samples, hold histogram %d; want 2, 1",
			m.SealSeconds.Count(), m.SealHoldSeconds.Count())
	}
	for _, s := range r.Snapshot() {
		if s.Name == "lb_registry_seal_hold_seconds" && s.Sum != 0.001 {
			t.Fatalf("hold histogram sum %g, want 0.001", s.Sum)
		}
	}
}

func TestWriteJSONDeterministic(t *testing.T) {
	build := func() string {
		r := NewRegistry()
		r.Counter("a_total", "A").Add(2)
		r.CounterVec("b_total", "B", "k").With("z").Inc()
		r.CounterVec("b_total", "B", "k").With("a").Inc()
		r.Histogram("c_seconds", "C", []float64{1}).Observe(0.5)
		var sb strings.Builder
		if err := r.WriteJSON(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a, b := build(), build()
	if a != b {
		t.Errorf("JSON export not deterministic:\n%s\nvs\n%s", a, b)
	}
	for _, want := range []string{`"a_total"`, `"kind": "counter"`, `"le": "+Inf"`, `"metrics"`} {
		if !strings.Contains(a, want) {
			t.Errorf("JSON export missing %s:\n%s", want, a)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("lb_x_total", "X things").Add(3)
	r.Gauge("lb_g", "G").Set(1.5)
	v := r.CounterVec("lb_v_total", "V", "kind")
	v.With("drop").Inc()
	v.With("delay").Add(2)
	r.Histogram("lb_h_seconds", "H", []float64{1, 2}).Observe(1.5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP lb_x_total X things",
		"# TYPE lb_x_total counter",
		"lb_x_total 3",
		"lb_g 1.5",
		`lb_v_total{kind="delay"} 2`,
		`lb_v_total{kind="drop"} 1`,
		`lb_h_seconds_bucket{le="1"} 0`,
		`lb_h_seconds_bucket{le="2"} 1`,
		`lb_h_seconds_bucket{le="+Inf"} 1`,
		"lb_h_seconds_sum 1.5",
		"lb_h_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus export missing %q:\n%s", want, out)
		}
	}
}

func TestTraceRing(t *testing.T) {
	tr := NewTrace(3)
	for i := 0; i < 5; i++ {
		tr.Emit(Event{Kind: "k", Node: i})
	}
	ev := tr.Events()
	if len(ev) != 3 {
		t.Fatalf("len = %d, want 3", len(ev))
	}
	// The last three emissions survive, in order, with global seqs.
	for i, e := range ev {
		if e.Node != i+2 || e.Seq != i+2 {
			t.Errorf("event %d = %+v, want node/seq %d", i, e, i+2)
		}
	}
	if tr.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", tr.Dropped())
	}

	var sb strings.Builder
	if err := tr.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "(2 earlier events dropped by the ring)") {
		t.Errorf("text trace missing drop note:\n%s", sb.String())
	}
	sb.Reset()
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"dropped": 2`) {
		t.Errorf("json trace missing dropped count:\n%s", sb.String())
	}
}

func TestConcurrentRecording(t *testing.T) {
	// Metrics and the trace must be safe under concurrent writers
	// (the CI workflow runs this under -race).
	o := New(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				o.Round.AddMessages(1, 0, 0)
				o.Supervise.RetryScheduled(0.01)
				o.Health.Transitioned("two-strike", w%2 == 0, false)
				o.Faults.Injected("drop")
				o.Emit(Event{Layer: "test", Kind: "tick", Node: w})
			}
		}(w)
	}
	wg.Wait()
	if got := o.Round.MessagesSent.Value(); got != 1600 {
		t.Errorf("messages sent = %d, want 1600", got)
	}
	if got := o.Health.Ejections.Value(); got != 800 {
		t.Errorf("ejections = %d, want 800", got)
	}
	if got := o.Faults.Injections.Value("drop"); got != 1600 {
		t.Errorf("drops = %d, want 1600", got)
	}
}

func TestObserverSchemaComplete(t *testing.T) {
	// A fresh observer's snapshot already contains every registered
	// metric at zero, so exported snapshots always have the full
	// schema even before anything happens.
	o := New(0)
	var sb strings.Builder
	if err := o.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"lb_round_messages_sent_total",
		"lb_round_timeouts_total",
		"lb_round_audit_flags_total",
		"lb_supervise_retries_total",
		"lb_fault_injections_total",
		"lb_registry_epochs_sealed_total",
		"lb_registry_coalesced_rebids_total",
		"lb_registry_seal_seconds",
		"lb_registry_seal_hold_seconds",
		"lb_wal_snapshots_skipped_total",
		"lb_wal_snapshots_total",
		"lb_wal_delta_snapshots_total",
		"lb_wal_snapshot_bytes_total",
		"lb_wal_snapshot_errors_total",
		"lb_server_ack_runs_total",
		"lb_server_acked_total",
		`lb_server_ops_total{op="ack_runs"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fresh observer export missing %s", want)
		}
	}
}

// TestServerOpsLabels: every request op the wire defines, the ack
// opt-in (op 12) included, counts under its own label, and an op past
// the table is dropped rather than miscounted.
func TestServerOpsLabels(t *testing.T) {
	m := NewServerMetrics(NewRegistry())
	for op := byte(1); op <= 13; op++ {
		m.Served(op, int64(op))
	}
	for op, name := range serverOpNames {
		if name != "" && m.Ops.Value(name) != int64(op) {
			t.Errorf("ops_total{op=%q} = %d, want %d", name, m.Ops.Value(name), op)
		}
	}
	if serverOpNames[12] != "ack_runs" {
		t.Errorf("op 12 is labelled %q, want ack_runs", serverOpNames[12])
	}
	m.Acks(2, 7)
	if m.AckRuns.Value() != 2 || m.Acked.Value() != 7 {
		t.Errorf("ack counters %d/%d, want 2/7", m.AckRuns.Value(), m.Acked.Value())
	}
}
