package main

// The traced server: the same composition as cmd/lbserve's -listen mode
// (wal.Open, registry.Config, server.New with default shards and
// buffers), timed only from outside, at the layers' public seams — a
// net.Listener whose conns record read, process and write spans, and a
// registry.Journal wrapped around the *wal.Writer. Nothing inside the
// program is instrumented beyond the obs bundles it already has.

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/wal"
)

const (
	// serverRate is lbserve's default -rate, which the benchmark keeps.
	serverRate = 20
	// snapshotEvery is the -snapshot-every the benchmark passes.
	snapshotEvery = 8
	// connSpans, journalSpans and genSpans size the preallocated span
	// buffers. The generator's open-loop writer wakes up to about 40k
	// times a second at 250k ops/s, with an encode and a flush span each.
	connSpans    = 1 << 20
	journalSpans = 1 << 19
	genSpans     = 1 << 21
	// sampleShift picks the timed journal mutation calls: those whose
	// hashed call count has its top 64−sampleShift bits clear, one in 64.
	sampleShift = 58
)

// tracer holds the recording switch and clock shared by the wrappers.
type tracer struct {
	base time.Time
	on   atomic.Bool
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// tracedListener wraps the server's listener; every accepted conn
// records its spans into its own buffer.
type tracedListener struct {
	net.Listener
	tr    *tracer
	mu    sync.Mutex
	conns []*tracedConn
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tracedConn{Conn: c, tr: l.tr, log: newSpanLog(connSpans), open: l.tr.now()}
	tc.closed.Store(-1)
	l.mu.Lock()
	l.conns = append(l.conns, tc)
	l.mu.Unlock()
	return tc, nil
}

// tracedConn records server.read and server.write around each call, and
// server.process from a read's return to the next write's start. Only
// the connection's handler goroutine calls Read and Write.
type tracedConn struct {
	net.Conn
	tr       *tracer
	log      *spanLog
	open     int64
	closed   atomic.Int64
	readDone int64 // end of the last read not yet followed by a write
}

func (c *tracedConn) Read(b []byte) (int, error) {
	t0 := c.tr.now()
	n, err := c.Conn.Read(b)
	t1 := c.tr.now()
	if c.tr.on.Load() {
		c.log.add(span{start: t0, dur: t1 - t0, n: int64(n), kind: spRead})
	}
	c.readDone = t1
	return n, err
}

func (c *tracedConn) Write(b []byte) (int, error) {
	t0 := c.tr.now()
	on := c.tr.on.Load()
	if on && c.readDone > 0 {
		c.log.add(span{start: c.readDone, dur: t0 - c.readDone, kind: spProcess})
	}
	c.readDone = 0
	n, err := c.Conn.Write(b)
	if on {
		c.log.add(span{start: t0, dur: c.tr.now() - t0, n: int64(n), kind: spWrite})
	}
	return n, err
}

func (c *tracedConn) Close() error {
	c.closed.CompareAndSwap(-1, c.tr.now())
	return c.Conn.Close()
}

// journalCounts are the wrapper's call counters.
type journalCounts struct {
	Mutations int64 `json:"mutations"` // Added + Updated + Removed
	Rates     int64 `json:"rates"`
	Sealed    int64 `json:"sealed"`
	Published int64 `json:"published"`
}

// tracedJournal counts every journal call, times about one mutation
// in 64 and every Sealed and Published call.
type tracedJournal struct {
	w                        *wal.Writer
	tr                       *tracer
	log                      *sharedLog
	muts, rates, seals, pubs atomic.Int64
}

// timed counts a mutation call and starts a timer on about one call in
// 64. The choice hashes the call count, so it does not fall into step
// with the WAL's periodic group-commit flushes.
func (j *tracedJournal) timed() (int64, bool) {
	if (uint64(j.muts.Add(1))*0x9e3779b97f4a7c15)>>sampleShift != 0 || !j.tr.on.Load() {
		return 0, false
	}
	return j.tr.now(), true
}

func (j *tracedJournal) done(t0 int64, kind spanKind) {
	j.log.add(span{start: t0, dur: j.tr.now() - t0, kind: kind})
}

func (j *tracedJournal) Added(id int, t float64) {
	t0, ok := j.timed()
	j.w.Added(id, t)
	if ok {
		j.done(t0, spAppend)
	}
}

func (j *tracedJournal) Updated(id int, t float64) {
	t0, ok := j.timed()
	j.w.Updated(id, t)
	if ok {
		j.done(t0, spAppend)
	}
}

func (j *tracedJournal) Removed(id int) {
	t0, ok := j.timed()
	j.w.Removed(id)
	if ok {
		j.done(t0, spAppend)
	}
}

func (j *tracedJournal) RateChanged(rate float64) {
	j.rates.Add(1)
	j.w.RateChanged(rate)
}

func (j *tracedJournal) Sealed(ev registry.SealEvent) {
	j.seals.Add(1)
	t0 := j.tr.now()
	j.w.Sealed(ev)
	if j.tr.on.Load() {
		j.done(t0, spSealed)
	}
}

func (j *tracedJournal) Published(snap *registry.Snapshot) {
	j.pubs.Add(1)
	t0 := j.tr.now()
	j.w.Published(snap)
	if j.tr.on.Load() {
		j.done(t0, spPublished)
	}
}

func (j *tracedJournal) counts() journalCounts {
	return journalCounts{Mutations: j.muts.Load(), Rates: j.rates.Load(), Sealed: j.seals.Load(), Published: j.pubs.Load()}
}

// mark is one phase boundary as the server saw it.
type mark struct {
	At      int64                `json:"at_ns"`
	Journal journalCounts        `json:"journal"`
	Obs     map[string]obsMetric `json:"obs"`
}

// tracedServer is the running composition.
type tracedServer struct {
	tr      tracer
	ob      *obs.Observer
	reg     *registry.Registry
	w       *wal.Writer
	jr      *tracedJournal
	srv     *server.Server
	ln      *tracedListener
	served  chan error
	addr    string
	mu      sync.Mutex
	marks   []mark
	stopped bool
}

// startTraced composes and starts the traced server on an ephemeral
// loopback port, recovering or creating the WAL in dir.
func startTraced(dir string, policy wal.SyncPolicy) (*tracedServer, error) {
	t := &tracedServer{ob: obs.New(0), served: make(chan error, 1)}
	t.tr.base = time.Now()
	reg, w, _, err := wal.Open(dir,
		wal.Options{Sync: policy, SnapshotEvery: snapshotEvery, Metrics: t.ob.WALMetrics()},
		registry.Config{Rate: serverRate, Shards: registry.DefaultShards, Metrics: t.ob.RegistryMetrics()})
	if err != nil {
		return nil, err
	}
	t.reg, t.w = reg, w
	t.jr = &tracedJournal{w: w, tr: &t.tr, log: newSharedLog(journalSpans)}
	reg.AttachJournal(t.jr)
	t.srv = server.New(server.Config{Registry: reg, Metrics: t.ob.ServerMetrics()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.Close()
		return nil, err
	}
	t.ln = &tracedListener{Listener: ln, tr: &t.tr}
	t.addr = ln.Addr().String()
	go func() { t.served <- t.srv.Serve(t.ln) }()
	return t, nil
}

// mark records a phase boundary: the time, the journal counters and an
// obs snapshot. The first mark starts span recording, which then runs
// to the end, so that a span straddling the last mark is kept and
// clipped like any other.
func (t *tracedServer) mark() {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := mark{At: t.tr.now(), Journal: t.jr.counts(), Obs: flattenObs(t.ob.Registry.Snapshot())}
	t.marks = append(t.marks, m)
	t.tr.on.Store(true)
}

// serverTrace is what the traced server hands back: the marks, the
// per-window span sums, the final obs dump and a sample of raw spans.
type serverTrace struct {
	Marks       []mark               `json:"marks"`
	Windows     []windowAgg          `json:"windows"`
	AppendP50Ns []float64            `json:"append_p50_ns"`
	AppendP99Ns []float64            `json:"append_p99_ns"`
	SealedP50Ns []float64            `json:"sealed_p50_ns"`
	PubP50Ns    []float64            `json:"published_p50_ns"`
	Dropped     int64                `json:"dropped_spans"`
	ObsFinal    map[string]obsMetric `json:"obs_final"`
	Sample      [][4]int64           `json:"sample_spans"` // kind, start, dur, n
	KindNames   []string             `json:"kind_names"`   // spanKind → name
}

// stop drains the server, commits the WAL and sums the spans of each
// window between consecutive marks.
func (t *tracedServer) stop() (*serverTrace, error) {
	t.mu.Lock()
	if t.stopped {
		t.mu.Unlock()
		return nil, fmt.Errorf("traced server already stopped")
	}
	t.stopped = true
	t.mu.Unlock()
	t.srv.Shutdown(2 * time.Second)
	if err := <-t.served; err != nil {
		return nil, err
	}
	if err := t.w.Close(); err != nil {
		return nil, err
	}
	st := &serverTrace{Marks: t.marks, ObsFinal: flattenObs(t.ob.Registry.Snapshot()), KindNames: spanNames[:]}
	journal := t.jr.log.recorded()
	st.Dropped = t.jr.log.dropped()
	for i := 0; i+1 < len(t.marks); i++ {
		w := windowAgg{Start: t.marks[i].At, End: t.marks[i+1].At}
		for _, c := range t.ln.conns {
			closed := c.closed.Load()
			if closed < 0 {
				closed = w.End
			}
			w.addConn(c.open, closed)
			w.aggregate(c.log.spans, false)
		}
		w.aggregate(journal, true)
		w.AppendMeanNs = cappedMean(w.Kinds[spAppend].durs, appendCap)
		st.AppendP50Ns = append(st.AppendP50Ns, durQuantile(w.Kinds[spAppend].durs, 0.50))
		st.AppendP99Ns = append(st.AppendP99Ns, durQuantile(w.Kinds[spAppend].durs, 0.99))
		st.SealedP50Ns = append(st.SealedP50Ns, durQuantile(w.Kinds[spSealed].durs, 0.50))
		st.PubP50Ns = append(st.PubP50Ns, durQuantile(w.Kinds[spPublished].durs, 0.50))
		st.Windows = append(st.Windows, w)
	}
	for _, c := range t.ln.conns {
		st.Dropped += c.log.dropped
		for _, s := range c.log.spans[:min(len(c.log.spans), 200)] {
			st.Sample = append(st.Sample, [4]int64{int64(s.kind), s.start, s.dur, s.n})
		}
	}
	return st, nil
}

// serveTraced is the -serve-traced process: compose, announce the
// address, mark on SIGUSR1, and on SIGTERM stop and write the trace.
func serveTraced(dir, policyName, out string) int {
	policy, err := wal.ParseSyncPolicy(policyName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbbench:", err)
		return 1
	}
	sig := make(chan os.Signal, 4)
	signal.Notify(sig, syscall.SIGUSR1, syscall.SIGTERM, os.Interrupt)
	t, err := startTraced(dir, policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbbench:", err)
		return 1
	}
	fmt.Printf("lbbench: serving on %s\n", t.addr)
	for s := range sig {
		if s == syscall.SIGUSR1 {
			t.mark()
			continue
		}
		break
	}
	st, err := t.stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbbench:", err)
		return 1
	}
	b, err := json.Marshal(st)
	if err == nil {
		err = os.WriteFile(out, b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbbench:", err)
		return 1
	}
	return 0
}
