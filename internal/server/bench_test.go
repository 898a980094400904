package server

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/lbclient"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/wal"
	"repro/internal/wire"
)

// BenchmarkServeBatchDrain measures the server-side admission hot path
// in isolation — decode-shaped rebids of uniformly random agents pushed
// into the batcher and drained through registry.ApplyBatch in windows
// of 4096 with responses encoded into run frames — per bid op, no
// sockets. The populations match the serving benchmark's rebid-hot (8k agents) and
// seal-1m (1M agents) workloads, with the registry at the default shard
// count either unjournaled or journaling into a WAL writer (SyncNone,
// so no fsync sits in the loop). Must be 0 allocs/op.
//
// A host whose last-level cache holds the 1M agents' 8 MiB of records
// keeps them resident across windows, so the warm 1M case pays at most
// an L2 miss per rebid. The cache=cold cases write every line of a
// 64 MiB buffer, untimed, before each window, evicting the records
// from the core's private caches and their pages from the TLB, as the
// load generator sharing the server's CPU does between batches in the
// served seal-1m workload; only there does every rebid miss cache.
//
// The acks=on cases answer on a connection that opted in to acks, so
// each window's responses are one wire.OpAck instead of 4096 plain
// messages. The snapshots=8 case gives the WAL the served benchmark's
// snapshot cadence: the drain never seals, so it pins that journaling
// a mutation costs the same whether snapshots are on or off.
func BenchmarkServeBatchDrain(b *testing.B) {
	var cases []drainCase
	for _, c := range []drainCase{{agents: 8 << 10}, {agents: 1 << 20}, {agents: 1 << 20, cold: true}} {
		for _, journal := range []bool{false, true} {
			c.journal = journal
			cases = append(cases, c)
		}
	}
	cases = append(cases,
		drainCase{agents: 8 << 10, acks: true},
		drainCase{agents: 8 << 10, journal: true, acks: true},
		drainCase{agents: 1 << 20, journal: true, cold: true, snapshots: 8})
	for _, c := range cases {
		b.Run(c.name(), func(b *testing.B) { benchDrain(b, c) })
	}
}

// drainCase is one BenchmarkServeBatchDrain configuration.
type drainCase struct {
	agents    int
	journal   bool // journal into a WAL writer
	cold      bool // evict the records before each window
	acks      bool // answer as to a connection that opted in to acks
	snapshots int  // the WAL's SnapshotEvery
}

func (c drainCase) name() string {
	agents := "8k"
	if c.agents == 1<<20 {
		agents = "1M"
	}
	name := fmt.Sprintf("agents=%s/journal=none", agents)
	if c.journal {
		name = fmt.Sprintf("agents=%s/journal=wal", agents)
	}
	if c.cold {
		name += "/cache=cold"
	}
	if c.acks {
		name += "/acks=on"
	}
	if c.snapshots > 0 {
		name += fmt.Sprintf("/snapshots=%d", c.snapshots)
	}
	return name
}

// evictBytes is the size of the buffer the cache=cold drain cases
// write between windows: larger than any core's L2 and than the TLB's
// reach.
const evictBytes = 64 << 20

func benchDrain(b *testing.B, c drainCase) {
	agents := c.agents
	cfg := registry.Config{Rate: 1000}
	var w *wal.Writer
	if c.journal {
		var err error
		if w, err = wal.Create(b.TempDir(), wal.Options{Sync: wal.SyncNone, SnapshotEvery: c.snapshots}); err != nil {
			b.Fatal(err)
		}
		cfg.Journal = w
	}
	reg, err := registry.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	met := obs.NewServerMetrics(obs.NewRegistry())
	const window = 4096
	ops := make([]registry.BatchOp, agents)
	for i := range ops {
		ops[i] = registry.BatchOp{Kind: registry.BatchAdd, T: 1 + float64(i%7)}
	}
	if res := reg.ApplyBatch(ops, nil, nil); len(res) != agents || res[agents-1].ID != agents-1 {
		b.Fatalf("admitted %d agents, want %d", len(res), agents)
	}
	// A fixed random id sequence, long enough that the 1M-agent case
	// keeps missing cache; generating it outside the loop keeps the RNG
	// out of the measurement.
	rng := rand.New(rand.NewPCG(1, 2))
	seq := make([]uint32, 1<<20)
	for i := range seq {
		seq[i] = uint32(rng.IntN(agents))
	}
	var evict []byte
	if c.cold {
		evict = make([]byte, evictBytes)
	}
	bt := batcher{acks: c.acks}
	fr := wire.Framer{Runs: true}
	wbuf := make([]byte, 0, 1<<20)
	var q wire.Request
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for done < b.N {
		n := window
		if left := b.N - done; left < n {
			n = left
		}
		if c.cold {
			b.StopTimer()
			for i := 0; i < len(evict); i += 64 {
				evict[i]++
			}
			b.StartTimer()
		}
		wbuf = wbuf[:0]
		for i := 0; i < n; i++ {
			k := done + i
			q = wire.Request{Op: wire.OpRebid, Req: uint64(k + 1), ID: uint64(seq[k&(len(seq)-1)]), T: 1 + float64(k)/(1<<40)}
			bt.push(&q)
		}
		wbuf = fr.Close(bt.drain(reg, met, &fr, wbuf))
		done += n
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
	if w != nil {
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeWakeup measures one connection wakeup without a
// socket: a window of 4096 requests in run frames, as lbclient frames
// a pipeline window, read into the session's window in one Fill, then
// walked, batched, applied and answered into response bytes. The
// rebid cases send 4096 rebids of uniformly random agents among 8k
// (rebid-hot's population), unjournaled and journaling into a WAL
// writer (SyncNone); the reads=90% case is read-mix's shape, 45%
// sealed loads and 45% payments of random agents among 8k and 10%
// rebids, so most requests drain a batch of about one op. Every
// connection has opted in to acks, as lbclient's do. ns/op is per
// wakeup; ns/msg and msgs/s are per request. Must be 0 allocs/op
// (TestServeWakeupAllocFree).
func BenchmarkServeWakeup(b *testing.B) {
	for _, c := range []wakeupCase{
		{agents: 8 << 10, acks: true},
		{agents: 8 << 10, acks: true, journal: true},
		{agents: 8 << 10, acks: true, journal: true, reads: true},
	} {
		b.Run(c.name(), func(b *testing.B) {
			w := newWakeupBench(b, c)
			w.run(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.run(b)
			}
			b.StopTimer()
			msgs := float64(b.N) * wakeupWindow
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/msgs, "ns/msg")
			b.ReportMetric(msgs/b.Elapsed().Seconds(), "msgs/s")
			w.close(b)
		})
	}
}

// wakeupWindow is the requests per BenchmarkServeWakeup window.
const wakeupWindow = 4096

// wakeupCase is one BenchmarkServeWakeup configuration.
type wakeupCase struct {
	agents  int
	journal bool // journal into a WAL writer
	acks    bool // the connection opted in to acks
	reads   bool // read-mix's shape instead of all rebids
}

func (c wakeupCase) name() string {
	name := fmt.Sprintf("rebids/agents=%dk/journal=none", c.agents>>10)
	if c.reads {
		name = fmt.Sprintf("reads=90%%/agents=%dk/journal=none", c.agents>>10)
	}
	if c.journal {
		name = strings.TrimSuffix(name, "none") + "wal"
	}
	return name
}

// wakeupBench is one session of a server with its window's bytes.
type wakeupBench struct {
	srv    *Server
	ss     *session
	w      *wal.Writer
	window []byte
	src    bytes.Reader
	wbuf   []byte
}

func newWakeupBench(tb testing.TB, c wakeupCase) *wakeupBench {
	cfg := registry.Config{Rate: 1000}
	var w *wal.Writer
	if c.journal {
		var err error
		if w, err = wal.Create(tb.TempDir(), wal.Options{Sync: wal.SyncNone}); err != nil {
			tb.Fatal(err)
		}
		cfg.Journal = w
	}
	reg, err := registry.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ops := make([]registry.BatchOp, c.agents)
	for i := range ops {
		ops[i] = registry.BatchOp{Kind: registry.BatchAdd, T: 1 + float64(i%7)}
	}
	if res := reg.ApplyBatch(ops, nil, nil); len(res) != c.agents || res[c.agents-1].ID != c.agents-1 {
		tb.Fatalf("admitted %d agents, want %d", len(res), c.agents)
	}
	reg.Seal()
	srv := New(Config{Registry: reg, Metrics: obs.NewServerMetrics(obs.NewRegistry())})
	ss := srv.newSession()
	ss.bt.acks = c.acks
	rng := rand.New(rand.NewPCG(1, 2))
	f := wire.Framer{Runs: true}
	var window []byte
	for i := 0; i < wakeupWindow; i++ {
		q := wire.Request{Op: wire.OpRebid, Req: uint64(i + 1), ID: uint64(rng.IntN(c.agents)), T: 1 + float64(i)/(1<<20)}
		if c.reads {
			switch k := rng.IntN(20); {
			case k < 9:
				q.Op, q.T = wire.OpLoad, 0
			case k < 18:
				q.Op, q.T = wire.OpPayment, 0
			}
		}
		window, _ = f.AppendRequest(window, &q)
	}
	return &wakeupBench{srv: srv, ss: ss, w: w, window: f.Close(window), wbuf: make([]byte, 0, 1<<20)}
}

// run serves one window: one Fill, one wakeup.
func (w *wakeupBench) run(tb testing.TB) {
	w.src.Reset(w.window)
	if n, err := w.ss.rd.Fill(&w.src); err != nil || n != len(w.window) {
		tb.Fatalf("read %d of %d window bytes, err=%v", n, len(w.window), err)
	}
	var err error
	if w.wbuf, err = w.srv.wakeup(w.ss, w.wbuf[:0]); err != nil {
		tb.Fatal(err)
	}
}

func (w *wakeupBench) close(tb testing.TB) {
	if w.w != nil {
		if err := w.w.Close(); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkServePipelined is the headline: sustained pipelined bid
// ops/s over a real loopback TCP connection — client encode, kernel
// round trip, server decode + batched admission + response encode,
// client decode — with a 4096-request pipeline window. The ops/s
// metric lands in BENCH_serve.json; the acceptance bar is ≥1M.
func BenchmarkServePipelined(b *testing.B) {
	for _, conns := range []int{1, 2} {
		b.Run(fmt.Sprintf("conns=%d", conns), func(b *testing.B) {
			benchPipelined(b, conns)
		})
	}
}

func benchPipelined(b *testing.B, conns int) {
	reg, err := registry.New(registry.Config{Rate: 1000, Shards: 64})
	if err != nil {
		b.Fatal(err)
	}
	const agents = 4096
	ids := make([]int, agents)
	for i := range ids {
		if ids[i], err = reg.Add(1 + float64(i%7)); err != nil {
			b.Fatal(err)
		}
	}
	srv := New(Config{Registry: reg})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Kill()

	const window = 4096
	type result struct {
		n   int
		err error
	}
	results := make(chan result, conns)
	per := b.N / conns
	b.ResetTimer()
	for w := 0; w < conns; w++ {
		n := per
		if w == 0 {
			n = b.N - per*(conns-1)
		}
		go func(n int) {
			c, err := lbclient.Dial(addr, 1<<20)
			if err != nil {
				results <- result{0, err}
				return
			}
			defer c.Close()
			sent, recvd := 0, 0
			for recvd < n {
				for sent < n && sent-recvd < window {
					c.QueueRebid(ids[sent%agents], 1+float64(sent%13))
					sent++
				}
				if err := c.Flush(); err != nil {
					results <- result{recvd, err}
					return
				}
				for recvd < sent {
					p, err := c.Recv()
					if err != nil {
						results <- result{recvd, err}
						return
					}
					if p.Status != wire.StatusOK {
						results <- result{recvd, &wire.StatusError{Op: p.Op, Status: p.Status}}
						return
					}
					recvd++
				}
			}
			results <- result{recvd, nil}
		}(n)
	}
	total := 0
	for w := 0; w < conns; w++ {
		r := <-results
		if r.err != nil {
			b.Fatal(r.err)
		}
		total += r.n
	}
	b.StopTimer()
	if total != b.N {
		b.Fatalf("completed %d ops, want %d", total, b.N)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}
