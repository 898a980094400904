package server

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lbclient"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/wal"
	"repro/internal/wire"
)

// startServer boots a server on an ephemeral loopback port and
// returns it with its address; cleanup kills it.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.Registry == nil {
		reg, err := registry.New(registry.Config{Rate: 100, Shards: 8})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Registry = reg
	}
	srv := New(cfg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Kill)
	return srv, addr
}

func dial(t *testing.T, addr string) *lbclient.Conn {
	t.Helper()
	c, err := lbclient.Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(30 * time.Second))
	return c
}

// TestSyncOps exercises every op through the synchronous client
// against an in-process registry, checking values against the
// registry's own snapshot math.
func TestSyncOps(t *testing.T) {
	reg, err := registry.New(registry.Config{Rate: 100, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, Config{Registry: reg})
	c := dial(t, addr)

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	id0, err := c.Add(2)
	if err != nil || id0 != 0 {
		t.Fatalf("Add: id=%d err=%v", id0, err)
	}
	id1, err := c.Add(4)
	if err != nil || id1 != 1 {
		t.Fatalf("Add: id=%d err=%v", id1, err)
	}
	if err := c.Rebid(id1, 8); err != nil {
		t.Fatal(err)
	}
	if err := c.SetRate(50); err != nil {
		t.Fatal(err)
	}
	info, err := c.Seal()
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if info.Epoch != snap.Epoch() || info.N != 2 || info.Rate != 50 ||
		math.Float64bits(info.Sum) != math.Float64bits(snap.Sum()) ||
		math.Float64bits(info.OptimalLatency) != math.Float64bits(snap.OptimalLatency()) {
		t.Fatalf("Seal: %+v vs snapshot epoch=%d S=%v L*=%v", info, snap.Epoch(), snap.Sum(), snap.OptimalLatency())
	}
	x, epoch, err := c.Load(id0)
	if err != nil || epoch != info.Epoch {
		t.Fatalf("Load: %v epoch=%d err=%v", x, epoch, err)
	}
	if want, _ := snap.Load(id0); math.Float64bits(x) != math.Float64bits(want) {
		t.Fatalf("Load: %v want %v", x, want)
	}
	comp, bonus, err := c.Payment(id0)
	if err != nil {
		t.Fatal(err)
	}
	if wc, wb, _ := snap.Payment(id0); comp != wc || bonus != wb {
		t.Fatalf("Payment: %v,%v want %v,%v", comp, bonus, wc, wb)
	}

	// Failure statuses surface as typed errors.
	if _, err := c.Add(-1); !isStatus(err, wire.StatusBadValue) {
		t.Fatalf("Add(-1): %v", err)
	}
	if err := c.Rebid(99, 1); !isStatus(err, wire.StatusUnknownID) {
		t.Fatalf("Rebid(99): %v", err)
	}
	if err := c.Leave(id1); err != nil {
		t.Fatal(err)
	}
	if err := c.Leave(id1); !isStatus(err, wire.StatusUnknownID) {
		t.Fatalf("double Leave: %v", err)
	}
	if err := c.SetRate(math.NaN()); !isStatus(err, wire.StatusBadValue) {
		t.Fatalf("SetRate(NaN): %v", err)
	}
}

// TestSubnormalRebidRejected: a wire rebid whose bid is subnormal
// (positive and finite, but 1/t is +Inf) is answered StatusBadValue
// and leaves the registry untouched, so the next seal's S and every
// read stay finite instead of turning NaN.
func TestSubnormalRebidRejected(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dial(t, addr)
	id, err := c.Add(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Add(4); err != nil {
		t.Fatal(err)
	}
	if err := c.Rebid(id, 1e-310); !isStatus(err, wire.StatusBadValue) {
		t.Fatalf("Rebid(1e-310): %v, want StatusBadValue", err)
	}
	if _, err := c.Add(1e-310); !isStatus(err, wire.StatusBadValue) {
		t.Fatalf("Add(1e-310): %v, want StatusBadValue", err)
	}
	info, err := c.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if want := 1.0/2 + 1.0/4; info.N != 2 || info.Sum != want {
		t.Fatalf("seal after rejected rebid: N=%d S=%v, want N=2 S=%v", info.N, info.Sum, want)
	}
	x, _, err := c.Load(id)
	if err != nil || math.IsNaN(x) || math.IsInf(x, 0) {
		t.Fatalf("Load(%d) = %v, %v; want a finite load", id, x, err)
	}
	comp, bonus, err := c.Payment(id)
	if err != nil || math.IsNaN(comp+bonus) {
		t.Fatalf("Payment(%d) = %v, %v, %v; want finite", id, comp, bonus, err)
	}
}

func isStatus(err error, status byte) bool {
	se, ok := err.(*wire.StatusError)
	return ok && se.Status == status
}

// TestPipelinedMixedOpsRace drives several concurrent connections,
// each pipelining windows of mixed ops; the client's Recv enforces the
// monotone-response-id contract, so any reordering fails the test.
// Run under -race this also exercises the server's shared state.
func TestPipelinedMixedOpsRace(t *testing.T) {
	_, addr := startServer(t, Config{MaxBatch: 64})
	const conns = 3
	errs := make(chan error, conns)
	for w := 0; w < conns; w++ {
		go func(w int) {
			errs <- func() error {
				c, err := lbclient.Dial(addr, 0)
				if err != nil {
					return err
				}
				defer c.Close()
				c.SetDeadline(time.Now().Add(30 * time.Second))
				rng := rand.New(rand.NewSource(int64(w)))
				ids := make([]int, 0, 64)
				for i := 0; i < 32; i++ {
					id, err := c.Add(1 + rng.Float64()*9)
					if err != nil {
						return err
					}
					ids = append(ids, id)
				}
				if _, err := c.Seal(); err != nil {
					return err
				}
				for round := 0; round < 20; round++ {
					n := 1 + rng.Intn(200)
					for i := 0; i < n; i++ {
						switch rng.Intn(6) {
						case 0:
							c.QueueEpoch()
						case 1:
							c.QueueLoad(ids[rng.Intn(len(ids))])
						case 2:
							c.QueuePing()
						case 3:
							c.QueuePayment(ids[rng.Intn(len(ids))])
						default:
							c.QueueRebid(ids[rng.Intn(len(ids))], 1+rng.Float64()*9)
						}
					}
					if err := c.Flush(); err != nil {
						return err
					}
					for c.Outstanding() > 0 {
						p, err := c.Recv()
						if err != nil {
							return err
						}
						// Loads/payments may race another conn's seal
						// that excludes nothing of ours; ops on our own
						// live ids must succeed.
						if p.Status != wire.StatusOK && p.Status != wire.StatusUnknownID {
							t.Errorf("conn %d: status %s for op %d", w, wire.StatusString(p.Status), p.Op)
						}
					}
					if rng.Intn(4) == 0 {
						if _, err := c.Seal(); err != nil {
							return err
						}
					}
				}
				return nil
			}()
		}(w)
	}
	for i := 0; i < conns; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestOverloadBackpressure pins the inflight bound: a window far over
// MaxInflight gets typed StatusOverloaded rejections, in request
// order, and the rejected ops never touch the registry.
func TestOverloadBackpressure(t *testing.T) {
	reg, err := registry.New(registry.Config{Rate: 100, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, Config{Registry: reg, MaxInflight: 4})
	c := dial(t, addr)
	id, err := c.Add(2)
	if err != nil {
		t.Fatal(err)
	}

	// One big flush: everything lands in the server's first read(2)s,
	// so most of the window exceeds the bound. Kernel fragmentation
	// could in principle deliver it in ≤4-request nibbles; retry a few
	// times before calling that a failure.
	overloaded := 0
	for attempt := 0; attempt < 5 && overloaded == 0; attempt++ {
		const n = 2000
		for i := 0; i < n; i++ {
			c.QueueRebid(id, 3)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		for c.Outstanding() > 0 {
			p, err := c.Recv()
			if err != nil {
				t.Fatal(err)
			}
			switch p.Status {
			case wire.StatusOK:
			case wire.StatusOverloaded:
				overloaded++
			default:
				t.Fatalf("unexpected status %s", wire.StatusString(p.Status))
			}
		}
	}
	if overloaded == 0 {
		t.Fatal("no StatusOverloaded despite a 2000-request window over MaxInflight=4")
	}
	// The client still works after rejections.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestSealNotify: a subscribed connection receives a pushed
// notification (request id 0) for an epoch another connection sealed,
// ordered before its next responses.
func TestSealNotify(t *testing.T) {
	_, addr := startServer(t, Config{})
	a, b := dial(t, addr), dial(t, addr)

	var notified atomic.Uint64
	a.OnNotify = func(info lbclient.EpochInfo) { notified.Store(info.Epoch) }
	if err := a.Subscribe(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Add(2); err != nil {
		t.Fatal(err)
	}
	info, err := b.Seal()
	if err != nil {
		t.Fatal(err)
	}
	// A's next wakeup must push the notification before the ping
	// response; OnNotify runs inside Recv, so by the time Ping returns
	// the epoch is recorded.
	if err := a.Ping(); err != nil {
		t.Fatal(err)
	}
	if got := notified.Load(); got != info.Epoch {
		t.Fatalf("notified epoch %d, want %d", got, info.Epoch)
	}
	// The sealer itself is not re-notified for its own seal.
	b.OnNotify = func(lbclient.EpochInfo) { t.Error("sealer got notified for its own seal") }
	if err := b.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestGracefulShutdownDrains: every request flushed before Shutdown is
// answered, in order, before the connection closes.
func TestGracefulShutdownDrains(t *testing.T) {
	srv, addr := startServer(t, Config{})
	c := dial(t, addr)
	id, err := c.Add(2)
	if err != nil {
		t.Fatal(err)
	}

	const k = 500
	for i := 0; i < k; i++ {
		c.QueueRebid(id, float64(i+1))
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		srv.Shutdown(5 * time.Second)
		close(done)
	}()
	for i := 0; i < k; i++ {
		p, err := c.Recv()
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if p.Status != wire.StatusOK {
			t.Fatalf("response %d: status %s", i, wire.StatusString(p.Status))
		}
	}
	// The drained connection closes; the next read fails.
	if _, err := c.Recv(); err == nil {
		t.Fatal("Recv succeeded after drain; want connection close")
	}
	c.Close()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return")
	}
	// New connections are refused after shutdown.
	if cc, err := lbclient.Dial(addr, 0); err == nil {
		cc.SetDeadline(time.Now().Add(2 * time.Second))
		if err := cc.Ping(); err == nil {
			t.Fatal("server still serving after Shutdown")
		}
		cc.Close()
	}
}

// TestGracefulShutdownDrainsKernelBacklog: with a read window of a
// few whole rebid frames, most of a long pipeline flushed before
// Shutdown is still unread in the kernel when the drain begins, and
// the window is empty after every wakeup. Every request must still be
// answered: a draining connection closes only once a read finds the
// socket idle, since closing with unread data resets the connection.
func TestGracefulShutdownDrainsKernelBacklog(t *testing.T) {
	frame, err := wire.AppendRequest(nil, &wire.Request{Op: wire.OpRebid, Req: 1, ID: 0, T: 1})
	if err != nil {
		t.Fatal(err)
	}
	window := (wire.MaxFrame + len(frame) - 1) / len(frame) * len(frame)
	srv, addr := startServer(t, Config{ReadBuf: window})
	c := dial(t, addr)
	id, err := c.Add(2)
	if err != nil {
		t.Fatal(err)
	}
	// Small enough that requests and responses fit the loopback socket
	// buffers while the client writes without reading.
	const k = 20000
	for i := 0; i < k; i++ {
		c.QueueRebid(id, float64(i+1))
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		srv.Shutdown(5 * time.Second)
		close(done)
	}()
	for i := 0; i < k; i++ {
		p, err := c.Recv()
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if p.Status != wire.StatusOK {
			t.Fatalf("response %d: status %s", i, wire.StatusString(p.Status))
		}
	}
	if _, err := c.Recv(); err == nil {
		t.Fatal("Recv succeeded after drain; want connection close")
	}
	<-done
}

// TestKill9Recovery is the multi-process chaos contract, in-process:
// a WAL-journaled server killed mid-epoch (unflushed writer state
// dropped, exactly what SIGKILL leaves) recovers to a bitwise-
// identical sealed epoch, and a reconnecting client resumes against
// it — same aggregates, monotone ids, epoch continuing from where it
// stopped.
func TestKill9Recovery(t *testing.T) {
	dir := t.TempDir()
	cfg := registry.Config{Rate: 80, Shards: 8}
	opts := wal.Options{Sync: wal.SyncSeal}

	reg, w, _, err := wal.Open(dir, opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Registry: reg})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := dial(t, addr)

	rng := rand.New(rand.NewSource(7))
	ids := make([]int, 0, 40)
	for i := 0; i < 40; i++ {
		id, err := c.Add(1 + rng.Float64()*9)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < 60; i++ {
		if err := c.Rebid(ids[rng.Intn(len(ids))], 1+rng.Float64()*9); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Leave(ids[3]); err != nil {
		t.Fatal(err)
	}
	// Under SyncSeal, this response arriving means the epoch is
	// durable: Published fsyncs before SealCorrected returns, which is
	// before the response frame is written.
	sealed, err := c.Seal()
	if err != nil {
		t.Fatal(err)
	}
	pre := reg.Snapshot()
	// Mid-epoch traffic after the seal — acknowledged but, under
	// SyncSeal, not necessarily durable; the crash may lose it. The
	// sealed epoch must survive regardless.
	for i := 0; i < 30; i++ {
		if err := c.Rebid(ids[5+i%10], 2+rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}

	// Kill -9: connections cut, writer's in-memory buffer dropped.
	srv.Kill()
	w.Abandon()

	reg2, w2, info, err := wal.Open(dir, opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if info.Fresh {
		t.Fatal("recovery found no log")
	}
	post := reg2.Snapshot()
	if post.Epoch() != pre.Epoch() || post.N() != pre.N() ||
		math.Float64bits(post.Sum()) != math.Float64bits(pre.Sum()) ||
		math.Float64bits(post.Rate()) != math.Float64bits(pre.Rate()) {
		t.Fatalf("recovered epoch diverged: epoch %d/%d n %d/%d S %x/%x",
			post.Epoch(), pre.Epoch(), post.N(), pre.N(),
			math.Float64bits(post.Sum()), math.Float64bits(pre.Sum()))
	}
	for _, id := range pre.IDs(nil) {
		pv, _ := pre.Value(id)
		rv, ok := post.Value(id)
		if !ok || math.Float64bits(pv) != math.Float64bits(rv) {
			t.Fatalf("id %d: recovered value %x want %x (ok=%v)", id, math.Float64bits(rv), math.Float64bits(pv), ok)
		}
	}

	// Clients reconnect to a new server over the recovered registry and
	// resume: the epoch view matches the pre-crash seal bitwise, new
	// ids stay monotone, and the epoch counter continues.
	srv2 := New(Config{Registry: reg2})
	addr2, err := srv2.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Kill()
	c2 := dial(t, addr2)
	view, err := c2.Epoch()
	if err != nil {
		t.Fatal(err)
	}
	if view.Epoch != sealed.Epoch || view.N != sealed.N ||
		math.Float64bits(view.Sum) != math.Float64bits(sealed.Sum) ||
		math.Float64bits(view.OptimalLatency) != math.Float64bits(sealed.OptimalLatency) {
		t.Fatalf("reconnected view %+v, want pre-crash seal %+v", view, sealed)
	}
	newID, err := c2.Add(3)
	if err != nil {
		t.Fatal(err)
	}
	if newID < len(ids) {
		t.Fatalf("recovered id %d collides with pre-crash ids", newID)
	}
	after, err := c2.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if after.Epoch != sealed.Epoch+1 {
		t.Fatalf("post-recovery seal epoch %d, want %d", after.Epoch, sealed.Epoch+1)
	}
}

// TestSealInterval: the background sealer advances epochs and pushes
// notifications without any client OpSeal.
func TestSealInterval(t *testing.T) {
	_, addr := startServer(t, Config{SealInterval: 5 * time.Millisecond})
	c := dial(t, addr)
	var last atomic.Uint64
	c.OnNotify = func(info lbclient.EpochInfo) { last.Store(info.Epoch) }
	if err := c.Subscribe(); err != nil {
		t.Fatal(err)
	}
	start, err := c.Epoch()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
		if last.Load() > start.Epoch {
			return
		}
	}
	t.Fatalf("no seal notification after %v of background sealing", 5*time.Second)
}

// TestProtocolErrorDropsConn: garbage on the wire closes the
// connection without taking the server down.
func TestProtocolErrorDropsConn(t *testing.T) {
	reg, err := registry.New(registry.Config{Rate: 100, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	met := obs.NewServerMetrics(obs.NewRegistry())
	_, addr := startServer(t, Config{Registry: reg, Metrics: met})
	c := dial(t, addr)
	// A frame with a corrupt CRC.
	raw, _ := wire.AppendRequest(nil, &wire.Request{Op: wire.OpPing, Req: 1})
	raw[wire.FrameLen] ^= 0xff
	if _, err := c.WriteRaw(raw); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recv(); err == nil {
		t.Fatal("server answered a corrupt frame")
	}
	// The server survives for other clients.
	c2 := dial(t, addr)
	if err := c2.Ping(); err != nil {
		t.Fatal(err)
	}
	if met.ProtocolErrors.Value() == 0 {
		t.Fatal("protocol error not counted")
	}
}

// TestBatchDrainAllocFree pins the admission hot path — push a window
// of bid ops, drain through ApplyBatch, encode the responses — at
// zero allocations in steady state, metrics on.
func TestBatchDrainAllocFree(t *testing.T) {
	reg, err := registry.New(registry.Config{Rate: 100, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	met := obs.NewServerMetrics(obs.NewRegistry())
	const n = 256
	ids := make([]int, n)
	for i := range ids {
		if ids[i], err = reg.Add(float64(i + 1)); err != nil {
			t.Fatal(err)
		}
	}
	var bt batcher
	fr := wire.Framer{Runs: true}
	wbuf := make([]byte, 0, 64<<10)
	var q wire.Request
	// Warm the batcher's slices.
	for i := 0; i < n; i++ {
		q = wire.Request{Op: wire.OpRebid, Req: uint64(i + 1), ID: uint64(ids[i]), T: 2}
		bt.push(&q)
	}
	wbuf = fr.Close(bt.drain(reg, met, &fr, wbuf))

	if a := testing.AllocsPerRun(100, func() {
		wbuf = wbuf[:0]
		for i := 0; i < n; i++ {
			q = wire.Request{Op: wire.OpRebid, Req: uint64(i + 1), ID: uint64(ids[i]), T: 3}
			bt.push(&q)
		}
		wbuf = fr.Close(bt.drain(reg, met, &fr, wbuf))
	}); a != 0 {
		t.Fatalf("batch drain allocates %.1f/op, want 0", a)
	}
	if len(wbuf) == 0 {
		t.Fatal("drain encoded nothing")
	}
}
