// Package server is the networked serving front end: it exposes a
// registry over TCP with the internal/wire framed protocol, turning
// the in-process serving stack into the cross-process mechanism the
// paper assumes — agents report bids and receive verified allocations
// across a trust boundary.
//
// The design optimizes for syscall and lock amortization, the two
// costs that dominate a loopback serving path:
//
//   - Pipelining. A connection may have many requests in flight;
//     responses come back in request order (request ids are echoed, a
//     client verifies monotonicity). One reader wakeup therefore
//     drains every frame the kernel buffered — hundreds of KB of
//     requests per read(2) under load — and one write(2) answers all
//     of them.
//
//   - Batched admission. Bid mutations (add/rebid/leave) decoded in a
//     wakeup are not applied one at a time: they accumulate into a
//     registry.ApplyBatch group that pays one shard-lock acquisition
//     and one journal call per touched shard and one metrics
//     round-trip per batch. A non-bid request (seal, query, rate)
//     forces a drain first, so per-connection effects always apply in
//     request order.
//
//   - Backpressure. A wakeup decodes at most Config.MaxInflight
//     requests; anything beyond answers StatusOverloaded (a typed,
//     in-order rejection the client library surfaces as such) without
//     touching the registry.
//
// The server owns no durability of its own: hand it a registry whose
// journal is an internal/wal writer and every admitted mutation is in
// the WAL before its response frame is written (the journal hook runs
// under the shard lock inside ApplyBatch). Kill -9 the process and
// wal.Open rebuilds the registry to the exact pre-crash sealed state;
// reconnecting clients resume against bitwise-identical epochs.
package server

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/wire"
)

// Defaults for Config's zero values.
const (
	DefaultMaxBatch    = 4096
	DefaultMaxInflight = 16384
	DefaultReadBuf     = 256 << 10
	DefaultWriteBuf    = 256 << 10
)

// Config configures a Server.
type Config struct {
	// Registry is the bid registry served; required.
	Registry *registry.Registry
	// MaxBatch caps bid ops per registry.ApplyBatch call; a full batch
	// drains immediately. Non-positive means DefaultMaxBatch.
	MaxBatch int
	// MaxInflight caps requests decoded per connection wakeup; requests
	// beyond it are answered StatusOverloaded without touching the
	// registry. Non-positive means DefaultMaxInflight.
	MaxInflight int
	// ReadBuf and WriteBuf size the per-connection frame window and
	// response buffer. Non-positive means the defaults.
	ReadBuf, WriteBuf int
	// SealInterval, when positive, seals an epoch on a background
	// ticker — the serving-loop cadence. Zero means epochs seal only on
	// client OpSeal requests, which keeps the epoch stream exactly the
	// clients' (the recovery smoke relies on that determinism).
	SealInterval time.Duration
	// Metrics is the optional lb_server_* bundle (nil disables).
	Metrics *obs.ServerMetrics
}

// Server is the TCP front end. Create with New, start with Serve or
// Start, stop with Shutdown or Kill.
type Server struct {
	cfg      Config
	sealGen  atomic.Uint64 // bumped on every sealed epoch; drives OpSealNotify
	draining atomic.Bool

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}

	wg       sync.WaitGroup
	tick     *time.Ticker
	tickWg   sync.WaitGroup
	stop     chan struct{}
	stopOnce sync.Once
}

// New returns an unstarted server for cfg.Registry.
func New(cfg Config) *Server {
	if cfg.Registry == nil {
		panic("server: Config.Registry is required")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.ReadBuf <= 0 {
		cfg.ReadBuf = DefaultReadBuf
	}
	if cfg.WriteBuf <= 0 {
		cfg.WriteBuf = DefaultWriteBuf
	}
	return &Server{cfg: cfg, conns: make(map[net.Conn]struct{}), stop: make(chan struct{})}
}

// Start listens on addr ("host:port", empty port for ephemeral) and
// serves in a background goroutine; it returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.Serve(ln)
	}()
	return ln.Addr().String(), nil
}

// Serve accepts connections on ln until Shutdown or Kill closes it.
// It returns nil on a clean stop, the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	if s.draining.Load() {
		ln.Close()
		return nil
	}
	if s.cfg.SealInterval > 0 {
		s.startSealer()
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.cfg.Metrics.ConnOpened()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// startSealer runs the background epoch ticker (at most once).
func (s *Server) startSealer() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tick != nil {
		return
	}
	s.tick = time.NewTicker(s.cfg.SealInterval)
	s.tickWg.Add(1)
	go func() {
		defer s.tickWg.Done()
		for {
			select {
			case <-s.tick.C:
				s.seal()
			case <-s.stop:
				return
			}
		}
	}()
}

// seal seals an epoch and bumps the notify generation.
func (s *Server) seal() *registry.Snapshot {
	snap := s.cfg.Registry.Seal()
	s.sealGen.Add(1)
	return snap
}

// Shutdown stops accepting, then gives every open connection up to
// grace to finish its in-flight requests: a connection that goes idle
// (or whose client closes) within the grace exits after flushing all
// pending responses. Connections still active when the grace expires
// are cut off. Shutdown returns once every handler has exited.
func (s *Server) Shutdown(grace time.Duration) error {
	s.beginDrain(time.Now().Add(grace))
	s.wg.Wait()
	s.stopSealer()
	return nil
}

// Kill force-closes the listener and every connection without
// draining — the in-process stand-in for kill -9 in crash tests. The
// registry (and its WAL) is left exactly as the last applied batch
// left it.
func (s *Server) Kill() {
	s.beginDrain(time.Now())
	s.wg.Wait()
	s.stopSealer()
}

// beginDrain closes the listener and applies deadline to every open
// connection.
func (s *Server) beginDrain(deadline time.Time) {
	s.draining.Store(true)
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for conn := range s.conns {
		conn.SetDeadline(deadline)
	}
	s.mu.Unlock()
}

func (s *Server) stopSealer() {
	s.mu.Lock()
	tick := s.tick
	s.mu.Unlock()
	if tick == nil {
		return
	}
	tick.Stop()
	s.stopOnce.Do(func() { close(s.stop) })
	s.tickWg.Wait()
}

// batcher accumulates one connection's pending bid ops and drains them
// through registry.ApplyBatch, encoding the in-order responses. All
// slices are reused: a warmed-up drain is allocation-free
// (AllocsPerRun-pinned).
type batcher struct {
	ops []registry.BatchOp
	req []uint64
	res []registry.BatchResult
	sc  registry.BatchScratch
}

// push queues one decoded bid op.
func (b *batcher) push(q *wire.Request) {
	var kind registry.BatchKind
	switch q.Op {
	case wire.OpAdd:
		kind = registry.BatchAdd
	case wire.OpRebid:
		kind = registry.BatchRebid
	case wire.OpLeave:
		kind = registry.BatchLeave
	}
	b.ops = append(b.ops, registry.BatchOp{Kind: kind, ID: int(q.ID), T: q.T})
	b.req = append(b.req, q.Req)
}

// opOf maps a batch kind back to its wire op.
func opOf(k registry.BatchKind) byte {
	switch k {
	case registry.BatchAdd:
		return wire.OpAdd
	case registry.BatchRebid:
		return wire.OpRebid
	default:
		return wire.OpLeave
	}
}

// drain applies the pending ops as one batch and appends their framed
// responses, in request order, to wbuf.
func (b *batcher) drain(reg *registry.Registry, met *obs.ServerMetrics, wbuf []byte) []byte {
	if len(b.ops) == 0 {
		return wbuf
	}
	b.res = reg.ApplyBatch(b.ops, b.res[:0], &b.sc)
	var adds, rebids, leaves int64
	for i := range b.res {
		var p wire.Response
		p.Op = opOf(b.ops[i].Kind)
		p.Req = b.req[i]
		switch b.res[i].Code {
		case registry.BatchOK:
			if b.ops[i].Kind == registry.BatchAdd {
				p.ID = uint64(b.res[i].ID)
			}
		case registry.BatchBadValue:
			p.Status = wire.StatusBadValue
		case registry.BatchUnknownID:
			p.Status = wire.StatusUnknownID
		default:
			p.Status = wire.StatusBadRequest
		}
		wbuf, _ = wire.AppendResponse(wbuf, &p)
		switch b.ops[i].Kind {
		case registry.BatchAdd:
			adds++
		case registry.BatchRebid:
			rebids++
		default:
			leaves++
		}
	}
	met.Batched(len(b.ops))
	met.Served(wire.OpAdd, adds)
	met.Served(wire.OpRebid, rebids)
	met.Served(wire.OpLeave, leaves)
	b.ops, b.req = b.ops[:0], b.req[:0]
	return wbuf
}

// handle runs one connection's read-decode-batch-respond loop until
// the peer closes, a deadline cuts it off, or a malformed frame
// arrives.
func (s *Server) handle(conn net.Conn) {
	reg, met := s.cfg.Registry, s.cfg.Metrics
	rd := wire.NewReader(s.cfg.ReadBuf)
	wbuf := make([]byte, 0, s.cfg.WriteBuf)
	var bt batcher
	var q wire.Request
	subscribed := false
	seenSeal := s.sealGen.Load()
	protoErr := false

	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		met.ConnClosed(protoErr)
	}()

	for {
		n, readErr := rd.Fill(conn)
		if n == 0 && readErr != nil {
			return // peer closed, deadline hit, or forced shutdown
		}
		// Push the seal notification first so a subscriber orders it
		// before this wakeup's responses — "the epoch you are about to
		// act under".
		if subscribed {
			if g := s.sealGen.Load(); g != seenSeal {
				seenSeal = g
				wbuf = appendEpoch(wbuf, wire.OpSealNotify, 0, reg.Snapshot())
				met.Served(wire.OpSealNotify, 1)
			}
		}
		decoded := 0
		for {
			payload, err := rd.Next()
			if err != nil {
				protoErr = true
				return
			}
			if payload == nil {
				break
			}
			if err := wire.DecodeRequest(payload, &q); err != nil {
				protoErr = true
				return
			}
			decoded++
			if decoded > s.cfg.MaxInflight {
				// Over the inflight bound: reject without registry
				// work, draining first so the rejection stays in
				// request order.
				wbuf = bt.drain(reg, met, wbuf)
				wbuf = appendStatus(wbuf, q.Op, q.Req, wire.StatusOverloaded)
				met.Overloaded()
				continue
			}
			switch q.Op {
			case wire.OpAdd, wire.OpRebid, wire.OpLeave:
				bt.push(&q)
				if len(bt.ops) >= s.cfg.MaxBatch {
					wbuf = bt.drain(reg, met, wbuf)
				}
			default:
				// Non-bid requests observe every bid op queued before
				// them on this connection.
				wbuf = bt.drain(reg, met, wbuf)
				wbuf = s.serve(&q, wbuf, &subscribed, &seenSeal)
				met.Served(q.Op, 1)
			}
		}
		wbuf = bt.drain(reg, met, wbuf)
		met.Wakeup(decoded)
		if len(wbuf) > 0 {
			if _, err := conn.Write(wbuf); err != nil {
				return
			}
			wbuf = wbuf[:0]
		}
		if readErr != nil {
			return
		}
		// A draining server exits once everything read so far is
		// answered and flushed; idle connections time out at the
		// drain deadline inside Fill.
		if s.draining.Load() && rd.Buffered() == 0 {
			return
		}
	}
}

// serve answers one non-bid request.
func (s *Server) serve(q *wire.Request, wbuf []byte, subscribed *bool, seenSeal *uint64) []byte {
	reg := s.cfg.Registry
	switch q.Op {
	case wire.OpSeal:
		snap := s.seal()
		// The requester's own seal is answered inline; don't notify it
		// again on the next wakeup.
		*seenSeal = s.sealGen.Load()
		return appendEpoch(wbuf, wire.OpSeal, q.Req, snap)
	case wire.OpEpoch:
		return appendEpoch(wbuf, wire.OpEpoch, q.Req, reg.Snapshot())
	case wire.OpLoad:
		snap := reg.Snapshot()
		x, ok := snap.Load(int(q.ID))
		if !ok {
			return appendStatus(wbuf, wire.OpLoad, q.Req, wire.StatusUnknownID)
		}
		p := wire.Response{Op: wire.OpLoad, Req: q.Req, Epoch: snap.Epoch(), Value: x}
		wbuf, _ = wire.AppendResponse(wbuf, &p)
		return wbuf
	case wire.OpPayment:
		comp, bonus, ok := reg.Snapshot().Payment(int(q.ID))
		if !ok {
			return appendStatus(wbuf, wire.OpPayment, q.Req, wire.StatusUnknownID)
		}
		p := wire.Response{Op: wire.OpPayment, Req: q.Req, Value: comp, Value2: bonus}
		wbuf, _ = wire.AppendResponse(wbuf, &p)
		return wbuf
	case wire.OpRate:
		if err := reg.SetRate(q.T); err != nil {
			return appendStatus(wbuf, wire.OpRate, q.Req, wire.StatusBadValue)
		}
		return appendStatus(wbuf, wire.OpRate, q.Req, wire.StatusOK)
	case wire.OpPing:
		return appendStatus(wbuf, wire.OpPing, q.Req, wire.StatusOK)
	case wire.OpSubscribe:
		*subscribed = true
		*seenSeal = s.sealGen.Load()
		return appendStatus(wbuf, wire.OpSubscribe, q.Req, wire.StatusOK)
	}
	return appendStatus(wbuf, q.Op, q.Req, wire.StatusBadRequest)
}

// appendEpoch appends a sealed-epoch response (seal, epoch, notify).
func appendEpoch(wbuf []byte, op byte, req uint64, snap *registry.Snapshot) []byte {
	p := wire.Response{
		Op: op, Req: req,
		Epoch: snap.Epoch(), N: uint64(snap.N()),
		Rate: snap.Rate(), Sum: snap.Sum(), Value: snap.OptimalLatency(),
	}
	wbuf, _ = wire.AppendResponse(wbuf, &p)
	return wbuf
}

// appendStatus appends a body-less response.
func appendStatus(wbuf []byte, op byte, req uint64, status byte) []byte {
	p := wire.Response{Op: op, Req: req, Status: status}
	out, err := wire.AppendResponse(wbuf, &p)
	if err != nil {
		// The op came off the wire via DecodeRequest, so it encodes.
		// Unreachable; keep the frame stream well-formed regardless.
		out, _ = wire.AppendResponse(wbuf, &wire.Response{Op: wire.OpPing, Req: req, Status: status})
	}
	return out
}
