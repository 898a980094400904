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
//     of them. Once a client sends run frames (several requests under
//     one CRC32C), the wakeup's responses go back in run frames too; a
//     client that frames every request alone gets every response
//     framed alone. A client that sends wire.OpAckRuns gets each
//     stretch of OK adds, rebids or leaves with consecutive request
//     ids (and, for adds, consecutive assigned ids) answered by one
//     wire.OpAck where that is shorter; every other client gets one
//     response per request.
//
//   - Batched admission. A wakeup takes each CRC-checked run from the
//     read window once and walks its messages in place, decoding each
//     with wire.DecodeRequest (inlined): an add, rebid or leave goes
//     straight onto the pending batch. Bid mutations are not applied
//     one at a time: they accumulate into a registry.ApplyBatch group
//     that pays one shard-lock acquisition and one journal call per
//     touched shard and one metrics round-trip per batch. A non-bid
//     request (seal, query, rate) forces a drain first, so
//     per-connection effects always apply in request order.
//     FuzzServeWakeup holds the walk to a per-message reference loop:
//     the same responses, drains, journal calls and metrics.
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
	"math"
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

// drainIdle is how long a draining connection's read may find the
// socket empty before the connection counts as idle and closes. It only
// has to outlast scheduling jitter: requests a client flushed before
// the drain are already in the kernel's receive buffer.
const drainIdle = 100 * time.Millisecond

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
	drainBy  atomic.Int64 // grace deadline (Unix ns), set before draining

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
// (a read finds nothing for drainIdle) or whose client closes within
// the grace exits after answering everything it read. Connections
// still active when the grace expires are cut off. Shutdown returns
// once every handler has exited.
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

// beginDrain closes the listener, makes deadline every open
// connection's write deadline and arms each one's next read to detect
// idleness (see drainReadDeadline).
func (s *Server) beginDrain(deadline time.Time) {
	s.drainBy.Store(deadline.UnixNano())
	s.draining.Store(true)
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for conn := range s.conns {
		conn.SetWriteDeadline(deadline)
		conn.SetReadDeadline(s.drainReadDeadline())
	}
	s.mu.Unlock()
}

// drainReadDeadline is the deadline for a draining connection's next
// read: drainIdle from now, capped at the grace deadline.
func (s *Server) drainReadDeadline() time.Time {
	d := time.Now().Add(drainIdle)
	if by := time.Unix(0, s.drainBy.Load()); by.Before(d) {
		return by
	}
	return d
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
	// acks is set once the connection sends wire.OpAckRuns: from then
	// on a drain answers runs of OK results with wire.OpAck messages.
	acks bool
}

// queue appends one bid op and its request id to the pending batch.
func (b *batcher) queue(kind registry.BatchKind, req, id uint64, t float64) {
	b.ops = append(b.ops, registry.BatchOp{Kind: kind, ID: agentID(id), T: t})
	b.req = append(b.req, req)
}

// agentID maps a wire id to a registry id. An id no int holds (one
// above math.MaxInt, which a 32-bit build can receive) becomes -1,
// which names no agent, instead of wrapping onto another agent's id.
func agentID(id uint64) int {
	if id > math.MaxInt {
		return -1
	}
	return int(id)
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

// drain applies the pending ops as one batch and appends their
// responses, in request order, to wbuf through fr.
func (b *batcher) drain(reg *registry.Registry, met *obs.ServerMetrics, fr *wire.Framer, wbuf []byte) []byte {
	if len(b.ops) == 0 {
		return wbuf
	}
	b.res = reg.ApplyBatch(b.ops, b.res[:0], &b.sc)
	wbuf = b.respond(met, fr, wbuf)
	b.ops, b.req = b.ops[:0], b.req[:0]
	return wbuf
}

// respond appends the responses to the applied batch: with acks on,
// one wire.OpAck for each stretch of results that run finds where the
// ack is shorter, and a plain response for every other result.
func (b *batcher) respond(met *obs.ServerMetrics, fr *wire.Framer, wbuf []byte) []byte {
	var served [wire.OpLeave + 1]int64 // indexed by wire op
	var runs, acked int64
	for i := 0; i < len(b.res); i++ {
		op := opOf(b.ops[i].Kind)
		if b.acks && i+1 < len(b.res) && b.res[i].Code == registry.BatchOK {
			// A stretch too short for an ack is answered plainly, one
			// result at a time; rescanning its tail finds it shorter.
			if n := b.run(i); wire.AckShorter(op, n) {
				p := wire.Response{Op: wire.OpAck, Req: b.req[i], Acked: op, N: uint64(n)}
				if op == wire.OpAdd {
					p.ID = uint64(b.res[i].ID)
				}
				wbuf, _ = fr.AppendResponse(wbuf, &p)
				runs++
				acked += int64(n)
				served[op] += int64(n)
				i += n - 1
				continue
			}
		}
		p := wire.Response{Op: op, Req: b.req[i]}
		switch b.res[i].Code {
		case registry.BatchOK:
			if op == wire.OpAdd {
				p.ID = uint64(b.res[i].ID)
			}
		case registry.BatchBadValue:
			p.Status = wire.StatusBadValue
		case registry.BatchUnknownID:
			p.Status = wire.StatusUnknownID
		default:
			p.Status = wire.StatusBadRequest
		}
		wbuf, _ = fr.AppendResponse(wbuf, &p)
		served[op]++
	}
	met.Batched(len(b.ops))
	met.Served(wire.OpAdd, served[wire.OpAdd])
	met.Served(wire.OpRebid, served[wire.OpRebid])
	met.Served(wire.OpLeave, served[wire.OpLeave])
	met.Acks(runs, acked)
	return wbuf
}

// run returns the length of the stretch of OK results from i, itself
// OK, that one wire.OpAck can stand for: results of one kind whose
// request ids are consecutive and, for adds, whose assigned ids are
// consecutive too.
func (b *batcher) run(i int) int {
	kind := b.ops[i].Kind
	j := i + 1
	for ; j < len(b.res) && uint64(j-i) < math.MaxUint32; j++ {
		if b.res[j].Code != registry.BatchOK || b.ops[j].Kind != kind ||
			b.req[j-1] == math.MaxUint64 || b.req[j] != b.req[j-1]+1 ||
			(kind == registry.BatchAdd && b.res[j].ID != b.res[j-1].ID+1) {
			break
		}
	}
	return j - i
}

// session is one connection's protocol state: its read window, its
// response framer, its pending batch and its subscription.
type session struct {
	rd *wire.Reader
	// fr frames responses one per frame until the client sends a frame
	// holding several requests.
	fr         wire.Framer
	bt         batcher
	subscribed bool
	seenSeal   uint64 // the seal generation the connection last saw
}

// newSession returns a connection's state at accept.
func (s *Server) newSession() *session {
	return &session{rd: wire.NewReader(s.cfg.ReadBuf), seenSeal: s.sealGen.Load()}
}

// handle runs one connection's read-walk-respond loop until the peer
// closes, a deadline cuts it off, or a malformed frame arrives.
func (s *Server) handle(conn net.Conn) {
	ss := s.newSession()
	wbuf := make([]byte, 0, s.cfg.WriteBuf)
	protoErr := false

	defer func() {
		// Count the close first: a peer that sees the connection end
		// then finds it (and any protocol error) in the metrics.
		s.cfg.Metrics.ConnClosed(protoErr)
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	for {
		n, readErr := ss.rd.Fill(conn)
		if n == 0 && readErr != nil {
			return // peer closed, deadline hit, or forced shutdown
		}
		var err error
		if wbuf, err = s.wakeup(ss, wbuf); err != nil {
			protoErr = true
			return
		}
		if len(wbuf) > 0 {
			if _, err := conn.Write(wbuf); err != nil {
				return
			}
			wbuf = wbuf[:0]
		}
		if readErr != nil {
			return
		}
		// A draining connection exits only when a read finds the socket
		// idle (Fill times out with nothing read) or the grace deadline
		// passes. An empty window is not enough: requests the client
		// flushed before the drain may still sit unread in the kernel,
		// and closing a socket with unread data resets the connection,
		// losing their acks.
		if s.draining.Load() {
			conn.SetReadDeadline(s.drainReadDeadline())
		}
	}
}

// wakeup answers every whole run in the session's read window,
// appending the responses to wbuf: one connection wakeup, without the
// socket. It walks each CRC-checked run once, in place: an add, rebid
// or leave goes straight onto the pending batch, and any other request
// drains the batch first and is served. The batch also drains when it
// holds MaxBatch ops and at the end of the wakeup; past MaxInflight
// requests, each one drains the batch and is answered
// StatusOverloaded. A malformed frame or message returns its
// *wire.ProtocolError, on which the connection drops unanswered.
func (s *Server) wakeup(ss *session, wbuf []byte) ([]byte, error) {
	reg, met := s.cfg.Registry, s.cfg.Metrics
	maxBatch, maxInflight := s.cfg.MaxBatch, s.cfg.MaxInflight
	bt, fr := &ss.bt, &ss.fr
	wbuf = s.notify(ss, wbuf)
	decoded := 0
	for {
		run, err := ss.rd.NextRun()
		if err != nil {
			return wbuf, err
		}
		if len(run) == 0 {
			break
		}
		for len(run) > 0 {
			q, n, err := wire.DecodeRequest(run)
			if err != nil {
				return wbuf, err
			}
			if n < len(run) && !fr.Runs {
				// A frame holding several requests: answer in runs
				// from this request on.
				fr.Runs = true
			}
			run = run[n:]
			// The ack opt-in rides in front of a client's first
			// requests and takes no inflight slot, so the bound
			// applies to those requests as it would without it.
			if q.Op != wire.OpAckRuns {
				decoded++
			}
			if decoded > maxInflight {
				// Over the inflight bound: reject without registry
				// work, draining first so the rejection stays in
				// request order.
				wbuf = bt.drain(reg, met, fr, wbuf)
				wbuf = appendStatus(fr, wbuf, q.Op, q.Req, wire.StatusOverloaded)
				met.Overloaded()
				continue
			}
			switch q.Op {
			case wire.OpRebid:
				bt.queue(registry.BatchRebid, q.Req, q.ID, q.T)
			case wire.OpAdd:
				bt.queue(registry.BatchAdd, q.Req, q.ID, q.T)
			case wire.OpLeave:
				bt.queue(registry.BatchLeave, q.Req, q.ID, q.T)
			default:
				// Non-bid requests observe every bid op queued before
				// them on this connection.
				wbuf = bt.drain(reg, met, fr, wbuf)
				wbuf = s.serve(q, fr, wbuf, ss)
				met.Served(q.Op, 1)
				continue
			}
			if len(bt.ops) >= maxBatch {
				wbuf = bt.drain(reg, met, fr, wbuf)
			}
		}
	}
	wbuf = fr.Close(bt.drain(reg, met, fr, wbuf))
	met.Wakeup(decoded)
	return wbuf, nil
}

// notify pushes a seal notification to a subscribed connection when an
// epoch sealed since its last wakeup. It goes first, so a subscriber
// orders it before the wakeup's responses — "the epoch you are about
// to act under".
func (s *Server) notify(ss *session, wbuf []byte) []byte {
	if !ss.subscribed {
		return wbuf
	}
	if g := s.sealGen.Load(); g != ss.seenSeal {
		ss.seenSeal = g
		wbuf = appendEpoch(&ss.fr, wbuf, wire.OpSealNotify, 0, s.cfg.Registry.Snapshot())
		s.cfg.Metrics.Served(wire.OpSealNotify, 1)
	}
	return wbuf
}

// serve answers one non-bid request.
func (s *Server) serve(q wire.Request, fr *wire.Framer, wbuf []byte, ss *session) []byte {
	reg := s.cfg.Registry
	switch q.Op {
	case wire.OpSeal:
		snap := s.seal()
		// The requester's own seal is answered inline; don't notify it
		// again on the next wakeup.
		ss.seenSeal = s.sealGen.Load()
		return appendEpoch(fr, wbuf, wire.OpSeal, q.Req, snap)
	case wire.OpEpoch:
		return appendEpoch(fr, wbuf, wire.OpEpoch, q.Req, reg.Snapshot())
	case wire.OpLoad:
		snap := reg.Snapshot()
		x, ok := snap.Load(agentID(q.ID))
		if !ok {
			return appendStatus(fr, wbuf, wire.OpLoad, q.Req, wire.StatusUnknownID)
		}
		p := wire.Response{Op: wire.OpLoad, Req: q.Req, Epoch: snap.Epoch(), Value: x}
		wbuf, _ = fr.AppendResponse(wbuf, &p)
		return wbuf
	case wire.OpPayment:
		comp, bonus, ok := reg.Snapshot().Payment(agentID(q.ID))
		if !ok {
			return appendStatus(fr, wbuf, wire.OpPayment, q.Req, wire.StatusUnknownID)
		}
		p := wire.Response{Op: wire.OpPayment, Req: q.Req, Value: comp, Value2: bonus}
		wbuf, _ = fr.AppendResponse(wbuf, &p)
		return wbuf
	case wire.OpRate:
		if err := reg.SetRate(q.T); err != nil {
			return appendStatus(fr, wbuf, wire.OpRate, q.Req, wire.StatusBadValue)
		}
		return appendStatus(fr, wbuf, wire.OpRate, q.Req, wire.StatusOK)
	case wire.OpPing:
		return appendStatus(fr, wbuf, wire.OpPing, q.Req, wire.StatusOK)
	case wire.OpSubscribe:
		ss.subscribed = true
		ss.seenSeal = s.sealGen.Load()
		return appendStatus(fr, wbuf, wire.OpSubscribe, q.Req, wire.StatusOK)
	case wire.OpAckRuns:
		ss.bt.acks = true
		return appendStatus(fr, wbuf, wire.OpAckRuns, q.Req, wire.StatusOK)
	}
	return appendStatus(fr, wbuf, q.Op, q.Req, wire.StatusBadRequest)
}

// appendEpoch appends a sealed-epoch response (seal, epoch, notify).
func appendEpoch(fr *wire.Framer, wbuf []byte, op byte, req uint64, snap *registry.Snapshot) []byte {
	p := wire.Response{
		Op: op, Req: req,
		Epoch: snap.Epoch(), N: uint64(snap.N()),
		Rate: snap.Rate(), Sum: snap.Sum(), Value: snap.OptimalLatency(),
	}
	wbuf, _ = fr.AppendResponse(wbuf, &p)
	return wbuf
}

// appendStatus appends a body-less response.
func appendStatus(fr *wire.Framer, wbuf []byte, op byte, req uint64, status byte) []byte {
	p := wire.Response{Op: op, Req: req, Status: status}
	out, err := fr.AppendResponse(wbuf, &p)
	if err != nil {
		// The op came off the wire as a request, so it encodes.
		// Unreachable; keep the frame stream well-formed regardless.
		out, _ = fr.AppendResponse(wbuf, &wire.Response{Op: wire.OpPing, Req: req, Status: status})
	}
	return out
}
