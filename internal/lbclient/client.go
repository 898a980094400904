// Package lbclient is the client side of the internal/wire protocol:
// a connection to the internal/server front end with explicit
// pipelining. Queue* methods encode requests into an outgoing buffer
// without writing, packed into run frames (one CRC32C frame carries up
// to wire.MaxPayload bytes of requests); Flush writes the buffer in
// one syscall; Recv returns responses in request order, verifying the
// server's monotone-request-id contract as it goes. Synchronous
// helpers (Add, Rebid, Seal, ...) wrap queue+flush+recv for callers
// that want one round trip per call.
//
// A Conn opts in to acknowledged runs: its first message, sent with
// the first Flush, is a wire.OpAckRuns request with request id 0, so
// the server may answer a run of OK adds, rebids or leaves with one
// wire.OpAck. Recv skips the opt-in's response and expands each ack
// into the responses it stands for, field for field what the plain
// messages decode to, so acks are invisible above Recv. A server
// built without OpAck drops the connection at the opt-in.
//
// A Conn is not safe for concurrent use, with one exception: one
// goroutine may queue and flush while another receives, as the load
// drivers do — the send side (Queue*, Flush, Pending) and the receive
// side (Recv) share no state. Pipelined and synchronous styles can be
// mixed, but a synchronous call consumes responses until its own comes
// back — call it only when no queued requests are outstanding.
package lbclient

import (
	"fmt"
	"net"
	"time"

	"repro/internal/wire"
)

// DefaultBuf sizes the connection's read window and write buffer.
const DefaultBuf = 256 << 10

// EpochInfo is a sealed epoch's aggregate view, decoded from a seal,
// epoch or seal-notify response.
type EpochInfo struct {
	Epoch uint64
	N     int
	// Rate is the total arrival rate R; Sum is the canonical aggregate
	// S = Σ 1/t_i; OptimalLatency is L*.
	Rate, Sum, OptimalLatency float64
}

// epochInfo extracts the aggregate fields from a seal-shaped response.
func epochInfo(p *wire.Response) EpochInfo {
	return EpochInfo{
		Epoch: p.Epoch, N: int(p.N),
		Rate: p.Rate, Sum: p.Sum, OptimalLatency: p.Value,
	}
}

// ErrOutOfOrder reports a pipelining-contract violation: a response id
// that is not the successor of the previous one.
type ErrOutOfOrder struct {
	Got, Want uint64
}

func (e *ErrOutOfOrder) Error() string {
	return fmt.Sprintf("lbclient: response id %d, want %d (pipelining contract violated)", e.Got, e.Want)
}

// Conn is one protocol connection. Create with Dial.
type Conn struct {
	c net.Conn

	// The send side.
	wbuf    []byte
	fr      wire.Framer // packs queued requests into the open run frame
	nextReq uint64      // last assigned request id (ids start at 1)

	// The receive side.
	rd       *wire.Reader
	lastRecv uint64 // last response id received
	ack      ackRun // the ack being expanded, if any
	resp     wire.Response

	// OnNotify, when set, receives pushed seal notifications (requires
	// Subscribe). It runs inside Recv, on the caller's goroutine.
	OnNotify func(EpochInfo)
}

// ackRun is what remains of a wire.OpAck being expanded: left more
// OK responses of op, the next of which, for an add, carries id.
type ackRun struct {
	op   byte
	left uint64
	id   uint64
}

// Dial connects to a server at addr. bufSize sizes the read window
// and write buffer (non-positive means DefaultBuf).
func Dial(addr string, bufSize int) (*Conn, error) {
	if bufSize <= 0 {
		bufSize = DefaultBuf
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newConn(c, bufSize, true), nil
}

// newConn wraps an open stream with a bufSize-byte read window and
// write buffer. With ackRuns set it queues the wire.OpAckRuns opt-in,
// request id 0, as the first message: it rides in the first Flush and
// costs no round trip of its own.
func newConn(c net.Conn, bufSize int, ackRuns bool) *Conn {
	conn := &Conn{
		c: c, rd: wire.NewReader(bufSize), wbuf: make([]byte, 0, bufSize),
		fr: wire.Framer{Runs: true},
	}
	if ackRuns {
		conn.wbuf, _ = conn.fr.AppendRequest(conn.wbuf, &wire.Request{Op: wire.OpAckRuns})
	}
	return conn
}

// Close closes the connection.
func (c *Conn) Close() error { return c.c.Close() }

// SetDeadline bounds subsequent reads and writes.
func (c *Conn) SetDeadline(t time.Time) error { return c.c.SetDeadline(t) }

// Pending reports queued-but-unflushed request bytes, framing
// included.
func (c *Conn) Pending() int { return len(c.wbuf) }

// Outstanding reports requests sent or queued but not yet answered.
func (c *Conn) Outstanding() uint64 { return c.nextReq - c.lastRecv }

// queue encodes one request with the next id and returns that id.
func (c *Conn) queue(op byte, id uint64, t float64) uint64 {
	c.nextReq++
	q := wire.Request{Op: op, Req: c.nextReq, ID: id, T: t}
	c.wbuf, _ = c.fr.AppendRequest(c.wbuf, &q)
	return c.nextReq
}

// QueueAdd queues an admission bidding t; the response carries the
// assigned id.
func (c *Conn) QueueAdd(t float64) uint64 { return c.queue(wire.OpAdd, 0, t) }

// QueueRebid queues a bid change for id.
func (c *Conn) QueueRebid(id int, t float64) uint64 {
	return c.queue(wire.OpRebid, uint64(id), t)
}

// QueueLeave queues a deregistration of id.
func (c *Conn) QueueLeave(id int) uint64 { return c.queue(wire.OpLeave, uint64(id), 0) }

// QueueRate queues an arrival-rate change.
func (c *Conn) QueueRate(rate float64) uint64 { return c.queue(wire.OpRate, 0, rate) }

// QueueSeal queues an epoch seal.
func (c *Conn) QueueSeal() uint64 { return c.queue(wire.OpSeal, 0, 0) }

// QueueEpoch queues a sealed-epoch read.
func (c *Conn) QueueEpoch() uint64 { return c.queue(wire.OpEpoch, 0, 0) }

// QueueLoad queues a sealed-allocation read for id.
func (c *Conn) QueueLoad(id int) uint64 { return c.queue(wire.OpLoad, uint64(id), 0) }

// QueuePayment queues a sealed-payment read for id.
func (c *Conn) QueuePayment(id int) uint64 { return c.queue(wire.OpPayment, uint64(id), 0) }

// QueuePing queues a no-op round trip.
func (c *Conn) QueuePing() uint64 { return c.queue(wire.OpPing, 0, 0) }

// QueueSubscribe queues a seal-notification subscription.
func (c *Conn) QueueSubscribe() uint64 { return c.queue(wire.OpSubscribe, 0, 0) }

// WriteRaw writes pre-framed bytes directly, bypassing the queue —
// for tests that need to put malformed frames on the wire.
func (c *Conn) WriteRaw(b []byte) (int, error) { return c.c.Write(b) }

// Flush closes the open run frame and writes every queued request in
// one syscall.
func (c *Conn) Flush() error {
	if len(c.wbuf) == 0 {
		return nil
	}
	c.wbuf = c.fr.Close(c.wbuf)
	_, err := c.c.Write(c.wbuf)
	c.wbuf = c.wbuf[:0]
	return err
}

// Recv returns the next in-order response. Pushed seal notifications
// (request id 0) are dispatched to OnNotify and skipped, and so is the
// opt-in's response; an ack comes back as the responses it stands for,
// one per call. The returned pointer is the connection's scratch
// response, valid until the next Recv. A response out of request
// order, or an ack whose first request id is not the next one, is an
// *ErrOutOfOrder.
func (c *Conn) Recv() (*wire.Response, error) {
	if c.ack.left > 0 {
		return c.nextAcked(), nil
	}
	for {
		ok, err := c.rd.NextResponse(&c.resp)
		if err != nil {
			return nil, err
		}
		if !ok {
			n, err := c.rd.Fill(c.c)
			if n == 0 && err != nil {
				return nil, err
			}
			continue
		}
		if c.resp.Req == 0 {
			switch c.resp.Op {
			case wire.OpSealNotify:
				if c.OnNotify != nil {
					c.OnNotify(epochInfo(&c.resp))
				}
				continue
			case wire.OpAckRuns:
				continue // the opt-in's response
			}
		}
		if c.resp.Req != c.lastRecv+1 {
			return nil, &ErrOutOfOrder{Got: c.resp.Req, Want: c.lastRecv + 1}
		}
		if c.resp.Op == wire.OpAck {
			c.ack = ackRun{op: c.resp.Acked, left: c.resp.N, id: c.resp.ID}
			return c.nextAcked(), nil
		}
		c.lastRecv++
		return &c.resp, nil
	}
}

// nextAcked returns the next response of the ack being expanded.
func (c *Conn) nextAcked() *wire.Response {
	c.lastRecv++
	c.resp = wire.Response{Op: c.ack.op, Req: c.lastRecv}
	if c.ack.op == wire.OpAdd {
		c.resp.ID = c.ack.id
		c.ack.id++
	}
	c.ack.left--
	return &c.resp
}

// call runs one synchronous round trip: flush the queue, then receive
// until the given request's response arrives. Earlier outstanding
// responses are received and discarded on the way.
func (c *Conn) call(req uint64) (*wire.Response, error) {
	if err := c.Flush(); err != nil {
		return nil, err
	}
	for {
		p, err := c.Recv()
		if err != nil {
			return nil, err
		}
		if p.Req == req {
			return p, nil
		}
		if p.Req > req {
			return nil, &ErrOutOfOrder{Got: p.Req, Want: req}
		}
	}
}

// statusErr maps a non-OK response to its typed error.
func statusErr(p *wire.Response) error {
	if p.Status == wire.StatusOK {
		return nil
	}
	return &wire.StatusError{Op: p.Op, Status: p.Status}
}

// Add admits an agent bidding t and returns its id.
func (c *Conn) Add(t float64) (int, error) {
	p, err := c.call(c.QueueAdd(t))
	if err != nil {
		return 0, err
	}
	if err := statusErr(p); err != nil {
		return 0, err
	}
	return int(p.ID), nil
}

// Rebid changes agent id's bid to t.
func (c *Conn) Rebid(id int, t float64) error {
	p, err := c.call(c.QueueRebid(id, t))
	if err != nil {
		return err
	}
	return statusErr(p)
}

// Leave deregisters agent id.
func (c *Conn) Leave(id int) error {
	p, err := c.call(c.QueueLeave(id))
	if err != nil {
		return err
	}
	return statusErr(p)
}

// SetRate changes the total arrival rate.
func (c *Conn) SetRate(rate float64) error {
	p, err := c.call(c.QueueRate(rate))
	if err != nil {
		return err
	}
	return statusErr(p)
}

// Seal seals an epoch and returns its aggregates.
func (c *Conn) Seal() (EpochInfo, error) {
	p, err := c.call(c.QueueSeal())
	if err != nil {
		return EpochInfo{}, err
	}
	if err := statusErr(p); err != nil {
		return EpochInfo{}, err
	}
	return epochInfo(p), nil
}

// Epoch returns the current sealed epoch's aggregates.
func (c *Conn) Epoch() (EpochInfo, error) {
	p, err := c.call(c.QueueEpoch())
	if err != nil {
		return EpochInfo{}, err
	}
	if err := statusErr(p); err != nil {
		return EpochInfo{}, err
	}
	return epochInfo(p), nil
}

// Load returns agent id's sealed PR allocation x and the epoch it came
// from.
func (c *Conn) Load(id int) (x float64, epoch uint64, err error) {
	p, err := c.call(c.QueueLoad(id))
	if err != nil {
		return 0, 0, err
	}
	if err := statusErr(p); err != nil {
		return 0, 0, err
	}
	return p.Value, p.Epoch, nil
}

// Payment returns agent id's sealed compensation-and-bonus payment.
func (c *Conn) Payment(id int) (compensation, bonus float64, err error) {
	p, err := c.call(c.QueuePayment(id))
	if err != nil {
		return 0, 0, err
	}
	if err := statusErr(p); err != nil {
		return 0, 0, err
	}
	return p.Value, p.Value2, nil
}

// Ping round-trips a no-op.
func (c *Conn) Ping() error {
	p, err := c.call(c.QueuePing())
	if err != nil {
		return err
	}
	return statusErr(p)
}

// Subscribe requests seal notifications on this connection; set
// OnNotify to receive them.
func (c *Conn) Subscribe() error {
	p, err := c.call(c.QueueSubscribe())
	if err != nil {
		return err
	}
	return statusErr(p)
}
