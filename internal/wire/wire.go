// Package wire is the framed binary protocol between the networked
// serving front end (internal/server) and its clients
// (internal/lbclient): bid admission (add/rebid/leave), arrival-rate
// changes, epoch seals, sealed-epoch queries (dispatch decisions,
// payment settlement) and epoch-seal notifications, over any byte
// stream — in practice a TCP connection.
//
// Every frame is an internal/frame frame, the format the WAL's records
// use too:
//
//	[u32 payload length][u32 CRC32C(payload)][payload]
//
// with little-endian integers throughout. Here the payload length is
// in (0, MaxPayload], MaxPayload = 8 KiB, and a frame that breaks the
// format is a *ProtocolError on which the server drops the connection.
// A payload is a run of one or more messages laid end to end, so the
// header and the checksum are paid once per run rather than once per
// message. A message starts with a one-byte op, then the u64 request
// id, then op-specific fields; its length follows from its op (and,
// for a response, its status), and a run must end exactly on a
// message boundary:
//
//	request            message after [op][req u64]
//	OpAdd              f64 bid t
//	OpRebid            u64 id, f64 bid t
//	OpLeave            u64 id
//	OpRate             f64 rate
//	OpSeal             —
//	OpEpoch            —
//	OpLoad             u64 id
//	OpPayment          u64 id
//	OpPing             —
//	OpSubscribe        —
//	OpAckRuns          —
//
//	response           message after [op][req u64][status]
//	OpAdd              u64 id                      (StatusOK only)
//	OpRebid/OpLeave    —
//	OpRate/OpPing      —
//	OpSubscribe        —
//	OpAckRuns          —
//	OpSeal/OpEpoch     u64 epoch, u64 n, f64 rate, f64 S, f64 L*
//	OpSealNotify       u64 epoch, u64 n, f64 rate, f64 S, f64 L*
//	OpLoad             u64 epoch, f64 x
//	OpPayment          f64 compensation, f64 bonus
//	OpAck              u8 op, u32 count, u64 first id (StatusOK only)
//
// A response with Status != StatusOK carries no body regardless of
// op. OpSealNotify is a server-initiated message: a subscribed
// connection receives it with request id 0 when an epoch sealed since
// the connection's previous wakeup. Every other response but OpAck
// echoes the request id it answers, and responses on one connection
// arrive in request order (the pipelining contract).
//
// OpAck stands for count consecutive StatusOK responses of one op —
// add, rebid or leave — to the requests first, first+1, …,
// first+count−1, where first is its request id. The k-th add's id is
// the first id plus k; for rebids and leaves the first id is 0. A
// server sends OpAck only on a connection that opted in by sending
// OpAckRuns (answered StatusOK like a ping; a client sends it first,
// with request id 0), and only where one ack is shorter than the plain
// responses it replaces: three or more rebids or leaves, two or more
// adds. The decoder refuses an ack that stands for no run of
// responses: a count of 0, an op other than add, rebid or leave, a
// nonzero first id on a rebid or leave ack, a request-id or id range
// that wraps, a non-OK status — and OpAck in a request.
//
// A client packs its queued requests into run frames (a Framer with
// Runs set). The server answers in runs only once the connection has
// sent a frame holding more than one message. A client that sends one
// message per frame gets one response per frame back, byte for byte
// the single-message framing of earlier builds (MaxPayload 64), so
// such clients keep working unchanged, and a client that never sends
// OpAckRuns gets one response per request, byte for byte what servers
// without OpAck send. Builds without run frames reject any frame over
// 64 bytes with ErrFrameTooBig, and builds without OpAck reject
// OpAckRuns with ErrUnknownOp; either drops the connection, so upgrade
// servers before clients.
//
// Encode appends to a caller-provided buffer, a request decodes into a
// flat struct returned by value and a response into a caller-provided
// one, so both directions are allocation-free in steady state (pinned
// by AllocsPerRun guards). A server takes each run from a Reader once
// (NextRun) and walks its messages in place with DecodeRequest. The
// decoder is fuzzed against truncated, corrupt and oversized frames
// and runs: it returns typed *ProtocolError values and never panics or
// reads outside the frame it was handed.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/frame"
)

const (
	// FrameLen is the per-frame overhead: u32 payload length plus u32
	// CRC32C of the payload.
	FrameLen = frame.HeaderLen
	// MaxPayload bounds a frame's payload, one run of messages. It is
	// a fixed bound checked before any read: a larger length prefix is
	// a corrupt or hostile stream, rejected before any allocation or
	// over-read.
	MaxPayload = 8 << 10
	// MaxFrame is the largest whole frame on the wire.
	MaxFrame = FrameLen + MaxPayload
)

// Request ops. The wire values are frozen: a client and server from
// different builds must agree on them.
const (
	OpAdd       = byte(1)  // admit an agent bidding t
	OpRebid     = byte(2)  // change a live agent's bid
	OpLeave     = byte(3)  // deregister an agent
	OpRate      = byte(4)  // change the total arrival rate R
	OpSeal      = byte(5)  // seal an epoch and return its aggregates
	OpEpoch     = byte(6)  // read the current sealed epoch's aggregates
	OpLoad      = byte(7)  // sealed PR allocation x_i for one agent
	OpPayment   = byte(8)  // sealed compensation-and-bonus payment
	OpPing      = byte(9)  // round trip, no effect
	OpSubscribe = byte(10) // request OpSealNotify pushes on this conn

	// OpSealNotify is response-only: the server pushes it (request id
	// 0) to subscribed connections after an epoch seals. A request
	// carrying this op is rejected by the request decoder.
	OpSealNotify = byte(11)

	// OpAckRuns opts the connection in to OpAck responses.
	OpAckRuns = byte(12)

	// OpAck is response-only: one message standing for a run of OK
	// add, rebid or leave responses (see the package comment). A
	// request carrying this op is rejected by the request decoder.
	OpAck = byte(13)
)

// ackLen is an OpAck message's length: [op][req u64][status], then
// [acked op u8][count u32][first id u64].
const ackLen = 23

// Response statuses.
const (
	StatusOK         = byte(0)
	StatusBadValue   = byte(1) // bid/rate rejected by the registry's validation
	StatusUnknownID  = byte(2) // id never assigned or no longer live
	StatusOverloaded = byte(3) // per-connection inflight bound exceeded; retry
	StatusBadRequest = byte(4) // op not servable in this context
)

// Request is one decoded request. T doubles as the rate for OpRate.
type Request struct {
	Op  byte
	Req uint64
	ID  uint64
	T   float64
}

// Response is one decoded response; which fields are meaningful
// depends on Op and Status (see the package comment). Value carries
// L* for seal/epoch ops, x for OpLoad and the compensation for
// OpPayment; Value2 carries the OpPayment bonus. An OpAck carries the
// op it acknowledges in Acked, its count in N and its first id in ID.
type Response struct {
	Op     byte
	Req    uint64
	Status byte
	Acked  byte
	ID     uint64
	Epoch  uint64
	N      uint64
	Rate   float64
	Sum    float64
	Value  float64
	Value2 float64
}

// ProtocolError is the typed decode/framing error: every malformed
// input the decoder can see maps to one of the predeclared instances
// below, so the hot path never formats or allocates an error.
type ProtocolError struct{ reason string }

func (e *ProtocolError) Error() string { return "wire: " + e.reason }

var (
	// ErrFrameEmpty rejects a zero-length payload frame.
	ErrFrameEmpty = &ProtocolError{"zero-length frame payload"}
	// ErrFrameTooBig rejects a length prefix over MaxPayload —
	// corruption (or hostility), not a message to buffer for.
	ErrFrameTooBig = &ProtocolError{"frame payload length exceeds MaxPayload"}
	// ErrFrameCRC rejects a payload whose CRC32C does not match.
	ErrFrameCRC = &ProtocolError{"frame CRC mismatch"}
	// ErrPayloadSize rejects a message cut short by the end of its
	// frame: a run must end exactly on a message boundary.
	ErrPayloadSize = &ProtocolError{"payload size does not match its op"}
	// ErrUnknownOp rejects an op byte neither side defines (including
	// OpSealNotify or OpAck in a request, which are response-only).
	ErrUnknownOp = &ProtocolError{"unknown op"}
	// ErrBadAck rejects an OpAck that stands for no run of OK
	// responses: see the package comment.
	ErrBadAck = &ProtocolError{"malformed ack"}
	// ErrBufferFull reports a Reader whose buffer is full without
	// containing one whole frame — impossible for a well-formed peer
	// when the buffer is at least MaxFrame bytes.
	ErrBufferFull = &ProtocolError{"read buffer full without a whole frame"}
)

// StatusError is a non-OK response surfaced as an error by the client
// library.
type StatusError struct {
	Op     byte
	Status byte
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("wire: op %d failed: %s", e.Op, StatusString(e.Status))
}

// StatusString names a status byte.
func StatusString(s byte) string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusBadValue:
		return "bad value"
	case StatusUnknownID:
		return "unknown id"
	case StatusOverloaded:
		return "overloaded"
	case StatusBadRequest:
		return "bad request"
	}
	return fmt.Sprintf("status %d", s)
}

// requestLayout is one request op's message layout: [op][req u64],
// then the op's u64 id if it has one, then its f64 (a bid, or the rate
// of OpRate) if it has one. A field the op lacks is read from the
// request id's bytes and masked to zero, so decoding takes no branch
// per field.
type requestLayout struct {
	n      uint8 // message length; 0 for a byte that is not a request op
	id, t  uint8 // offsets of the id and the f64 (1 when absent)
	idMask uint64
	tMask  uint64
	// err refuses a message of this op that is shorter than n bytes:
	// ErrPayloadSize, or ErrUnknownOp for a byte that is not an op.
	err error
}

// requestLayouts maps every byte to its request layout.
var requestLayouts = func() (ls [256]requestLayout) {
	for op := range ls {
		ls[op].err = ErrUnknownOp
	}
	for _, r := range []struct {
		op        byte
		id, value bool // whether the op carries a u64 id, an f64
	}{
		{OpAdd, false, true}, {OpRebid, true, true}, {OpLeave, true, false},
		{OpRate, false, true}, {OpSeal, false, false}, {OpEpoch, false, false},
		{OpLoad, true, false}, {OpPayment, true, false}, {OpPing, false, false},
		{OpSubscribe, false, false}, {OpAckRuns, false, false},
	} {
		l := requestLayout{n: 9, id: 1, t: 1, err: ErrPayloadSize}
		if r.id {
			l.id, l.idMask, l.n = l.n, math.MaxUint64, l.n+8
		}
		if r.value {
			l.t, l.tMask, l.n = l.n, math.MaxUint64, l.n+8
		}
		ls[r.op] = l
	}
	return ls
}()

// requestBody returns the op-specific byte count after [op][req u64],
// or -1 for an op that is not a request.
func requestBody(op byte) int {
	if n := requestLayouts[op].n; n != 0 {
		return int(n) - 9
	}
	return -1
}

// responseBody returns the op-specific byte count after
// [op][req u64][status], or -1 for an unknown op. A non-OK status
// always has an empty body.
func responseBody(op, status byte) int {
	if status != StatusOK {
		switch op {
		case OpAdd, OpRebid, OpLeave, OpRate, OpSeal, OpEpoch, OpLoad,
			OpPayment, OpPing, OpSubscribe, OpSealNotify, OpAckRuns:
			return 0
		}
		return -1
	}
	switch op {
	case OpAdd:
		return 8
	case OpRebid, OpLeave, OpRate, OpPing, OpSubscribe, OpAckRuns:
		return 0
	case OpSeal, OpEpoch, OpSealNotify:
		return 40
	case OpLoad, OpPayment:
		return 16
	case OpAck:
		return ackLen - 10
	}
	return -1
}

// ackValid reports whether an OpAck's fields stand for a run of OK
// responses: a nonzero count that fits in a u32, an acked add, rebid or
// leave, a first id of 0 unless the op is an add, and request-id and id
// ranges that do not wrap.
func ackValid(p *Response) bool {
	last := p.N - 1
	if p.Status != StatusOK || p.N == 0 || p.N > math.MaxUint32 || p.Req+last < p.Req {
		return false
	}
	switch p.Acked {
	case OpAdd:
		return p.ID+last >= p.ID
	case OpRebid, OpLeave:
		return p.ID == 0
	}
	return false
}

// AckShorter reports whether one OpAck standing for count OK
// responses of op is shorter than those responses sent plainly.
func AckShorter(op byte, count int) bool {
	return count*(10+responseBody(op, StatusOK)) > ackLen
}

// Framer appends messages to a caller-owned buffer. With Runs set it
// packs consecutive messages into one run frame, closing the frame
// before the next message would take its payload past MaxPayload;
// without it every message is a frame of its own. The zero value
// frames each message alone. Close seals the open frame: call it
// before the buffer is written, and before the caller reuses or
// truncates it.
type Framer struct {
	Runs bool
	fr   frame.Framer
}

// begin makes room for a size-byte message in the open frame, sealing
// a full one and opening a new one as needed.
func (f *Framer) begin(dst []byte, size int) []byte {
	if n := f.fr.Len(dst); n < 0 || n+size > MaxPayload {
		dst = f.fr.Begin(dst)
	}
	return dst
}

// Close seals the open frame, if any: payload length and CRC32C.
func (f *Framer) Close(dst []byte) []byte { return f.fr.Close(dst) }

// AppendRequest encodes q as one message appended to dst. It
// allocates only when dst lacks capacity; an op that is not a request
// returns dst unchanged with ErrUnknownOp.
func (f *Framer) AppendRequest(dst []byte, q *Request) ([]byte, error) {
	body := requestBody(q.Op)
	if body < 0 {
		return dst, ErrUnknownOp
	}
	dst = f.begin(dst, 9+body)
	dst = append(dst, q.Op)
	dst = binary.LittleEndian.AppendUint64(dst, q.Req)
	switch q.Op {
	case OpAdd, OpRate:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(q.T))
	case OpRebid:
		dst = binary.LittleEndian.AppendUint64(dst, q.ID)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(q.T))
	case OpLeave, OpLoad, OpPayment:
		dst = binary.LittleEndian.AppendUint64(dst, q.ID)
	}
	if !f.Runs {
		dst = f.Close(dst)
	}
	return dst, nil
}

// AppendResponse encodes p as one message appended to dst. It
// allocates only when dst lacks capacity; an op that is not a response
// returns dst unchanged with ErrUnknownOp, and an OpAck the decoder
// would refuse with ErrBadAck.
func (f *Framer) AppendResponse(dst []byte, p *Response) ([]byte, error) {
	if p.Op == OpAck && !ackValid(p) {
		return dst, ErrBadAck
	}
	body := responseBody(p.Op, p.Status)
	if body < 0 {
		return dst, ErrUnknownOp
	}
	dst = f.begin(dst, 10+body)
	dst = append(dst, p.Op)
	dst = binary.LittleEndian.AppendUint64(dst, p.Req)
	dst = append(dst, p.Status)
	if p.Status == StatusOK {
		switch p.Op {
		case OpAdd:
			dst = binary.LittleEndian.AppendUint64(dst, p.ID)
		case OpSeal, OpEpoch, OpSealNotify:
			dst = binary.LittleEndian.AppendUint64(dst, p.Epoch)
			dst = binary.LittleEndian.AppendUint64(dst, p.N)
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Rate))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Sum))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Value))
		case OpLoad:
			dst = binary.LittleEndian.AppendUint64(dst, p.Epoch)
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Value))
		case OpPayment:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Value))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Value2))
		case OpAck:
			dst = append(dst, p.Acked)
			dst = binary.LittleEndian.AppendUint32(dst, uint32(p.N))
			dst = binary.LittleEndian.AppendUint64(dst, p.ID)
		}
	}
	if !f.Runs {
		dst = f.Close(dst)
	}
	return dst, nil
}

// AppendRequest encodes q as a frame of its own appended to dst.
func AppendRequest(dst []byte, q *Request) ([]byte, error) {
	var f Framer
	return f.AppendRequest(dst, q)
}

// AppendResponse encodes p as a frame of its own appended to dst.
func AppendResponse(dst []byte, p *Response) ([]byte, error) {
	var f Framer
	return f.AppendResponse(dst, p)
}

// Frame scans one frame from the front of b. It returns the
// CRC-verified payload (a subslice of b — zero copy, valid while b
// is) and the whole frame's byte count. n == 0 with a nil error means
// b holds no complete frame yet: read more bytes. A structural error
// (zero or oversized length, CRC mismatch) is a *ProtocolError; the
// scan never reads past len(b).
func Frame(b []byte) (payload []byte, n int, err error) {
	payload, n, err = frame.Next(b, MaxPayload)
	switch err {
	case frame.ErrEmpty:
		err = ErrFrameEmpty
	case frame.ErrTooBig:
		err = ErrFrameTooBig
	case frame.ErrCRC:
		err = ErrFrameCRC
	}
	return payload, n, err
}

// DecodeRequest parses the request message at the front of p and
// returns it with its length. With requestLayouts it is the one
// decoder of the request layouts in the package comment, and it is
// small enough to inline into a loop that walks a run.
func DecodeRequest(p []byte) (q Request, n int, err error) {
	if len(p) < 9 {
		return q, 0, ErrPayloadSize
	}
	l := &requestLayouts[p[0]]
	if n = int(l.n); len(p) < n || n == 0 {
		return q, 0, l.err
	}
	return Request{
		Op:  p[0],
		Req: binary.LittleEndian.Uint64(p[1:]),
		ID:  binary.LittleEndian.Uint64(p[l.id:]) & l.idMask,
		T:   math.Float64frombits(binary.LittleEndian.Uint64(p[l.t:]) & l.tMask),
	}, n, nil
}

// decodeResponse parses the response message at the front of p into r
// and returns its length.
func decodeResponse(p []byte, r *Response) (int, error) {
	if len(p) < 10 {
		return 0, ErrPayloadSize
	}
	op, status := p[0], p[9]
	body := responseBody(op, status)
	if body < 0 {
		if op == OpAck {
			return 0, ErrBadAck
		}
		return 0, ErrUnknownOp
	}
	if len(p) < 10+body {
		return 0, ErrPayloadSize
	}
	*r = Response{Op: op, Req: binary.LittleEndian.Uint64(p[1:]), Status: status}
	if status != StatusOK {
		return 10, nil
	}
	rest := p[10:]
	switch op {
	case OpAdd:
		r.ID = binary.LittleEndian.Uint64(rest)
	case OpSeal, OpEpoch, OpSealNotify:
		r.Epoch = binary.LittleEndian.Uint64(rest)
		r.N = binary.LittleEndian.Uint64(rest[8:])
		r.Rate = math.Float64frombits(binary.LittleEndian.Uint64(rest[16:]))
		r.Sum = math.Float64frombits(binary.LittleEndian.Uint64(rest[24:]))
		r.Value = math.Float64frombits(binary.LittleEndian.Uint64(rest[32:]))
	case OpLoad:
		r.Epoch = binary.LittleEndian.Uint64(rest)
		r.Value = math.Float64frombits(binary.LittleEndian.Uint64(rest[8:]))
	case OpPayment:
		r.Value = math.Float64frombits(binary.LittleEndian.Uint64(rest))
		r.Value2 = math.Float64frombits(binary.LittleEndian.Uint64(rest[8:]))
	case OpAck:
		r.Acked = rest[0]
		r.N = uint64(binary.LittleEndian.Uint32(rest[1:]))
		r.ID = binary.LittleEndian.Uint64(rest[5:])
		if !ackValid(r) {
			return 0, ErrBadAck
		}
	}
	return 10 + body, nil
}

// Reader scans messages out of a byte stream through a fixed sliding
// window: Fill reads more bytes from the source, and NextRun hands out
// the next run of messages, checking its frame's CRC once, or
// NextResponse decodes the next response message. The two-call shape
// lets a server walk every complete run a wakeup delivered before
// paying the next read syscall.
type Reader struct {
	buf  []byte
	r, w int
	// end is the end of the current frame's payload: r < end while a
	// run is partly read, and r then points at its next message.
	end int
}

// NewReader returns a Reader with an n-byte window (minimum MaxFrame,
// so one whole frame always fits).
func NewReader(n int) *Reader {
	if n < MaxFrame {
		n = MaxFrame
	}
	return &Reader{buf: make([]byte, n)}
}

// Fill compacts the unread bytes to the front of the window and reads
// once from src into the free space. A partly read run moves with its
// cursor, so its unread messages survive the compaction. Fill returns
// src.Read's count and error verbatim: n may be positive alongside an
// error, in which case the bytes are valid and the error repeats on
// the next Fill.
func (rd *Reader) Fill(src io.Reader) (int, error) {
	if rd.r > 0 {
		rd.w = copy(rd.buf, rd.buf[rd.r:rd.w])
		rd.end -= rd.r
		rd.r = 0
	}
	if rd.w == len(rd.buf) {
		// A full window without a whole frame means the peer sent a
		// frame larger than the window; the scan would have rejected
		// any length over MaxPayload, so this needs window < MaxFrame,
		// which NewReader prevents.
		return 0, ErrBufferFull
	}
	n, err := src.Read(rd.buf[rd.w:])
	rd.w += n
	return n, err
}

// frame returns the unread part of the current run, scanning the next
// frame once the current one is used up. An empty result with a nil
// error means the window holds no whole frame (call Fill).
func (rd *Reader) frame() ([]byte, error) {
	if rd.r >= rd.end {
		payload, n, err := Frame(rd.buf[rd.r:rd.w])
		if err != nil || n == 0 {
			return nil, err
		}
		rd.end = rd.r + n
		rd.r = rd.end - len(payload)
	}
	return rd.buf[rd.r:rd.end], nil
}

// NextRun returns the unread messages of the next run and consumes
// them: the CRC-checked payload of the next whole frame in the window,
// or the rest of a run NextResponse has partly read. The caller walks
// the messages itself (DecodeRequest decodes one request); a run holds
// one message or several, laid end to end. The slice aliases the
// window, so it is valid until the next Fill. An empty result with a
// nil error means the window holds no further whole frame (call Fill);
// a frame that breaks the format is a *ProtocolError.
func (rd *Reader) NextRun() ([]byte, error) {
	run, err := rd.frame()
	rd.r += len(run)
	return run, err
}

// NextResponse decodes the next response message into p. It returns
// false with a nil error when the window holds no further whole frame
// (call Fill). A malformed message anywhere in a frame is a
// *ProtocolError.
func (rd *Reader) NextResponse(p *Response) (bool, error) {
	run, err := rd.frame()
	if len(run) == 0 {
		return false, err
	}
	n, err := decodeResponse(run, p)
	if err != nil {
		return false, err
	}
	rd.r += n
	return true, nil
}
