// Package wire is the framed binary protocol between the networked
// serving front end (internal/server) and its clients
// (internal/lbclient): bid admission (add/rebid/leave), arrival-rate
// changes, epoch seals, sealed-epoch queries (dispatch decisions,
// payment settlement) and epoch-seal notifications, over any byte
// stream — in practice a TCP connection.
//
// Framing reuses the WAL's idiom. Every message is
//
//	[u32 payload length][u32 CRC32C(payload)][payload]
//
// with little-endian integers throughout and payload length in
// (0, MaxPayload]. The payload starts with a one-byte op, then the
// u64 request id, then op-specific fields:
//
//	request            payload after [op][req u64]
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
//
//	response           payload after [op][req u64][status]
//	OpAdd              u64 id                      (StatusOK only)
//	OpRebid/OpLeave    —
//	OpRate/OpPing      —
//	OpSubscribe        —
//	OpSeal/OpEpoch     u64 epoch, u64 n, f64 rate, f64 S, f64 L*
//	OpSealNotify       u64 epoch, u64 n, f64 rate, f64 S, f64 L*
//	OpLoad             u64 epoch, f64 x
//	OpPayment          f64 compensation, f64 bonus
//
// A response with Status != StatusOK carries no body regardless of
// op. OpSealNotify is the one server-initiated message: a subscribed
// connection receives it with request id 0 when an epoch sealed since
// the connection's previous wakeup; every other response echoes the
// request id it answers, and responses on one connection arrive in
// request order (the pipelining contract).
//
// Encode appends to a caller-provided buffer and decode parses into a
// caller-provided flat struct, so both directions are allocation-free
// in steady state (pinned by AllocsPerRun guards). The decoder is
// fuzzed against truncated, corrupt and oversized frames: it returns
// typed *ProtocolError values and never panics or reads outside the
// frame it was handed.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

const (
	// FrameLen is the per-message framing overhead: u32 payload length
	// plus u32 CRC32C of the payload.
	FrameLen = 8
	// MaxPayload bounds a payload: every defined message fits well
	// under it, so a larger length prefix is a corrupt or hostile
	// stream, rejected before any allocation or over-read.
	MaxPayload = 64
	// MaxFrame is the largest whole message on the wire.
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
	// carrying this op is rejected by DecodeRequest.
	OpSealNotify = byte(11)
)

// Response statuses.
const (
	StatusOK         = byte(0)
	StatusBadValue   = byte(1) // bid/rate rejected by the registry's validation
	StatusUnknownID  = byte(2) // id never assigned or no longer live
	StatusOverloaded = byte(3) // per-connection inflight bound exceeded; retry
	StatusBadRequest = byte(4) // op not servable in this context
)

// crcTable is the Castagnoli polynomial (CRC32C), hardware-accelerated
// on amd64/arm64 — the same checksum the WAL frames with.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

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
// OpPayment; Value2 carries the OpPayment bonus.
type Response struct {
	Op     byte
	Req    uint64
	Status byte
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
	// ErrPayloadSize rejects a payload whose length does not match its
	// op (truncated or trailing bytes).
	ErrPayloadSize = &ProtocolError{"payload size does not match its op"}
	// ErrUnknownOp rejects an op byte neither side defines (including
	// OpSealNotify in a request, which is response-only).
	ErrUnknownOp = &ProtocolError{"unknown op"}
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

// requestBody returns the op-specific byte count after [op][req u64],
// or -1 for an op that is not a request.
func requestBody(op byte) int {
	switch op {
	case OpAdd, OpRate, OpLeave, OpLoad, OpPayment:
		return 8
	case OpRebid:
		return 16
	case OpSeal, OpEpoch, OpPing, OpSubscribe:
		return 0
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
			OpPayment, OpPing, OpSubscribe, OpSealNotify:
			return 0
		}
		return -1
	}
	switch op {
	case OpAdd:
		return 8
	case OpRebid, OpLeave, OpRate, OpPing, OpSubscribe:
		return 0
	case OpSeal, OpEpoch, OpSealNotify:
		return 40
	case OpLoad, OpPayment:
		return 16
	}
	return -1
}

// AppendRequest encodes q as one framed message appended to dst. It
// allocates only when dst lacks capacity; an op that is not a request
// returns dst unchanged with ErrUnknownOp.
func AppendRequest(dst []byte, q *Request) ([]byte, error) {
	if requestBody(q.Op) < 0 {
		return dst, ErrUnknownOp
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
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
	return sealFrame(dst, start), nil
}

// AppendResponse encodes p as one framed message appended to dst. It
// allocates only when dst lacks capacity.
func AppendResponse(dst []byte, p *Response) ([]byte, error) {
	if responseBody(p.Op, p.Status) < 0 {
		return dst, ErrUnknownOp
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
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
		}
	}
	return sealFrame(dst, start), nil
}

// sealFrame fills the reserved 8-byte header for the frame that
// starts at start: payload length and CRC32C.
func sealFrame(dst []byte, start int) []byte {
	payload := dst[start+FrameLen:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, crcTable))
	return dst
}

// Frame scans one message from the front of b. It returns the
// CRC-verified payload (a subslice of b — zero copy, valid while b
// is) and the whole frame's byte count. n == 0 with a nil error means
// b holds no complete frame yet: read more bytes. A structural error
// (zero or oversized length, CRC mismatch) is a *ProtocolError; the
// scan never reads past len(b).
func Frame(b []byte) (payload []byte, n int, err error) {
	if len(b) < FrameLen {
		return nil, 0, nil
	}
	plen := int(binary.LittleEndian.Uint32(b))
	if plen == 0 {
		return nil, 0, ErrFrameEmpty
	}
	if plen > MaxPayload {
		return nil, 0, ErrFrameTooBig
	}
	if len(b) < FrameLen+plen {
		return nil, 0, nil
	}
	payload = b[FrameLen : FrameLen+plen]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(b[4:]) {
		return nil, 0, ErrFrameCRC
	}
	return payload, FrameLen + plen, nil
}

// DecodeRequest parses a CRC-verified payload into q. Malformed
// payloads (wrong size for the op, unknown or response-only op) are
// typed *ProtocolError values; the parse never reads outside p.
func DecodeRequest(p []byte, q *Request) error {
	if len(p) < 9 {
		return ErrPayloadSize
	}
	op := p[0]
	body := requestBody(op)
	if body < 0 {
		return ErrUnknownOp
	}
	if len(p) != 9+body {
		return ErrPayloadSize
	}
	q.Op = op
	q.Req = binary.LittleEndian.Uint64(p[1:])
	q.ID, q.T = 0, 0
	rest := p[9:]
	switch op {
	case OpAdd, OpRate:
		q.T = math.Float64frombits(binary.LittleEndian.Uint64(rest))
	case OpRebid:
		q.ID = binary.LittleEndian.Uint64(rest)
		q.T = math.Float64frombits(binary.LittleEndian.Uint64(rest[8:]))
	case OpLeave, OpLoad, OpPayment:
		q.ID = binary.LittleEndian.Uint64(rest)
	}
	return nil
}

// DecodeResponse parses a CRC-verified payload into r. Malformed
// payloads are typed *ProtocolError values; the parse never reads
// outside p.
func DecodeResponse(p []byte, r *Response) error {
	if len(p) < 10 {
		return ErrPayloadSize
	}
	op, status := p[0], p[9]
	body := responseBody(op, status)
	if body < 0 {
		return ErrUnknownOp
	}
	if len(p) != 10+body {
		return ErrPayloadSize
	}
	*r = Response{Op: op, Req: binary.LittleEndian.Uint64(p[1:]), Status: status}
	if status != StatusOK {
		return nil
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
	}
	return nil
}

// Reader scans whole frames out of a byte stream through a fixed
// sliding window: Fill reads more bytes from the source, Next returns
// the next CRC-verified payload as a zero-copy subslice of the window
// (valid until the following Fill). The two-call shape lets a server
// drain every complete frame a wakeup delivered before paying the
// next read syscall.
type Reader struct {
	buf  []byte
	r, w int
}

// NewReader returns a Reader with an n-byte window (minimum MaxFrame,
// so one whole frame always fits).
func NewReader(n int) *Reader {
	if n < MaxFrame {
		n = MaxFrame
	}
	return &Reader{buf: make([]byte, n)}
}

// Fill compacts the unconsumed tail to the front of the window and
// reads once from src into the free space. It returns src.Read's
// count and error verbatim: n may be positive alongside an error, in
// which case the bytes are valid and the error repeats on the next
// Fill.
func (rd *Reader) Fill(src io.Reader) (int, error) {
	if rd.r > 0 {
		rd.w = copy(rd.buf, rd.buf[rd.r:rd.w])
		rd.r = 0
	}
	if rd.w == len(rd.buf) {
		// A full window without a whole frame means the peer sent a
		// frame larger than the window; Next would have rejected any
		// length over MaxPayload, so this needs window < MaxFrame,
		// which NewReader prevents.
		return 0, ErrBufferFull
	}
	n, err := src.Read(rd.buf[rd.w:])
	rd.w += n
	return n, err
}

// Next returns the next complete payload, or (nil, nil) when the
// window holds no whole frame (call Fill). The payload is valid only
// until the next Fill.
func (rd *Reader) Next() ([]byte, error) {
	payload, n, err := Frame(rd.buf[rd.r:rd.w])
	if err != nil || n == 0 {
		return nil, err
	}
	rd.r += n
	return payload, nil
}
