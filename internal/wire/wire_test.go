package wire

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"slices"
	"testing"
)

// sampleRequests covers every request op with non-trivial field
// values (including a bid whose float bits exercise all bytes).
func sampleRequests() []Request {
	return []Request{
		{Op: OpAdd, Req: 1, T: 0.1234567891011},
		{Op: OpRebid, Req: 2, ID: 77, T: math.Pi},
		{Op: OpLeave, Req: 3, ID: 1 << 40},
		{Op: OpRate, Req: 4, T: 1e6},
		{Op: OpSeal, Req: 5},
		{Op: OpEpoch, Req: 6},
		{Op: OpLoad, Req: 7, ID: 0},
		{Op: OpPayment, Req: 8, ID: 999},
		{Op: OpPing, Req: 1 << 63},
		{Op: OpSubscribe, Req: 10},
		{Op: OpAckRuns, Req: 0},
	}
}

// sampleResponses covers every response op and status shape.
func sampleResponses() []Response {
	return []Response{
		{Op: OpAdd, Req: 1, Status: StatusOK, ID: 42},
		{Op: OpAdd, Req: 2, Status: StatusBadValue},
		{Op: OpRebid, Req: 3, Status: StatusOK},
		{Op: OpRebid, Req: 4, Status: StatusUnknownID},
		{Op: OpLeave, Req: 5, Status: StatusOK},
		{Op: OpRate, Req: 6, Status: StatusOK},
		{Op: OpSeal, Req: 7, Status: StatusOK, Epoch: 12, N: 3, Rate: 20, Sum: 1.5, Value: 266.6666},
		{Op: OpEpoch, Req: 8, Status: StatusOK, Epoch: 1, N: 0, Rate: 0, Sum: 0, Value: 0},
		{Op: OpSealNotify, Req: 0, Status: StatusOK, Epoch: 99, N: 7, Rate: 5, Sum: 2, Value: 12.5},
		{Op: OpLoad, Req: 9, Status: StatusOK, Epoch: 12, Value: 0.25},
		{Op: OpLoad, Req: 10, Status: StatusUnknownID},
		{Op: OpPayment, Req: 11, Status: StatusOK, Value: 13.3, Value2: 44.4},
		{Op: OpPing, Req: 12, Status: StatusOK},
		{Op: OpSubscribe, Req: 13, Status: StatusOK},
		{Op: OpRebid, Req: 14, Status: StatusOverloaded},
		{Op: OpAckRuns, Req: 0, Status: StatusOK},
		{Op: OpAck, Req: 15, Status: StatusOK, Acked: OpAdd, N: 2, ID: 43},
		{Op: OpAck, Req: 17, Status: StatusOK, Acked: OpRebid, N: 4096},
		{Op: OpAck, Req: 1<<64 - 3, Status: StatusOK, Acked: OpLeave, N: 3},
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for _, q := range sampleRequests() {
		buf, err := AppendRequest(nil, &q)
		if err != nil {
			t.Fatalf("AppendRequest(%+v): %v", q, err)
		}
		payload, n, err := Frame(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("Frame: n=%d err=%v (want %d, nil)", n, err, len(buf))
		}
		got, m, err := DecodeRequest(payload)
		if err != nil || m != len(payload) {
			t.Fatalf("DecodeRequest(%+v): %d of %d bytes, err=%v", q, m, len(payload), err)
		}
		if got != q {
			t.Fatalf("round trip: got %+v want %+v", got, q)
		}
		// Re-encoding the decoded request must reproduce the exact
		// frame bytes (the canonical-encoding property the fuzzer
		// also pins).
		re, err := AppendRequest(nil, &got)
		if err != nil || !bytes.Equal(re, buf) {
			t.Fatalf("re-encode diverged: %x vs %x (err %v)", re, buf, err)
		}
	}

	// Every sample again, as one run frame.
	reqs := sampleRequests()
	f := Framer{Runs: true}
	var run []byte
	for i := range reqs {
		var err error
		if run, err = f.AppendRequest(run, &reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	run = f.Close(run)
	payload, n, err := Frame(run)
	if err != nil || n != len(run) {
		t.Fatalf("run Frame: n=%d err=%v (want %d, nil)", n, err, len(run))
	}
	for i, want := range reqs {
		got, m, err := DecodeRequest(payload)
		if err != nil || got != want {
			t.Fatalf("run message %d: got %+v err=%v, want %+v", i, got, err, want)
		}
		payload = payload[m:]
	}
	if len(payload) != 0 {
		t.Fatalf("run has %d bytes after its last message", len(payload))
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for _, p := range sampleResponses() {
		buf, err := AppendResponse(nil, &p)
		if err != nil {
			t.Fatalf("AppendResponse(%+v): %v", p, err)
		}
		payload, n, err := Frame(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("Frame: n=%d err=%v", n, err)
		}
		var got Response
		if m, err := decodeResponse(payload, &got); err != nil || m != len(payload) {
			t.Fatalf("decodeResponse(%+v): %d of %d bytes, err=%v", p, m, len(payload), err)
		}
		want := p
		if p.Status != StatusOK {
			// Non-OK responses carry no body: field values are not
			// round-tripped.
			want = Response{Op: p.Op, Req: p.Req, Status: p.Status}
		}
		if got != want {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
		re, err := AppendResponse(nil, &got)
		if err != nil || !bytes.Equal(re, buf) {
			t.Fatalf("re-encode diverged: %x vs %x (err %v)", re, buf, err)
		}
	}

	// Every sample again, as one run frame.
	resps := sampleResponses()
	f := Framer{Runs: true}
	var run []byte
	for i := range resps {
		var err error
		if run, err = f.AppendResponse(run, &resps[i]); err != nil {
			t.Fatal(err)
		}
	}
	run = f.Close(run)
	payload, n, err := Frame(run)
	if err != nil || n != len(run) {
		t.Fatalf("run Frame: n=%d err=%v (want %d, nil)", n, err, len(run))
	}
	for i, p := range resps {
		want := p
		if p.Status != StatusOK {
			want = Response{Op: p.Op, Req: p.Req, Status: p.Status}
		}
		var got Response
		m, err := decodeResponse(payload, &got)
		if err != nil || got != want {
			t.Fatalf("run message %d: got %+v err=%v, want %+v", i, got, err, want)
		}
		payload = payload[m:]
	}
	if len(payload) != 0 {
		t.Fatalf("run has %d bytes after its last message", len(payload))
	}
}

// TestFramerSplitsAtMaxPayload: a Framer with Runs set fills each frame
// up to MaxPayload and opens the next only when a message would not
// fit, so every frame but the last is within one message of the bound,
// and the messages come back in order.
func TestFramerSplitsAtMaxPayload(t *testing.T) {
	const n = 4096
	f := Framer{Runs: true}
	var buf []byte
	for i := 0; i < n; i++ {
		q := Request{Op: OpRebid, Req: uint64(i + 1), ID: uint64(i), T: 1.5}
		if i%3 == 0 {
			q = Request{Op: OpPing, Req: uint64(i + 1)}
		}
		buf, _ = f.AppendRequest(buf, &q)
	}
	buf = f.Close(buf)
	frames, next := 0, uint64(1)
	for rest := buf; len(rest) > 0; {
		payload, m, err := Frame(rest)
		if err != nil || m == 0 {
			t.Fatalf("frame %d: n=%d err=%v", frames, m, err)
		}
		if rest = rest[m:]; len(rest) > 0 && len(payload) <= MaxPayload-25 {
			t.Fatalf("frame %d closed at %d payload bytes with room for another rebid", frames, len(payload))
		}
		for len(payload) > 0 {
			q, k, err := DecodeRequest(payload)
			if err != nil || q.Req != next {
				t.Fatalf("frame %d: request %d err=%v, want %d", frames, q.Req, err, next)
			}
			payload, next = payload[k:], next+1
		}
		frames++
	}
	if next != n+1 || frames < 2 {
		t.Fatalf("decoded %d requests in %d frames, want %d in several", next-1, frames, n)
	}
}

func TestFrameErrors(t *testing.T) {
	good, _ := AppendRequest(nil, &Request{Op: OpPing, Req: 1})

	// Incomplete prefixes: need more bytes, no error.
	for cut := 0; cut < len(good); cut++ {
		payload, n, err := Frame(good[:cut])
		if payload != nil || n != 0 || err != nil {
			t.Fatalf("cut=%d: got (%v,%d,%v), want incomplete", cut, payload, n, err)
		}
	}

	// Zero-length payload.
	var zero [FrameLen]byte
	if _, _, err := Frame(zero[:]); err != ErrFrameEmpty {
		t.Fatalf("zero-length: err=%v", err)
	}

	// Oversized length prefix rejected before buffering; a prefix of
	// exactly MaxPayload asks for more bytes.
	big := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(big, MaxPayload+1)
	if _, _, err := Frame(big); err != ErrFrameTooBig {
		t.Fatalf("oversized: err=%v", err)
	}
	binary.LittleEndian.PutUint32(big, MaxPayload)
	if payload, n, err := Frame(big); payload != nil || n != 0 || err != nil {
		t.Fatalf("MaxPayload prefix: got (%v,%d,%v), want incomplete", payload, n, err)
	}

	// Flipped payload bit fails the CRC.
	bad := append([]byte(nil), good...)
	bad[FrameLen] ^= 0x40
	if _, _, err := Frame(bad); err != ErrFrameCRC {
		t.Fatalf("corrupt: err=%v", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	var p Response

	// Response-only op in a request.
	notify, _ := AppendResponse(nil, &Response{Op: OpSealNotify, Status: StatusOK, Epoch: 1})
	payload, _, err := Frame(notify)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeRequest(payload); err != ErrUnknownOp {
		t.Fatalf("OpSealNotify as request: err=%v", err)
	}

	// A message cut short; a trailing byte is left for the next
	// message, which TestReaderRejectsMalformedRun rejects.
	add, _ := AppendRequest(nil, &Request{Op: OpAdd, Req: 1, T: 1})
	payload, _, _ = Frame(add)
	if _, _, err := DecodeRequest(payload[:len(payload)-1]); err != ErrPayloadSize {
		t.Fatalf("truncated add: err=%v", err)
	}
	if _, m, err := DecodeRequest(append(append([]byte(nil), payload...), 0)); err != nil || m != len(payload) {
		t.Fatalf("trailing byte: consumed %d, err=%v; want %d, nil", m, err, len(payload))
	}
	if _, _, err := DecodeRequest(nil); err != ErrPayloadSize {
		t.Fatalf("empty: err=%v", err)
	}

	if _, err := decodeResponse([]byte{OpAdd}, &p); err != ErrPayloadSize {
		t.Fatalf("short response: err=%v", err)
	}
	if _, err := decodeResponse([]byte{200, 0, 0, 0, 0, 0, 0, 0, 0, 0}, &p); err != ErrUnknownOp {
		t.Fatalf("unknown response op: err=%v", err)
	}
	// AppendRequest refuses non-request ops.
	if _, err := AppendRequest(nil, &Request{Op: OpSealNotify}); err != ErrUnknownOp {
		t.Fatalf("append response-only op: err=%v", err)
	}
}

// TestAckDecodeErrors: an OpAck that stands for no run of OK add,
// rebid or leave responses is an ErrBadAck, both ways — the decoder
// refuses its bytes and the encoder refuses to write it — and OpAck
// or any other response-only op in a request is an ErrUnknownOp.
func TestAckDecodeErrors(t *testing.T) {
	good := Response{Op: OpAck, Req: 5, Status: StatusOK, Acked: OpAdd, N: 3, ID: 9}
	msg, err := (&Framer{Runs: true}).AppendResponse(nil, &good)
	if err != nil || len(msg) != FrameLen+ackLen {
		t.Fatalf("good ack: %d bytes, err=%v; want %d", len(msg), err, FrameLen+ackLen)
	}
	msg = msg[FrameLen:]
	var p Response
	if m, err := decodeResponse(msg, &p); err != nil || m != ackLen || p != good {
		t.Fatalf("good ack decodes to %+v (%d bytes, err=%v)", p, m, err)
	}
	for _, tc := range []struct {
		name string
		edit func(b []byte)
	}{
		{"count-zero", func(b []byte) { binary.LittleEndian.PutUint32(b[11:], 0) }},
		{"acked-seal", func(b []byte) { b[10] = OpSeal }},
		{"acked-ping", func(b []byte) { b[10] = OpPing }},
		{"acked-ack", func(b []byte) { b[10] = OpAck }},
		{"acked-unknown", func(b []byte) { b[10] = 200 }},
		{"rebid-with-id", func(b []byte) { b[10] = OpRebid }},
		{"leave-with-id", func(b []byte) { b[10] = OpLeave }},
		{"req-range-wraps", func(b []byte) { binary.LittleEndian.PutUint64(b[1:], 1<<64-2) }},
		{"id-range-wraps", func(b []byte) { binary.LittleEndian.PutUint64(b[15:], 1<<64-2) }},
		{"status-not-ok", func(b []byte) { b[9] = StatusUnknownID }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := append([]byte(nil), msg...)
			tc.edit(b)
			var p Response
			if _, err := decodeResponse(b, &p); err != ErrBadAck {
				t.Fatalf("decode: err=%v, want ErrBadAck", err)
			}
			// The same fields, handed to the encoder.
			q := good
			q.Req = binary.LittleEndian.Uint64(b[1:])
			q.Status, q.Acked = b[9], b[10]
			q.N = uint64(binary.LittleEndian.Uint32(b[11:]))
			q.ID = binary.LittleEndian.Uint64(b[15:])
			if out, err := AppendResponse(nil, &q); err != ErrBadAck || len(out) != 0 {
				t.Fatalf("encode: %d bytes, err=%v, want ErrBadAck", len(out), err)
			}
		})
	}
	// The last request of an ack may be the largest id; one past it
	// wraps. A count too large for the u32 field cannot be encoded.
	edge := Response{Op: OpAck, Req: 1<<64 - 3, Status: StatusOK, Acked: OpRebid, N: 3}
	if _, err := AppendResponse(nil, &edge); err != nil {
		t.Fatalf("ack ending at the largest request id: %v", err)
	}
	edge.N = 4
	if _, err := AppendResponse(nil, &edge); err != ErrBadAck {
		t.Fatalf("ack past the largest request id: err=%v", err)
	}
	edge.Req, edge.N = 1, 1<<32
	if _, err := AppendResponse(nil, &edge); err != ErrBadAck {
		t.Fatalf("ack count over u32: err=%v", err)
	}

	// Response-only ops in a request.
	for _, op := range []byte{OpAck, OpSealNotify} {
		b := append([]byte{op}, make([]byte, 8+ackLen)...)
		if _, _, err := DecodeRequest(b); err != ErrUnknownOp {
			t.Fatalf("op %d as a request: err=%v", op, err)
		}
		if _, err := AppendRequest(nil, &Request{Op: op}); err != ErrUnknownOp {
			t.Fatalf("append op %d as a request: err=%v", op, err)
		}
	}
}

// TestAckShorter pins where an ack pays: from three rebids or leaves,
// and from two adds.
func TestAckShorter(t *testing.T) {
	for _, tc := range []struct {
		op    byte
		count int
		want  bool
	}{
		{OpRebid, 2, false}, {OpRebid, 3, true}, {OpLeave, 2, false}, {OpLeave, 3, true},
		{OpAdd, 1, false}, {OpAdd, 2, true}, {OpRebid, 4096, true},
	} {
		if got := AckShorter(tc.op, tc.count); got != tc.want {
			t.Errorf("AckShorter(%d, %d) = %v, want %v", tc.op, tc.count, got, tc.want)
		}
	}
}

// walkRuns reads every whole run in rd's window with NextRun and
// decodes each run's requests in turn, as a server wakeup does. It
// returns the requests and the number each run held.
func walkRuns(rd *Reader) (got []Request, lens []int, err error) {
	for {
		run, err := rd.NextRun()
		if len(run) == 0 {
			return got, lens, err
		}
		k := 0
		for ; len(run) > 0; k++ {
			q, n, err := DecodeRequest(run)
			if err != nil {
				return got, lens, err
			}
			got, run = append(got, q), run[n:]
		}
		lens = append(lens, k)
	}
}

// TestReaderStream feeds a concatenated stream through a Reader in
// adversarially small chunks and checks every frame comes out intact
// and in order.
func TestReaderStream(t *testing.T) {
	var stream []byte
	reqs := sampleRequests()
	for i := range reqs {
		var err error
		stream, err = AppendRequest(stream, &reqs[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, chunk := range []int{1, 2, 3, 7, 16, len(stream)} {
		rd := NewReader(0)
		src := &chunkReader{data: stream, chunk: chunk}
		var got []Request
		for {
			more, _, err := walkRuns(rd)
			if err != nil {
				t.Fatalf("chunk %d: NextRun: %v", chunk, err)
			}
			got = append(got, more...)
			if n, err := rd.Fill(src); n == 0 && err != nil {
				break // EOF
			}
		}
		if len(got) != len(reqs) {
			t.Fatalf("chunk %d: got %d frames, want %d", chunk, len(got), len(reqs))
		}
		for i := range reqs {
			if got[i] != reqs[i] {
				t.Fatalf("chunk %d: frame %d: got %+v want %+v", chunk, i, got[i], reqs[i])
			}
		}
	}
}

// TestReaderRuns reads a stream of single frames and run frames through
// a Reader: every message comes out in order, and each NextRun hands
// out exactly one frame's messages, however the stream was cut. A Fill
// between two responses of a run keeps the rest of the run readable,
// by NextResponse and by NextRun.
func TestReaderRuns(t *testing.T) {
	reqs := sampleRequests()
	var stream []byte
	for i := 0; i < 3; i++ {
		stream, _ = AppendRequest(stream, &reqs[i])
	}
	single := len(stream)
	f := Framer{Runs: true}
	for i := range reqs {
		stream, _ = f.AppendRequest(stream, &reqs[i])
	}
	stream = f.Close(stream)
	want := append(append([]Request(nil), reqs[:3]...), reqs...)
	wantLens := []int{1, 1, 1, len(reqs)}

	for _, chunk := range []int{1, 5, single, len(stream)} {
		rd := NewReader(0)
		src := &chunkReader{data: stream, chunk: chunk}
		var got []Request
		var lens []int
		for {
			more, k, err := walkRuns(rd)
			if err != nil {
				t.Fatalf("chunk %d: NextRun: %v", chunk, err)
			}
			got, lens = append(got, more...), append(lens, k...)
			if n, err := rd.Fill(src); n == 0 && err != nil {
				break
			}
		}
		if len(got) != len(want) {
			t.Fatalf("chunk %d: got %d messages, want %d", chunk, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("chunk %d: message %d: got %+v want %+v", chunk, i, got[i], want[i])
			}
		}
		if !slices.Equal(lens, wantLens) {
			t.Fatalf("chunk %d: runs of %v messages, want %v", chunk, lens, wantLens)
		}
	}

	// A response run read partly, then a Fill, then the rest.
	resps := sampleResponses()
	fr := Framer{Runs: true}
	var run []byte
	for i := range resps {
		run, _ = fr.AppendResponse(run, &resps[i])
	}
	run = fr.Close(run)
	for _, rest := range []string{"NextResponse", "NextRun"} {
		rd := NewReader(0)
		src := &chunkReader{data: append(append([]byte(nil), run...), run...), chunk: len(run) + 3}
		rd.Fill(src)
		var got []Response
		for len(got) < 2 {
			var p Response
			if ok, err := rd.NextResponse(&p); !ok || err != nil {
				t.Fatalf("%s: response %d: ok=%v err=%v", rest, len(got), ok, err)
			}
			got = append(got, p)
		}
		rd.Fill(src) // compacts the window under the partly read run
		if rest == "NextRun" {
			b, err := rd.NextRun()
			if err != nil {
				t.Fatal(err)
			}
			for len(b) > 0 {
				var p Response
				n, err := decodeResponse(b, &p)
				if err != nil {
					t.Fatal(err)
				}
				got, b = append(got, p), b[n:]
			}
		}
		for len(got) < len(resps) {
			var p Response
			if ok, err := rd.NextResponse(&p); !ok || err != nil {
				t.Fatalf("%s: response %d: ok=%v err=%v", rest, len(got), ok, err)
			}
			got = append(got, p)
		}
		if !slices.Equal(got, resps) {
			t.Fatalf("%s: got %+v, want %+v", rest, got, resps)
		}
		// The second copy of the run is whole in the window.
		if b, err := rd.NextRun(); err != nil || len(b) != len(run)-FrameLen {
			t.Fatalf("%s: next run %d bytes, err=%v; want %d", rest, len(b), err, len(run)-FrameLen)
		}
	}
}

// TestReaderRejectsMalformedRun: a CRC-valid run cut mid-message, or
// holding an unknown op between good messages, is a *ProtocolError at
// the bad message, after the good ones before it.
func TestReaderRejectsMalformedRun(t *testing.T) {
	good, _ := AppendRequest(nil, &Request{Op: OpRebid, Req: 1, ID: 2, T: 3})
	msg := good[FrameLen:]
	for _, tc := range []struct {
		name    string
		payload []byte
		want    error
	}{
		{"cut-mid-message", append(append([]byte(nil), msg...), msg[:len(msg)-3]...), ErrPayloadSize},
		{"unknown-op", append(append(append([]byte(nil), msg...), 200, 0, 0, 0, 0, 0, 0, 0, 0), msg...), ErrUnknownOp},
		{"trailing-byte", append(append([]byte(nil), msg...), OpPing), ErrPayloadSize},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frame := rawFrame(tc.payload)
			rd := NewReader(0)
			if _, err := rd.Fill(&chunkReader{data: frame, chunk: len(frame)}); err != nil {
				t.Fatal(err)
			}
			got, lens, err := walkRuns(rd)
			if len(got) != 1 || got[0].Req != 1 || lens != nil || err != tc.want {
				t.Fatalf("got %+v in runs %v, err=%v; want the first message, then %v", got, lens, err, tc.want)
			}
		})
	}
}

// crcTable is the test's own CRC32C table, so the frames rawFrame
// builds check the shared codec rather than reuse it.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// rawFrame frames an arbitrary payload with a valid header and CRC.
func rawFrame(payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, crcTable))
	return append(b, payload...)
}

type chunkReader struct {
	data  []byte
	chunk int
	off   int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if c.off >= len(c.data) {
		return 0, errEOF
	}
	n := c.chunk
	if n > len(p) {
		n = len(p)
	}
	if n > len(c.data)-c.off {
		n = len(c.data) - c.off
	}
	copy(p, c.data[c.off:c.off+n])
	c.off += n
	return n, nil
}

var errEOF = &ProtocolError{"test EOF"}

// TestWireEncodeAllocFree pins the encode hot path, single frames and
// runs, at zero allocations once the destination buffer has capacity.
func TestWireEncodeAllocFree(t *testing.T) {
	q := Request{Op: OpRebid, Req: 9, ID: 3, T: 1.25}
	p := Response{Op: OpRebid, Req: 9, Status: StatusOK}
	f := Framer{Runs: true}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(200, func() {
		buf = buf[:0]
		var err error
		if buf, err = AppendRequest(buf, &q); err != nil {
			t.Fatal(err)
		}
		if buf, err = AppendResponse(buf, &p); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if buf, err = f.AppendRequest(buf, &q); err != nil {
				t.Fatal(err)
			}
			if buf, err = f.AppendResponse(buf, &p); err != nil {
				t.Fatal(err)
			}
		}
		buf = f.Close(buf)
	}); n != 0 {
		t.Fatalf("encode allocates %.1f/op, want 0", n)
	}
}

// TestWireDecodeAllocFree pins the frame-scan + decode hot path, and
// a Reader draining a run, at zero allocations.
func TestWireDecodeAllocFree(t *testing.T) {
	var stream []byte
	var err error
	stream, err = AppendRequest(stream, &Request{Op: OpRebid, Req: 1, ID: 4, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	stream, err = AppendResponse(stream, &Response{Op: OpSeal, Req: 2, Status: StatusOK, Epoch: 3, N: 4, Rate: 5, Sum: 6, Value: 7})
	if err != nil {
		t.Fatal(err)
	}
	var q Request
	var p Response
	if n := testing.AllocsPerRun(200, func() {
		payload, n1, err := Frame(stream)
		if err != nil {
			t.Fatal(err)
		}
		if q, _, err = DecodeRequest(payload); err != nil {
			t.Fatal(err)
		}
		payload, _, err = Frame(stream[n1:])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeResponse(payload, &p); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("decode allocates %.1f/op, want 0", n)
	}
	if q.ID != 4 || p.Epoch != 3 {
		t.Fatalf("decoded %+v and %+v", q, p)
	}

	f := Framer{Runs: true}
	var run []byte
	for i := 0; i < 64; i++ {
		run, _ = f.AppendRequest(run, &Request{Op: OpRebid, Req: uint64(i + 1), ID: 4, T: 2})
	}
	run = f.Close(run)
	rd := NewReader(0)
	src := &chunkReader{chunk: len(run)}
	if n := testing.AllocsPerRun(200, func() {
		src.data, src.off = run, 0
		if _, err := rd.Fill(src); err != nil {
			t.Fatal(err)
		}
		b, err := rd.NextRun()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			q, m, err := DecodeRequest(b)
			if err != nil || q.Req != uint64(i+1) {
				t.Fatalf("run message %d: request %d, err=%v", i, q.Req, err)
			}
			b = b[m:]
		}
		if len(b) != 0 {
			t.Fatalf("%d bytes left after the run", len(b))
		}
	}); n != 0 {
		t.Fatalf("run decode allocates %.1f/op, want 0", n)
	}
}
