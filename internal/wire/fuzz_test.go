package wire

import (
	"bytes"
	"testing"
)

// FuzzWireDecode throws arbitrary bytes at the frame scanner and both
// message decoders. Invariants pinned:
//
//   - no panic, and no read outside the handed slice (the fuzzer's
//     address sanitizer would catch one);
//   - every structural failure is one of the typed *ProtocolError
//     sentinels;
//   - the scanner's progress claim is consistent: n > 0 only with a
//     non-nil payload that lies inside the consumed frame;
//   - every message of a frame is decoded, as requests and as
//     responses, and a run that decodes to its last byte re-encodes
//     to the exact frame bytes just consumed (canonical encoding, both
//     directions): through a run Framer always, and through the
//     single-message encoder when the run holds one message.
func FuzzWireDecode(f *testing.F) {
	// Well-formed frames of every op/status shape, single and in runs,
	// plus structural mutants, seed the corpus.
	var seed []byte
	for _, q := range sampleRequests() {
		seed, _ = AppendRequest(seed, &q)
	}
	f.Add(seed)
	var stream []byte
	for _, p := range sampleResponses() {
		stream, _ = AppendResponse(stream, &p)
	}
	f.Add(stream)
	one, _ := AppendRequest(nil, &Request{Op: OpRebid, Req: 7, ID: 3, T: 2.5})
	f.Add(one)
	f.Add(one[:len(one)-1])                   // truncated tail
	f.Add(append([]byte(nil), one[1:]...))    // shifted start
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})     // zero-length payload
	f.Add([]byte{255, 255, 0, 0, 1, 2, 3, 4}) // oversized length prefix
	corrupt := append([]byte(nil), one...)
	corrupt[FrameLen] ^= 0x01
	f.Add(corrupt) // CRC mismatch
	f.Add([]byte{})
	reqRun, respRun := requestRun(), responseRun()
	f.Add(reqRun)
	f.Add(respRun)
	msg := one[FrameLen:]
	f.Add(rawFrame(append(append([]byte(nil), reqRun[FrameLen:]...), msg[:len(msg)-5]...))) // run cut mid-message
	f.Add(rawFrame(append(append(append([]byte(nil), msg...), 200, 7, 0, 0, 0, 0, 0, 0, 0), msg...)))

	f.Fuzz(func(t *testing.T, data []byte) {
		b := data
		for len(b) > 0 {
			payload, n, err := Frame(b)
			if err != nil {
				if _, ok := err.(*ProtocolError); !ok {
					t.Fatalf("Frame returned untyped error %T: %v", err, err)
				}
				if payload != nil || n != 0 {
					t.Fatalf("Frame error with progress: payload=%v n=%d", payload, n)
				}
				return
			}
			if n == 0 {
				if payload != nil {
					t.Fatalf("incomplete frame with non-nil payload")
				}
				return // need more bytes
			}
			if n < FrameLen+1 || n > len(b) || len(payload) != n-FrameLen {
				t.Fatalf("inconsistent scan: n=%d len(payload)=%d len(b)=%d", n, len(payload), len(b))
			}
			frame := b[:n]
			checkRequestRun(t, payload, frame)
			checkResponseRun(t, payload, frame)
			b = b[n:]
		}
	})
}

// checkRequestRun decodes every request message of a frame's payload
// and, when the whole run decodes, re-encodes it.
func checkRequestRun(t *testing.T, payload, frame []byte) {
	var msgs []Request
	for p := payload; len(p) > 0; {
		q, m, err := DecodeRequest(p)
		if err != nil {
			if _, ok := err.(*ProtocolError); !ok {
				t.Fatalf("request decode returned untyped error %T: %v", err, err)
			}
			return
		}
		if m <= 0 || m > len(p) {
			t.Fatalf("request decode consumed %d of %d bytes", m, len(p))
		}
		msgs, p = append(msgs, q), p[m:]
	}
	f := Framer{Runs: true}
	var re []byte
	for i := range msgs {
		var err error
		if re, err = f.AppendRequest(re, &msgs[i]); err != nil {
			t.Fatalf("re-encode request %+v: %v", msgs[i], err)
		}
	}
	if re = f.Close(re); !bytes.Equal(re, frame) {
		t.Fatalf("request run re-encode diverged: %x vs %x", re, frame)
	}
	if len(msgs) == 1 {
		if re, err := AppendRequest(nil, &msgs[0]); err != nil || !bytes.Equal(re, frame) {
			t.Fatalf("request re-encode diverged: %x vs %x (err %v)", re, frame, err)
		}
	}
}

// checkResponseRun is checkRequestRun for responses.
func checkResponseRun(t *testing.T, payload, frame []byte) {
	var msgs []Response
	for p := payload; len(p) > 0; {
		var r Response
		m, err := decodeResponse(p, &r)
		if err != nil {
			if _, ok := err.(*ProtocolError); !ok {
				t.Fatalf("response decode returned untyped error %T: %v", err, err)
			}
			return
		}
		if m <= 0 || m > len(p) {
			t.Fatalf("response decode consumed %d of %d bytes", m, len(p))
		}
		msgs, p = append(msgs, r), p[m:]
	}
	f := Framer{Runs: true}
	var re []byte
	for i := range msgs {
		var err error
		if re, err = f.AppendResponse(re, &msgs[i]); err != nil {
			t.Fatalf("re-encode response %+v: %v", msgs[i], err)
		}
	}
	if re = f.Close(re); !bytes.Equal(re, frame) {
		t.Fatalf("response run re-encode diverged: %x vs %x", re, frame)
	}
	if len(msgs) == 1 {
		if re, err := AppendResponse(nil, &msgs[0]); err != nil || !bytes.Equal(re, frame) {
			t.Fatalf("response re-encode diverged: %x vs %x (err %v)", re, frame, err)
		}
	}
}

// requestRun and responseRun are every sample request or response as
// one run frame.
func requestRun() []byte {
	f := Framer{Runs: true}
	var b []byte
	for _, q := range sampleRequests() {
		b, _ = f.AppendRequest(b, &q)
	}
	return f.Close(b)
}

func responseRun() []byte {
	f := Framer{Runs: true}
	var b []byte
	for _, p := range sampleResponses() {
		b, _ = f.AppendResponse(b, &p)
	}
	return f.Close(b)
}
