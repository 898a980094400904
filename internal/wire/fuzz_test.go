package wire

import (
	"bytes"
	"testing"
)

// FuzzWireDecode throws arbitrary bytes at the frame scanner and both
// payload decoders. Invariants pinned:
//
//   - no panic, and no read outside the handed slice (the fuzzer's
//     address sanitizer would catch one);
//   - every structural failure is one of the typed *ProtocolError
//     sentinels;
//   - the scanner's progress claim is consistent: n > 0 only with a
//     non-nil payload that lies inside the consumed frame;
//   - any payload that decodes successfully re-encodes to the exact
//     frame bytes just consumed (canonical encoding, both directions).
func FuzzWireDecode(f *testing.F) {
	// Well-formed frames of every op/status shape, plus structural
	// mutants, seed the corpus.
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

			var q Request
			if derr := DecodeRequest(payload, &q); derr == nil {
				re, rerr := AppendRequest(nil, &q)
				if rerr != nil || !bytes.Equal(re, frame) {
					t.Fatalf("request re-encode diverged: %x vs %x (err %v)", re, frame, rerr)
				}
			} else if _, ok := derr.(*ProtocolError); !ok {
				t.Fatalf("DecodeRequest returned untyped error %T: %v", derr, derr)
			}

			var p Response
			if derr := DecodeResponse(payload, &p); derr == nil {
				re, rerr := AppendResponse(nil, &p)
				if rerr != nil || !bytes.Equal(re, frame) {
					t.Fatalf("response re-encode diverged: %x vs %x (err %v)", re, frame, rerr)
				}
			} else if _, ok := derr.(*ProtocolError); !ok {
				t.Fatalf("DecodeResponse returned untyped error %T: %v", derr, derr)
			}

			b = b[n:]
		}
	})
}
