package frame

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"
)

// crcTable is the test's own CRC32C table, so the frames build writes
// check Checksum rather than reuse it.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// build frames payload as [u32 len][u32 CRC32C][payload].
func build(payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, crcTable))
	return append(b, payload...)
}

// TestNext scans frames cut at every byte, empty, at and over the
// bound, corrupt and followed by more bytes, under one 16-byte bound.
func TestNext(t *testing.T) {
	const limit = 16
	payload := []byte("fifteen bytes!!")
	good := build(payload)
	atLimit := build(bytes.Repeat([]byte{0xa5}, limit))

	for cut := 0; cut < len(good); cut++ {
		if p, n, err := Next(good[:cut], limit); p != nil || n != 0 || err != nil {
			t.Fatalf("cut at %d of %d bytes: got (%q, %d, %v), want (nil, 0, nil)", cut, len(good), p, n, err)
		}
	}

	flipped := append([]byte(nil), good...)
	flipped[HeaderLen+4] ^= 0x10
	header := func(claimed uint32) []byte {
		return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, claimed), 0)
	}
	overLimit := header(limit + 1)
	for _, tc := range []struct {
		name    string
		b       []byte
		payload []byte
		n       int
		err     error
	}{
		{"zero-length", append(make([]byte, HeaderLen), good...), nil, 0, ErrEmpty},
		{"over-limit-header-only", overLimit, nil, 0, ErrTooBig},
		// A 32-bit int holds neither claim: each must be refused from
		// the header alone, not converted to a negative length.
		{"claims-2^31-header-only", header(1 << 31), nil, 0, ErrTooBig},
		{"claims-2^32-1-header-only", header(math.MaxUint32), nil, 0, ErrTooBig},
		{"at-limit", atLimit, atLimit[HeaderLen:], len(atLimit), nil},
		{"flipped-bit", flipped, nil, 0, ErrCRC},
		{"followed-by-more", append(append([]byte(nil), good...), atLimit...), payload, len(good), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, n, err := Next(tc.b, limit)
			if err != tc.err || n != tc.n || !bytes.Equal(p, tc.payload) || (p == nil) != (tc.payload == nil) {
				t.Fatalf("got (%q, %d, %v), want (%q, %d, %v)", p, n, err, tc.payload, tc.n, tc.err)
			}
		})
	}
}

// TestFramer builds frames from several appended pieces each, with
// every frame but the last sealed by the Begin of the next, and checks
// the bytes against build and the scan back through Next.
func TestFramer(t *testing.T) {
	var f Framer
	prefix := []byte("prefix")
	if got := f.Close(prefix); &got[0] != &prefix[0] || len(got) != len(prefix) || string(got) != "prefix" || f.Len(got) != -1 {
		t.Fatalf("Close with no frame open: got %q, Len %d", got, f.Len(got))
	}

	frames := [][]string{{"a"}, {"two ", "pieces"}, {"three", " small ", "pieces"}}
	buf := append([]byte(nil), prefix...)
	want := append([]byte(nil), prefix...)
	var payloads []string
	for _, pieces := range frames {
		buf = f.Begin(buf)
		var payload []byte
		for _, piece := range pieces {
			buf = append(buf, piece...)
			payload = append(payload, piece...)
			if f.Len(buf) != len(payload) {
				t.Fatalf("Len %d after appending %q, want %d", f.Len(buf), payload, len(payload))
			}
		}
		want = append(want, build(payload)...)
		payloads = append(payloads, string(payload))
	}
	buf = f.Close(buf)
	if f.Len(buf) != -1 || !bytes.Equal(f.Close(buf), want) {
		t.Fatalf("built %x, want %x", buf, want)
	}

	rest := buf[len(prefix):]
	for i, payload := range payloads {
		p, n, err := Next(rest, 64)
		if err != nil || string(p) != payload {
			t.Fatalf("frame %d: got (%q, %d, %v), want %q", i, p, n, err, payload)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes after the last frame", len(rest))
	}
}

// TestFrameAllocFree pins Begin, Close and Next at zero allocations once
// the buffer has capacity.
func TestFrameAllocFree(t *testing.T) {
	var f Framer
	msg := []byte("a sixteen-byte m")
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(200, func() {
		buf = f.Begin(buf[:0])
		buf = append(buf, msg...)
		buf = f.Begin(buf)
		buf = append(buf, msg...)
		buf = append(buf, msg...)
		buf = f.Close(buf)
		for rest := buf; len(rest) > 0; {
			_, m, err := Next(rest, 64)
			if err != nil || m == 0 {
				t.Fatalf("scan: n=%d err=%v", m, err)
			}
			rest = rest[m:]
		}
	}); n != 0 {
		t.Fatalf("framing allocates %.1f/op, want 0", n)
	}
}
