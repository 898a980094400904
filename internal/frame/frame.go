// Package frame is the checksummed frame format shared by the wire
// protocol (internal/wire) and the write-ahead log (internal/wal).
// Every frame is
//
//	[u32 payload length][u32 CRC32C(payload)][payload]
//
// with little-endian integers and the Castagnoli polynomial, which is
// hardware-accelerated on amd64/arm64. The package owns only the
// header and the checksum: each caller fixes its own payload bound and
// decides what a fault means (internal/wire drops the connection;
// internal/wal reads it as a torn record). Building and scanning a
// frame allocate nothing.
package frame

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// HeaderLen is the per-frame overhead: u32 payload length plus u32
// CRC32C of the payload.
const HeaderLen = 8

var table = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C of b.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, table) }

// Update returns crc extended by the CRC32C of b, for a checksum
// computed over data written in pieces.
func Update(crc uint32, b []byte) uint32 { return crc32.Update(crc, table, b) }

// The faults Next names. Each is a fixed value, so a scan never
// allocates an error.
var (
	// ErrEmpty is a header claiming a zero-length payload.
	ErrEmpty = errors.New("frame: zero-length payload")
	// ErrTooBig is a header claiming a payload over the caller's bound.
	ErrTooBig = errors.New("frame: payload length over the bound")
	// ErrCRC is a payload whose CRC32C does not match its header.
	ErrCRC = errors.New("frame: CRC mismatch")
)

// Next scans one frame from the front of b, whose payload may be at
// most limit bytes. It returns the CRC-verified payload (a subslice of
// b, valid while b is) and the whole frame's byte count. n == 0 with a
// nil error means b holds no complete frame yet. The length is checked
// against limit from the header alone, before any payload byte is
// needed, and the scan never reads past len(b).
func Next(b []byte, limit int) (payload []byte, n int, err error) {
	if len(b) < HeaderLen {
		return nil, 0, nil
	}
	claimed := binary.LittleEndian.Uint32(b)
	if claimed == 0 {
		return nil, 0, ErrEmpty
	}
	// Bound the length before converting it: on a 32-bit build, int of
	// a claimed 2^31 bytes or more is negative.
	if uint64(claimed) > uint64(limit) {
		return nil, 0, ErrTooBig
	}
	plen := int(claimed)
	if len(b) < HeaderLen+plen {
		return nil, 0, nil
	}
	payload = b[HeaderLen : HeaderLen+plen]
	if Checksum(payload) != binary.LittleEndian.Uint32(b[4:]) {
		return nil, 0, ErrCRC
	}
	return payload, HeaderLen + plen, nil
}

// Framer builds frames at the end of a caller-owned buffer: Begin
// reserves a frame's header, the caller appends the payload in as many
// pieces as it likes, and Close fills the header with the payload's
// length and checksum. The zero value has no frame open. Close the open
// frame before the buffer is written, and before the caller reuses or
// truncates it; a Framer whose buffer was truncated under an open frame
// must be reset to its zero value.
type Framer struct {
	open  bool
	start int // offset of the open frame's header in the buffer
}

// Begin seals the open frame, if any, and opens a new one at the end
// of dst.
func (f *Framer) Begin(dst []byte) []byte {
	dst = f.Close(dst)
	f.open, f.start = true, len(dst)
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
}

// Len returns the payload bytes the open frame holds in dst, or -1
// when no frame is open.
func (f *Framer) Len(dst []byte) int {
	if !f.open {
		return -1
	}
	return len(dst) - f.start - HeaderLen
}

// Close seals the open frame, if any, with one length and one checksum
// over everything appended since Begin.
func (f *Framer) Close(dst []byte) []byte {
	if f.open {
		payload := dst[f.start+HeaderLen:]
		binary.LittleEndian.PutUint32(dst[f.start:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(dst[f.start+4:], Checksum(payload))
		f.open = false
	}
	return dst
}
