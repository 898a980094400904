package wire

import "testing"

// runLen is the message count of the benchmarks' run case: a client's
// 4096-request pipeline window, which a Framer splits into frames of
// up to MaxPayload bytes.
const runLen = 4096

// BenchmarkWireEncode measures the request encode hot path (append
// into a reused buffer), per message: a frame of its own, and inside a
// 4096-message run whose frame headers and CRCs are paid at each frame
// close. Must be 0 allocs/op.
func BenchmarkWireEncode(b *testing.B) {
	q := Request{Op: OpRebid, Req: 1, ID: 42, T: 2.5}
	b.Run("frame", func(b *testing.B) {
		buf := make([]byte, 0, 256)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = buf[:0]
			q.Req = uint64(i)
			buf, _ = AppendRequest(buf, &q)
		}
		if len(buf) == 0 {
			b.Fatal("encoded nothing")
		}
	})
	b.Run("run", func(b *testing.B) {
		f := Framer{Runs: true}
		buf := make([]byte, 0, runLen*32)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%runLen == 0 {
				buf = f.Close(buf)[:0]
			}
			q.Req = uint64(i)
			buf, _ = f.AppendRequest(buf, &q)
		}
		if len(f.Close(buf)) == 0 {
			b.Fatal("encoded nothing")
		}
	})
}

// BenchmarkWireDecode measures the frame-scan + decode hot path, per
// message: a frame of its own (scan, CRC, decode), and a 4096-message
// run walked through a Reader, which checks each frame's CRC once and
// hands out its messages with NextRun. Must be 0 allocs/op.
func BenchmarkWireDecode(b *testing.B) {
	b.Run("frame", func(b *testing.B) {
		frame, err := AppendRequest(nil, &Request{Op: OpRebid, Req: 1, ID: 42, T: 2.5})
		if err != nil {
			b.Fatal(err)
		}
		var q Request
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			payload, _, err := Frame(frame)
			if err != nil {
				b.Fatal(err)
			}
			if q, _, err = DecodeRequest(payload); err != nil {
				b.Fatal(err)
			}
		}
		if q.ID != 42 {
			b.Fatal("decode corrupted")
		}
	})
	b.Run("run", func(b *testing.B) {
		f := Framer{Runs: true}
		var run []byte
		for i := 0; i < runLen; i++ {
			run, _ = f.AppendRequest(run, &Request{Op: OpRebid, Req: uint64(i + 1), ID: 42, T: 2.5})
		}
		run = f.Close(run)
		rd := NewReader(len(run))
		src := &chunkReader{chunk: len(run)}
		var q Request
		var msgs []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(msgs) == 0 {
				var err error
				if msgs, err = rd.NextRun(); err != nil {
					b.Fatal(err)
				}
				if len(msgs) == 0 {
					src.data, src.off = run, 0
					rd.Fill(src)
					i--
					continue
				}
			}
			var n int
			var err error
			if q, n, err = DecodeRequest(msgs); err != nil {
				b.Fatal(err)
			}
			msgs = msgs[n:]
		}
		if q.ID != 42 {
			b.Fatal("decode corrupted")
		}
	})
}
