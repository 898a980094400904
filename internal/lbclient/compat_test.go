package lbclient

// Framing compatibility against the real server: a client that frames
// every request alone gets every response framed alone, byte for byte
// the single-message framing, while a Conn's run frames come back as
// run frames holding the same responses. And the pipelined
// queue/flush/receive cycle allocates nothing.

import (
	"bytes"
	"net"
	"testing"
	"time"

	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/wire"
)

// tapConn records every byte read through it.
type tapConn struct {
	net.Conn
	got []byte
}

func (t *tapConn) Read(p []byte) (int, error) {
	n, err := t.Conn.Read(p)
	t.got = append(t.got, p[:n]...)
	return n, err
}

// compatMaxInflight is the served connections' inflight bound: the
// last phase sends one request more.
const compatMaxInflight = 12

// compatPhases is the request sequence, one phase per write: adds,
// rebids (one a bad bid, one of an unknown id), a leave, a seal and
// sealed reads after a subscription; then, after another connection
// seals, a ping that the epoch notification precedes; then one ping
// more than the inflight bound.
func compatPhases() [][]wire.Request {
	p1 := []wire.Request{
		{Op: wire.OpSubscribe},
		{Op: wire.OpAdd, T: 2},
		{Op: wire.OpAdd, T: 3},
		{Op: wire.OpAdd, T: 5},
		{Op: wire.OpRebid, ID: 1, T: 4},
		{Op: wire.OpRebid, ID: 0, T: -1},
		{Op: wire.OpRebid, ID: 99, T: 4},
		{Op: wire.OpLeave, ID: 2},
		{Op: wire.OpSeal},
		{Op: wire.OpLoad, ID: 0},
		{Op: wire.OpPayment, ID: 1},
		{Op: wire.OpLoad, ID: 2},
	}
	p3 := []wire.Request{{Op: wire.OpPing}}
	var p4 []wire.Request
	for i := 0; i <= compatMaxInflight; i++ {
		p4 = append(p4, wire.Request{Op: wire.OpPing})
	}
	phases := [][]wire.Request{p1, p3, p4}
	req := uint64(0)
	for _, ph := range phases {
		for i := range ph {
			req++
			ph[i].Req = req
		}
	}
	return phases
}

// compatExpected answers the phases from a reference registry: the
// responses each phase must get, in order, notification included.
func compatExpected(t *testing.T) [][]wire.Response {
	t.Helper()
	ref, err := registry.New(registry.Config{Rate: 100, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	epoch := func(op byte, req uint64, s *registry.Snapshot) wire.Response {
		return wire.Response{Op: op, Req: req, Epoch: s.Epoch(), N: uint64(s.N()),
			Rate: s.Rate(), Sum: s.Sum(), Value: s.OptimalLatency()}
	}
	phases := compatPhases()
	p1 := phases[0]
	var out1 []wire.Response
	out1 = append(out1, wire.Response{Op: wire.OpSubscribe, Req: p1[0].Req})
	for _, q := range p1[1:4] {
		id, err := ref.Add(q.T)
		if err != nil {
			t.Fatal(err)
		}
		out1 = append(out1, wire.Response{Op: wire.OpAdd, Req: q.Req, ID: uint64(id)})
	}
	if err := ref.Update(1, 4); err != nil {
		t.Fatal(err)
	}
	if err := ref.Remove(2); err != nil {
		t.Fatal(err)
	}
	sealed := ref.Seal()
	x, _ := sealed.Load(0)
	comp, bonus, _ := sealed.Payment(1)
	out1 = append(out1,
		wire.Response{Op: wire.OpRebid, Req: p1[4].Req},
		wire.Response{Op: wire.OpRebid, Req: p1[5].Req, Status: wire.StatusBadValue},
		wire.Response{Op: wire.OpRebid, Req: p1[6].Req, Status: wire.StatusUnknownID},
		wire.Response{Op: wire.OpLeave, Req: p1[7].Req},
		epoch(wire.OpSeal, p1[8].Req, sealed),
		wire.Response{Op: wire.OpLoad, Req: p1[9].Req, Epoch: sealed.Epoch(), Value: x},
		wire.Response{Op: wire.OpPayment, Req: p1[10].Req, Value: comp, Value2: bonus},
		wire.Response{Op: wire.OpLoad, Req: p1[11].Req, Status: wire.StatusUnknownID},
	)
	out3 := []wire.Response{
		epoch(wire.OpSealNotify, 0, ref.Seal()),
		{Op: wire.OpPing, Req: phases[1][0].Req},
	}
	var out4 []wire.Response
	for i, q := range phases[2] {
		p := wire.Response{Op: wire.OpPing, Req: q.Req}
		if i == compatMaxInflight {
			p.Status = wire.StatusOverloaded
		}
		out4 = append(out4, p)
	}
	return [][]wire.Response{out1, out3, out4}
}

// startCompatServer serves a fresh registry and returns its address.
func startCompatServer(t *testing.T) string {
	t.Helper()
	reg, err := registry.New(registry.Config{Rate: 100, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Registry: reg, MaxInflight: compatMaxInflight})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Kill)
	return addr
}

// sealFrom seals an epoch from a second connection, so that the
// subscribed one has a notification due at its next wakeup.
func sealFrom(t *testing.T, addr string) {
	t.Helper()
	c, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := c.Seal(); err != nil {
		t.Fatal(err)
	}
}

// encodeResponses frames resps through f, closing the last frame.
func encodeResponses(t *testing.T, f wire.Framer, resps []wire.Response) []byte {
	t.Helper()
	var b []byte
	for i := range resps {
		var err error
		if b, err = f.AppendResponse(b, &resps[i]); err != nil {
			t.Fatal(err)
		}
	}
	return f.Close(b)
}

// TestSingleFrameClientGetsSingleFrames writes each phase as one
// request frame per message, as a client of the single-message framing
// does, and requires the server's bytes to be exactly one response
// frame per response.
func TestSingleFrameClientGetsSingleFrames(t *testing.T) {
	want := compatExpected(t)
	addr := startCompatServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 64<<10)
	for i, phase := range compatPhases() {
		if i == 1 {
			sealFrom(t, addr)
		}
		var out []byte
		for j := range phase {
			out, _ = wire.AppendRequest(out, &phase[j])
		}
		if _, err := conn.Write(out); err != nil {
			t.Fatal(err)
		}
		exp := encodeResponses(t, wire.Framer{}, want[i])
		var got []byte
		for len(got) < len(exp) {
			n, err := conn.Read(buf)
			if err != nil {
				t.Fatalf("phase %d: read after %d of %d bytes: %v", i, len(got), len(exp), err)
			}
			got = append(got, buf[:n]...)
		}
		if !bytes.Equal(got, exp) {
			t.Fatalf("phase %d: server sent\n%x\nwant one frame per response\n%x", i, got, exp)
		}
	}
}

// TestRunClientGetsRunFrames sends the same phases through a Conn,
// whose queue packs each phase into one run frame, and requires the
// same responses back, each phase's in one run frame.
func TestRunClientGetsRunFrames(t *testing.T) {
	want := compatExpected(t)
	addr := startCompatServer(t)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	tap := &tapConn{Conn: raw}
	c := newConn(tap, DefaultBuf, false)
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	var notes []EpochInfo
	c.OnNotify = func(e EpochInfo) { notes = append(notes, e) }
	var exp []byte
	for i, phase := range compatPhases() {
		if i == 1 {
			sealFrom(t, addr)
		}
		for _, q := range phase {
			c.queue(q.Op, q.ID, q.T)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, w := range want[i] {
			if w.Op == wire.OpSealNotify {
				continue
			}
			p, err := c.Recv()
			if err != nil {
				t.Fatalf("phase %d: %v", i, err)
			}
			if *p != w {
				t.Fatalf("phase %d: got %+v, want %+v", i, *p, w)
			}
		}
		exp = append(exp, encodeResponses(t, wire.Framer{Runs: true}, want[i])...)
	}
	if n := want[1][0]; len(notes) != 1 || notes[0] != epochInfo(&n) {
		t.Fatalf("notifications %+v, want one for epoch %d", notes, n.Epoch)
	}
	if !bytes.Equal(tap.got, exp) {
		t.Fatalf("server sent\n%x\nwant one run frame per phase\n%x", tap.got, exp)
	}
}

// TestPipelineCycleAllocFree pins a Conn's pipelined cycle — queue a
// 4096-request window of rebids, flush it, receive every response —
// at zero allocations against a live server.
func TestPipelineCycleAllocFree(t *testing.T) {
	const window = 4096
	reg, err := registry.New(registry.Config{Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Registry: reg})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Kill()
	c, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(time.Minute))
	for i := 0; i < 256; i++ {
		c.QueueAdd(float64(1 + i%7))
	}
	cycle := func() {
		for i := 0; i < window; i++ {
			c.QueueRebid(i%256, float64(1+i%5))
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		for c.Outstanding() > 0 {
			p, err := c.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if p.Status != wire.StatusOK {
				t.Fatalf("request %d: %s", p.Req, wire.StatusString(p.Status))
			}
		}
	}
	cycle() // admits the agents and warms every buffer on both sides
	if a := testing.AllocsPerRun(20, cycle); a != 0 {
		t.Fatalf("queue/flush/recv of %d requests allocates %.1f per cycle, want 0", window, a)
	}
}
