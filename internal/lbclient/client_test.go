package lbclient

import (
	"net"
	"testing"
	"time"

	"repro/internal/wire"
)

// pipeConn wires a Conn to an in-memory fake server over net.Pipe, so
// the client's framing and ordering logic is tested without a real
// server (internal/server's tests cover the integrated path).
func pipeConn(t *testing.T) (*Conn, net.Conn) {
	t.Helper()
	cs, ss := net.Pipe()
	c := newConn(cs, 4096, true)
	t.Cleanup(func() { cs.Close(); ss.Close() })
	c.SetDeadline(time.Now().Add(10 * time.Second))
	return c, ss
}

// serveFrames reads request frames off the server side and answers
// with the provided canned responses, in order.
func serveFrames(t *testing.T, ss net.Conn, responses []wire.Response) {
	t.Helper()
	go func() {
		buf := make([]byte, 64<<10)
		n, _ := ss.Read(buf)
		_ = n
		var out []byte
		for i := range responses {
			out, _ = wire.AppendResponse(out, &responses[i])
		}
		ss.Write(out)
	}()
}

func TestPipelinedQueueRecv(t *testing.T) {
	c, ss := pipeConn(t)
	r1 := c.QueueAdd(2)
	r2 := c.QueueRebid(7, 3)
	r3 := c.QueuePing()
	if r1 != 1 || r2 != 2 || r3 != 3 {
		t.Fatalf("request ids %d,%d,%d", r1, r2, r3)
	}
	if c.Outstanding() != 3 || c.Pending() == 0 {
		t.Fatalf("outstanding=%d pending=%d", c.Outstanding(), c.Pending())
	}
	serveFrames(t, ss, []wire.Response{
		{Op: wire.OpAdd, Req: 1, Status: wire.StatusOK, ID: 42},
		{Op: wire.OpRebid, Req: 2, Status: wire.StatusUnknownID},
		{Op: wire.OpPing, Req: 3, Status: wire.StatusOK},
	})
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	p, err := c.Recv()
	if err != nil || p.Req != 1 || p.ID != 42 {
		t.Fatalf("first response %+v err=%v", p, err)
	}
	p, err = c.Recv()
	if err != nil || p.Req != 2 || p.Status != wire.StatusUnknownID {
		t.Fatalf("second response %+v err=%v", p, err)
	}
	p, err = c.Recv()
	if err != nil || p.Req != 3 {
		t.Fatalf("third response %+v err=%v", p, err)
	}
	if c.Outstanding() != 0 {
		t.Fatalf("outstanding=%d after draining", c.Outstanding())
	}
}

// TestOutOfOrderDetected: a server that answers out of request order
// violates the pipelining contract and surfaces as *ErrOutOfOrder.
func TestOutOfOrderDetected(t *testing.T) {
	c, ss := pipeConn(t)
	c.QueuePing()
	c.QueuePing()
	serveFrames(t, ss, []wire.Response{
		{Op: wire.OpPing, Req: 2, Status: wire.StatusOK}, // skips id 1
	})
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	_, err := c.Recv()
	oo, ok := err.(*ErrOutOfOrder)
	if !ok || oo.Got != 2 || oo.Want != 1 {
		t.Fatalf("err=%v, want ErrOutOfOrder{2,1}", err)
	}
}

// TestNotifyDispatch: a pushed seal notification (request id 0) goes
// to OnNotify and is skipped by Recv, which returns the next real
// response.
func TestNotifyDispatch(t *testing.T) {
	c, ss := pipeConn(t)
	var got EpochInfo
	c.OnNotify = func(info EpochInfo) { got = info }
	c.QueuePing()
	serveFrames(t, ss, []wire.Response{
		{Op: wire.OpSealNotify, Req: 0, Status: wire.StatusOK, Epoch: 9, N: 3, Rate: 20, Sum: 1.5, Value: 266},
		{Op: wire.OpPing, Req: 1, Status: wire.StatusOK},
	})
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	p, err := c.Recv()
	if err != nil || p.Op != wire.OpPing {
		t.Fatalf("Recv %+v err=%v", p, err)
	}
	want := EpochInfo{Epoch: 9, N: 3, Rate: 20, Sum: 1.5, OptimalLatency: 266}
	if got != want {
		t.Fatalf("notify %+v, want %+v", got, want)
	}
}
