package lbclient

// Acknowledged runs: a Conn opts in with its first message, and every
// wire.OpAck the server sends comes out of Recv as the responses it
// stands for, so a caller cannot tell an opted-in connection from one
// that gets every response plainly.

import (
	"bytes"
	"math"
	"math/rand/v2"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/wire"
)

// TestAckExpansion: Recv skips the opt-in's response and returns each
// ack as the plain responses it stands for, ids counting up for adds.
func TestAckExpansion(t *testing.T) {
	c, ss := pipeConn(t)
	for i := 0; i < 3; i++ {
		c.QueueAdd(2)
	}
	for i := 0; i < 3; i++ {
		c.QueueRebid(i, 3)
	}
	c.QueuePing()
	serveFrames(t, ss, []wire.Response{
		{Op: wire.OpAckRuns, Req: 0},
		{Op: wire.OpAck, Req: 1, Acked: wire.OpAdd, N: 3, ID: 40},
		{Op: wire.OpAck, Req: 4, Acked: wire.OpRebid, N: 3},
		{Op: wire.OpPing, Req: 7},
	})
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	want := []wire.Response{
		{Op: wire.OpAdd, Req: 1, ID: 40}, {Op: wire.OpAdd, Req: 2, ID: 41}, {Op: wire.OpAdd, Req: 3, ID: 42},
		{Op: wire.OpRebid, Req: 4}, {Op: wire.OpRebid, Req: 5}, {Op: wire.OpRebid, Req: 6},
		{Op: wire.OpPing, Req: 7},
	}
	for i, w := range want {
		p, err := c.Recv()
		if err != nil || *p != w {
			t.Fatalf("response %d: %+v err=%v, want %+v", i, p, err, w)
		}
	}
	if c.Outstanding() != 0 {
		t.Fatalf("outstanding=%d after draining", c.Outstanding())
	}
}

// TestAckOutOfOrder: an ack whose first request id is not the next one
// expected violates the pipelining contract.
func TestAckOutOfOrder(t *testing.T) {
	c, ss := pipeConn(t)
	for i := 0; i < 4; i++ {
		c.QueueRebid(i, 3)
	}
	serveFrames(t, ss, []wire.Response{
		{Op: wire.OpRebid, Req: 1},
		{Op: wire.OpAck, Req: 3, Acked: wire.OpRebid, N: 3}, // skips id 2
	})
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if p, err := c.Recv(); err != nil || p.Req != 1 {
		t.Fatalf("first response %+v err=%v", p, err)
	}
	_, err := c.Recv()
	if oo, ok := err.(*ErrOutOfOrder); !ok || oo.Got != 3 || oo.Want != 2 {
		t.Fatalf("err=%v, want ErrOutOfOrder{3,2}", err)
	}
}

// TestAckClientGetsAcks is TestRunClientGetsRunFrames for a Conn that
// opts in: the same responses come out of Recv, and on the wire the
// opt-in's response leads the first run frame and the three adds of
// the first phase are one ack.
func TestAckClientGetsAcks(t *testing.T) {
	want := compatExpected(t)
	addr := startCompatServer(t)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	tap := &tapConn{Conn: raw}
	c := newConn(tap, DefaultBuf, true)
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	c.OnNotify = func(EpochInfo) {}
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
		onWire := want[i]
		if i == 0 {
			adds := want[0][1:4]
			onWire = append([]wire.Response{{Op: wire.OpAckRuns}, want[0][0],
				{Op: wire.OpAck, Req: adds[0].Req, Acked: wire.OpAdd, N: 3, ID: adds[0].ID}}, want[0][4:]...)
		}
		exp = append(exp, encodeResponses(t, wire.Framer{Runs: true}, onWire)...)
	}
	if !bytes.Equal(tap.got, exp) {
		t.Fatalf("server sent\n%x\nwant\n%x", tap.got, exp)
	}
}

// Bounds of the differential's servers: batches split runs, and a
// phase longer than ackMaxInflight is partly overloaded.
const (
	ackMaxBatch    = 16
	ackMaxInflight = 200
	// ackPhaseMax keeps every phase inside one run frame (300 rebids of
	// 25 bytes, plus the opt-in), so the server decodes a phase in one
	// wakeup and its overloads do not depend on how reads split it.
	ackPhaseMax = 300
)

// startAckServer serves a fresh registry with the differential's
// bounds and returns its address and metrics.
func startAckServer(t *testing.T) (string, *obs.ServerMetrics, *registry.Registry) {
	t.Helper()
	reg, err := registry.New(registry.Config{Rate: 50, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	met := obs.NewServerMetrics(obs.NewRegistry())
	srv := server.New(server.Config{Registry: reg, Metrics: met, MaxBatch: ackMaxBatch, MaxInflight: ackMaxInflight})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Kill)
	return addr, met, reg
}

// ackPhase is one flush of a request stream, and whether another
// connection seals before it is sent.
type ackPhase struct {
	reqs     []wire.Request
	sealFrom bool
}

// ackStream generates a seeded request stream: runs of adds, rebids
// and leaves (among them bad bids, ids never assigned and departed
// ids) between seals, loads, payments, pings, epoch reads and
// subscriptions, in phases up to ackPhaseMax long.
func ackStream(seed uint64) []ackPhase {
	rng := rand.New(rand.NewPCG(seed, 24))
	adds := 0
	bid := func() float64 {
		if rng.IntN(25) == 0 {
			return []float64{-1, 0, math.Inf(1), math.NaN()}[rng.IntN(4)]
		}
		return 0.25 + 4*rng.Float64()
	}
	phases := make([]ackPhase, 40)
	for i := range phases {
		n := 1 + rng.IntN(ackPhaseMax)
		ph := &phases[i]
		ph.sealFrom = i > 0 && rng.IntN(5) == 0
		for len(ph.reqs) < n {
			run := min(1+rng.IntN(40), n-len(ph.reqs))
			switch k := rng.IntN(10); {
			case k < 3:
				for j := 0; j < run; j++ {
					ph.reqs = append(ph.reqs, wire.Request{Op: wire.OpAdd, T: bid()})
					adds++
				}
			case k < 6:
				base := rng.IntN(adds + 8)
				for j := 0; j < run; j++ {
					ph.reqs = append(ph.reqs, wire.Request{Op: wire.OpRebid, ID: uint64(base + j%5), T: bid()})
				}
			case k < 7:
				base := rng.IntN(adds + 8)
				for j := 0; j < run; j++ {
					ph.reqs = append(ph.reqs, wire.Request{Op: wire.OpLeave, ID: uint64(base + j)})
				}
			default:
				op := []byte{wire.OpSeal, wire.OpLoad, wire.OpPayment, wire.OpPing, wire.OpEpoch, wire.OpSubscribe}[rng.IntN(6)]
				ph.reqs = append(ph.reqs, wire.Request{Op: op, ID: uint64(rng.IntN(adds + 8))})
			}
		}
	}
	return phases
}

// ackRecv is what a run of a stream returned: every response Recv
// gave, and every epoch OnNotify was handed.
type ackRecv struct {
	resps []wire.Response
	notes []EpochInfo
}

// runAckStream sends the phases over a fresh server through a Conn
// that opts in or not, and returns what Recv returned, the bytes the
// server sent and its metrics.
func runAckStream(t *testing.T, phases []ackPhase, ackRuns bool) (ackRecv, []byte, *obs.ServerMetrics) {
	t.Helper()
	addr, met, _ := startAckServer(t)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	tap := &tapConn{Conn: raw}
	c := newConn(tap, DefaultBuf, ackRuns)
	defer c.Close()
	c.SetDeadline(time.Now().Add(30 * time.Second))
	var out ackRecv
	c.OnNotify = func(e EpochInfo) { out.notes = append(out.notes, e) }
	for i, ph := range phases {
		if ph.sealFrom {
			sealFrom(t, addr)
		}
		for _, q := range ph.reqs {
			c.queue(q.Op, q.ID, q.T)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		for c.Outstanding() > 0 {
			p, err := c.Recv()
			if err != nil {
				t.Fatalf("phase %d: %v", i, err)
			}
			out.resps = append(out.resps, *p)
		}
	}
	return out, tap.got, met
}

// countAcks returns the OpAck messages in a stream of response frames.
func countAcks(t *testing.T, b []byte) int {
	t.Helper()
	rd := wire.NewReader(len(b))
	if _, err := rd.Fill(bytes.NewReader(b)); err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		var p wire.Response
		ok, err := rd.NextResponse(&p)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return n
		}
		if p.Op == wire.OpAck {
			n++
		}
	}
}

// TestAckRunsInvisibleAboveRecv is the acks' differential: the same
// seeded request streams, sent to fresh servers through a Conn that
// opts in and through one that does not, come back from Recv equal
// field for field, notifications included — and the tap on the
// opted-in connection shows that acks were sent, and overloads and
// batches split the stream.
func TestAckRunsInvisibleAboveRecv(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		phases := ackStream(seed)
		plain, plainBytes, _ := runAckStream(t, phases, false)
		acked, ackedBytes, met := runAckStream(t, phases, true)
		if n := countAcks(t, plainBytes); n != 0 {
			t.Fatalf("seed %d: %d acks sent to a connection that did not opt in", seed, n)
		}
		if len(acked.resps) != len(plain.resps) {
			t.Fatalf("seed %d: %d responses with acks, %d without", seed, len(acked.resps), len(plain.resps))
		}
		statuses := map[byte]int{}
		for i := range plain.resps {
			if acked.resps[i] != plain.resps[i] {
				t.Fatalf("seed %d: response %d is %+v with acks, %+v without", seed, i, acked.resps[i], plain.resps[i])
			}
			statuses[plain.resps[i].Status]++
		}
		if len(acked.notes) != len(plain.notes) || len(plain.notes) == 0 {
			t.Fatalf("seed %d: %d notifications with acks, %d without (want some)", seed, len(acked.notes), len(plain.notes))
		}
		for i := range plain.notes {
			if acked.notes[i] != plain.notes[i] {
				t.Fatalf("seed %d: notification %d is %+v with acks, %+v without", seed, i, acked.notes[i], plain.notes[i])
			}
		}
		acks := countAcks(t, ackedBytes)
		if acks == 0 || int64(acks) != met.AckRuns.Value() {
			t.Fatalf("seed %d: %d acks on the wire, lb_server_ack_runs_total %d (want equal, positive)", seed, acks, met.AckRuns.Value())
		}
		for _, s := range []byte{wire.StatusOK, wire.StatusBadValue, wire.StatusUnknownID, wire.StatusOverloaded} {
			if statuses[s] == 0 {
				t.Fatalf("seed %d: no %s response; statuses %v", seed, wire.StatusString(s), statuses)
			}
		}
		if len(ackedBytes) >= len(plainBytes) {
			t.Fatalf("seed %d: acks made the responses %d bytes, %d without", seed, len(ackedBytes), len(plainBytes))
		}
	}
}

// TestAckConcurrentAdds admits agents over two opted-in connections at
// once, so their batches interleave and the ids each gets depend on
// scheduling: every id Recv returns must be distinct, and the next
// seal must hold the bid its add sent.
func TestAckConcurrentAdds(t *testing.T) {
	addr, met, reg := startAckServer(t)
	const conns, rounds, window = 2, 20, ackMaxInflight
	type admitted struct {
		id  uint64
		bid float64
	}
	got := make([][]admitted, conns)
	errs := make(chan error, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs <- func() error {
				c, err := Dial(addr, 0)
				if err != nil {
					return err
				}
				defer c.Close()
				c.SetDeadline(time.Now().Add(30 * time.Second))
				k := 0
				for r := 0; r < rounds; r++ {
					bids := make([]float64, window)
					for i := range bids {
						bids[i] = 1 + float64(w*rounds*window+k)/(1<<20)
						c.QueueAdd(bids[i])
						k++
					}
					if err := c.Flush(); err != nil {
						return err
					}
					for _, bid := range bids {
						p, err := c.Recv()
						if err != nil {
							return err
						}
						if p.Op != wire.OpAdd || p.Status != wire.StatusOK {
							return &wire.StatusError{Op: p.Op, Status: p.Status}
						}
						got[w] = append(got[w], admitted{p.ID, bid})
					}
				}
				return nil
			}()
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Seal()
	seen := map[uint64]bool{}
	for w := range got {
		for _, a := range got[w] {
			if seen[a.id] {
				t.Fatalf("id %d returned twice", a.id)
			}
			seen[a.id] = true
			if v, ok := snap.Value(int(a.id)); !ok || v != a.bid {
				t.Fatalf("conn %d: id %d sealed as %v (%v), its add bid %v", w, a.id, v, ok, a.bid)
			}
		}
	}
	if len(seen) != conns*rounds*window || snap.N() != len(seen) {
		t.Fatalf("%d distinct ids, %d sealed agents, want %d", len(seen), snap.N(), conns*rounds*window)
	}
	if met.AckRuns.Value() == 0 {
		t.Fatal("no acks sent for the adds")
	}
}
