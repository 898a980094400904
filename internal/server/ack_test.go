package server

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/wire"
)

// decodeAll reads every response message out of a framed buffer.
func decodeAll(t *testing.T, b []byte) []wire.Response {
	t.Helper()
	rd := wire.NewReader(len(b))
	if _, err := rd.Fill(bytes.NewReader(b)); err != nil {
		t.Fatal(err)
	}
	var out []wire.Response
	for {
		var p wire.Response
		ok, err := rd.NextResponse(&p)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, p)
	}
}

// TestAckFolding drives the batcher's response encoding on hand-built
// batch results and pins which stretches become one wire.OpAck: OK
// results of one kind with consecutive request ids and, for adds,
// consecutive assigned ids, where the ack is shorter than the plain
// responses — and nothing without the opt-in.
func TestAckFolding(t *testing.T) {
	const (
		add   = registry.BatchAdd
		rebid = registry.BatchRebid
		leave = registry.BatchLeave
		ok    = registry.BatchOK
	)
	type result struct {
		kind registry.BatchKind
		req  uint64
		id   int
		code registry.BatchCode
	}
	plain := func(op byte, req uint64, status byte, id uint64) wire.Response {
		return wire.Response{Op: op, Req: req, Status: status, ID: id}
	}
	ack := func(op byte, req, n, id uint64) wire.Response {
		return wire.Response{Op: wire.OpAck, Req: req, Acked: op, N: n, ID: id}
	}
	const top = math.MaxUint64
	for _, tc := range []struct {
		name string
		acks bool
		res  []result
		want []wire.Response
	}{
		{"rebids", true,
			[]result{{rebid, 1, 4, ok}, {rebid, 2, 9, ok}, {rebid, 3, 4, ok}, {rebid, 4, 1, ok}, {rebid, 5, 0, ok}},
			[]wire.Response{ack(wire.OpRebid, 1, 5, 0)}},
		{"no-opt-in", false,
			[]result{{rebid, 1, 4, ok}, {rebid, 2, 9, ok}, {rebid, 3, 4, ok}, {add, 4, 7, ok}, {add, 5, 8, ok}},
			[]wire.Response{plain(wire.OpRebid, 1, 0, 0), plain(wire.OpRebid, 2, 0, 0), plain(wire.OpRebid, 3, 0, 0),
				plain(wire.OpAdd, 4, 0, 7), plain(wire.OpAdd, 5, 0, 8)}},
		{"request-id-gap", true,
			[]result{{rebid, 1, 4, ok}, {rebid, 2, 9, ok}, {rebid, 4, 4, ok}, {rebid, 5, 1, ok}, {rebid, 6, 0, ok}},
			[]wire.Response{plain(wire.OpRebid, 1, 0, 0), plain(wire.OpRebid, 2, 0, 0), ack(wire.OpRebid, 4, 3, 0)}},
		{"add-id-gap", true,
			[]result{{add, 1, 10, ok}, {add, 2, 11, ok}, {add, 3, 13, ok}, {add, 4, 14, ok}, {add, 5, 16, ok}},
			[]wire.Response{ack(wire.OpAdd, 1, 2, 10), ack(wire.OpAdd, 3, 2, 13), plain(wire.OpAdd, 5, 0, 16)}},
		{"not-ok-breaks", true,
			[]result{{rebid, 1, 4, ok}, {rebid, 2, 9, ok}, {rebid, 3, 77, registry.BatchUnknownID},
				{rebid, 4, 4, ok}, {rebid, 5, 1, ok}, {rebid, 6, 0, ok},
				{add, 7, 0, registry.BatchBadValue}, {add, 8, 3, ok}, {add, 9, 4, ok}},
			[]wire.Response{plain(wire.OpRebid, 1, 0, 0), plain(wire.OpRebid, 2, 0, 0),
				plain(wire.OpRebid, 3, wire.StatusUnknownID, 0), ack(wire.OpRebid, 4, 3, 0),
				plain(wire.OpAdd, 7, wire.StatusBadValue, 0), ack(wire.OpAdd, 8, 2, 3)}},
		{"kinds", true,
			[]result{{add, 1, 5, ok}, {add, 2, 6, ok}, {rebid, 3, 5, ok}, {rebid, 4, 6, ok}, {rebid, 5, 5, ok},
				{leave, 6, 5, ok}, {leave, 7, 6, ok}, {leave, 8, 2, ok}, {leave, 9, 3, ok}, {rebid, 10, 1, ok}},
			[]wire.Response{ack(wire.OpAdd, 1, 2, 5), ack(wire.OpRebid, 3, 3, 0), ack(wire.OpLeave, 6, 4, 0),
				plain(wire.OpRebid, 10, 0, 0)}},
		{"request-id-wrap", true,
			[]result{{rebid, top - 2, 1, ok}, {rebid, top - 1, 1, ok}, {rebid, top, 1, ok},
				{rebid, 0, 1, ok}, {rebid, 1, 1, ok}, {rebid, 2, 1, ok}},
			[]wire.Response{ack(wire.OpRebid, top-2, 3, 0), ack(wire.OpRebid, 0, 3, 0)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			met := obs.NewServerMetrics(obs.NewRegistry())
			b := batcher{acks: tc.acks}
			okMuts := 0
			for _, r := range tc.res {
				b.ops = append(b.ops, registry.BatchOp{Kind: r.kind, ID: r.id})
				b.req = append(b.req, r.req)
				b.res = append(b.res, registry.BatchResult{ID: r.id, Code: r.code})
				if r.code == ok {
					okMuts++
				}
			}
			fr := wire.Framer{Runs: true}
			got := decodeAll(t, fr.Close(b.respond(met, &fr, nil)))
			if len(got) != len(tc.want) {
				t.Fatalf("got %d messages %+v, want %d %+v", len(got), got, len(tc.want), tc.want)
			}
			var runs, acked int64
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("message %d: got %+v, want %+v", i, got[i], tc.want[i])
				}
				if got[i].Op == wire.OpAck {
					runs++
					acked += int64(got[i].N)
				}
			}
			if met.AckRuns.Value() != runs || met.Acked.Value() != acked || acked > int64(okMuts) {
				t.Fatalf("ack metrics %d runs / %d acked, want %d / %d (of %d OK)", met.AckRuns.Value(), met.Acked.Value(), runs, acked, okMuts)
			}
			served := map[byte]int64{}
			for _, r := range tc.res {
				served[opOf(r.kind)]++
			}
			for _, op := range []byte{wire.OpAdd, wire.OpRebid, wire.OpLeave} {
				if got := met.Ops.Value([]string{"", "add", "rebid", "leave"}[op]); got != served[op] {
					t.Fatalf("ops_total{op=%d} = %d, want %d", op, got, served[op])
				}
			}
		})
	}
}

// TestAckMetricsReconcile drives a seeded mix of every request op
// through an opted-in lbclient connection, with batches and inflight
// bounds small enough to split runs and overload wakeups, and
// reconciles the server's metrics with what Recv returned:
// lb_server_ops_total{op} counts each op's responses that were not
// overloads (the opt-in, which Recv skips, once), the overload counter
// the rest, and lb_server_acked_total is positive and at most the OK
// bid mutations.
func TestAckMetricsReconcile(t *testing.T) {
	met := obs.NewServerMetrics(obs.NewRegistry())
	_, addr := startServer(t, Config{Metrics: met, MaxBatch: 24, MaxInflight: 200})
	c := dial(t, addr)
	rng := rand.New(rand.NewPCG(24, 1))
	names := []string{"", "add", "rebid", "leave", "rate", "seal", "epoch", "load", "payment", "ping", "subscribe"}
	got := map[byte]int64{}
	var overloaded, okMuts int64
	admitted := 0
	for phase := 0; phase < 60; phase++ {
		n := 1 + rng.IntN(260)
		for i := 0; i < n; i++ {
			id := rng.IntN(admitted + 3)
			switch k := rng.IntN(20); {
			case k < 5:
				c.QueueAdd(0.5 + rng.Float64())
			case k < 12:
				c.QueueRebid(id, 0.5+rng.Float64())
			case k < 13:
				c.QueueLeave(id)
			case k < 14:
				c.QueueRebid(id, -1)
			case k < 15:
				c.QueueSeal()
			case k < 16:
				c.QueueLoad(id)
			case k < 17:
				c.QueuePayment(id)
			case k < 18:
				c.QueuePing()
			case k < 19:
				c.QueueEpoch()
			default:
				c.QueueSubscribe()
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		for c.Outstanding() > 0 {
			p, err := c.Recv()
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case p.Status == wire.StatusOverloaded:
				overloaded++
				continue
			case p.Status != wire.StatusOK:
			case p.Op == wire.OpAdd:
				admitted++
				okMuts++
			case p.Op == wire.OpRebid || p.Op == wire.OpLeave:
				okMuts++
			}
			got[p.Op]++
		}
	}
	for op := byte(1); op < byte(len(names)); op++ {
		if v := met.Ops.Value(names[op]); v != got[op] {
			t.Errorf("lb_server_ops_total{op=%q} = %d, Recv returned %d", names[op], v, got[op])
		}
	}
	if v := met.Ops.Value("ack_runs"); v != 1 {
		t.Errorf("lb_server_ops_total{op=\"ack_runs\"} = %d, want the one opt-in", v)
	}
	if v := met.Overloads.Value(); v != overloaded || overloaded == 0 {
		t.Errorf("overloads: metric %d, Recv saw %d (want some)", v, overloaded)
	}
	if a := met.Acked.Value(); a <= 0 || a > okMuts || met.AckRuns.Value() <= 0 {
		t.Errorf("lb_server_acked_total = %d in %d runs, want in (0, %d]", a, met.AckRuns.Value(), okMuts)
	}
}
