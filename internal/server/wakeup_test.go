package server

import (
	"bytes"
	"io"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/wire"
)

// FuzzServeWakeup sends a request stream, cut into reads, through
// wakeup and through the per-message oracle (oracleWakeup), each
// serving a fresh registry, and requires the two to agree:
//
//   - the same response bytes from each wakeup;
//   - the same protocol error, from the same wakeup, after the same
//     response bytes;
//   - the same journal calls (so the same WAL bytes), the same sealed
//     epoch and the same per-id bids;
//   - the same lb_server_* metrics.
//
// MaxBatch is 1+batch and MaxInflight 1+inflight. Each byte of cuts
// sizes one read (1 to 254 bytes; 255 reads all the window takes, as
// does an empty cuts), and the sizes repeat. The stream is a sequence
// of pieces: a length byte L ≥ 1 and then a payload of up to L bytes,
// which the harness frames with a valid header and CRC32C, so the
// fuzzer mutates messages instead of breaking checksums; L = 0 sends
// the rest of the stream as it is.
func FuzzServeWakeup(f *testing.F) {
	for _, s := range wakeupSeeds() {
		f.Add(s.batch, s.inflight, s.cuts, s.stream)
	}
	f.Fuzz(func(t *testing.T, batch, inflight uint8, cuts, stream []byte) {
		checkWakeups(t, 1+int(batch), 1+int(inflight), cuts, framePieces(stream))
	})
}

// wakeupSeed is one FuzzServeWakeup corpus entry.
type wakeupSeed struct {
	batch, inflight uint8
	cuts, stream    []byte
}

// wakeupSeeds are the corpus: the framing and boundary cases where a
// walk could answer differently from the per-message loop, then a
// long seeded stream of every op.
func wakeupSeeds() []wakeupSeed {
	var s []wakeupSeed
	// A MaxBatch drain inside the connection's first multi-message
	// frame: two single-frame adds are pending when the run's first
	// rebid flips the connection to run framing and fills the batch,
	// so all three answers share one run frame.
	e := encoder{}
	e.run(wire.Request{Op: wire.OpAdd, Req: 1, T: 1})
	e.run(wire.Request{Op: wire.OpAdd, Req: 2, T: 2})
	e.run(
		wire.Request{Op: wire.OpRebid, Req: 3, ID: 0, T: 3},
		wire.Request{Op: wire.OpRebid, Req: 4, ID: 1, T: 4},
		wire.Request{Op: wire.OpAdd, Req: 5, T: 5},
		wire.Request{Op: wire.OpPing, Req: 6},
	)
	s = append(s, wakeupSeed{batch: 2, inflight: 255, stream: e.raw()})
	// The same stream with the single frames and the run in separate
	// reads.
	s = append(s, wakeupSeed{batch: 2, inflight: 255, cuts: []byte{29, 254}, stream: e.raw()})

	// MaxInflight (5) crossed mid-run: the sixth request, the third of
	// the second run, and every one after it are overloaded.
	e = encoder{}
	e.run(adds(1, 3)...)
	e.run(
		wire.Request{Op: wire.OpRebid, Req: 4, ID: 0, T: 9},
		wire.Request{Op: wire.OpSeal, Req: 5},
		wire.Request{Op: wire.OpRebid, Req: 6, ID: 1, T: 9},
		wire.Request{Op: wire.OpLoad, Req: 7, ID: 1},
		wire.Request{Op: wire.OpLeave, Req: 8, ID: 2},
	)
	s = append(s, wakeupSeed{batch: 255, inflight: 4, stream: e.raw()})

	// The ack-runs opt-in: the runs of OK adds, rebids and leaves after
	// it come back as acks, and it takes no inflight slot, so with
	// MaxInflight 20 the first request overloaded is the 21st after it.
	e = encoder{}
	e.run(wire.Request{Op: wire.OpAckRuns})
	msgs := adds(1, 10)
	for i := 0; i < 10; i++ {
		msgs = append(msgs, wire.Request{Op: wire.OpRebid, Req: uint64(11 + i), ID: uint64(i), T: 0.5})
	}
	msgs = append(msgs,
		wire.Request{Op: wire.OpSeal, Req: 21},
		wire.Request{Op: wire.OpPayment, Req: 22, ID: 3},
		wire.Request{Op: wire.OpLeave, Req: 23, ID: 4},
		wire.Request{Op: wire.OpLeave, Req: 24, ID: 5},
		wire.Request{Op: wire.OpLeave, Req: 25, ID: 6},
	)
	e.run(msgs...)
	s = append(s, wakeupSeed{batch: 7, inflight: 19, stream: e.raw()})

	// A bid cut short at the end of a run, after a seal that drained
	// the adds before it.
	e = encoder{}
	e.run(append(adds(1, 2), wire.Request{Op: wire.OpSeal, Req: 3}, wire.Request{Op: wire.OpRebid, Req: 4, ID: 1, T: 3})...)
	cut := e.payloads[0]
	s = append(s, wakeupSeed{batch: 255, inflight: 255, stream: piece(cut[:len(cut)-3])})

	// An unknown op mid-run, between a drained seal and a bid.
	e = encoder{}
	e.run(append(adds(1, 2), wire.Request{Op: wire.OpSeal, Req: 3})...)
	e.run(wire.Request{Op: wire.OpAdd, Req: 5, T: 1})
	bad := append(append([]byte(nil), e.payloads[0]...), 200, 4, 0, 0, 0, 0, 0, 0, 0)
	s = append(s, wakeupSeed{batch: 255, inflight: 255, stream: piece(append(bad, e.payloads[1]...))})

	// A long seeded stream of every request op, valid and not, in
	// single frames and in runs, read in ragged pieces.
	s = append(s, wakeupSeed{batch: 15, inflight: 99, cuts: []byte{200, 31, 254, 7, 90}, stream: randomStream(27, 600)})
	return s
}

// adds returns n adds with request ids from first.
func adds(first uint64, n int) []wire.Request {
	out := make([]wire.Request, n)
	for i := range out {
		out[i] = wire.Request{Op: wire.OpAdd, Req: first + uint64(i), T: 1 + float64(i)}
	}
	return out
}

// encoder builds a request stream frame by frame (a frame of one
// request is a single frame), remembering each frame's payload.
type encoder struct {
	b        []byte
	payloads [][]byte
}

func (e *encoder) run(qs ...wire.Request) {
	f := wire.Framer{Runs: true}
	start := len(e.b)
	for i := range qs {
		var err error
		if e.b, err = f.AppendRequest(e.b, &qs[i]); err != nil {
			panic(err)
		}
	}
	e.b = f.Close(e.b)
	e.payloads = append(e.payloads, e.b[start+wire.FrameLen:])
}

// raw returns the stream as a FuzzServeWakeup input sent as it is.
func (e *encoder) raw() []byte { return append([]byte{0}, e.b...) }

// piece returns a FuzzServeWakeup input framing payload (at most 255
// bytes) as one frame.
func piece(payload []byte) []byte {
	if len(payload) == 0 || len(payload) > 255 {
		panic("piece: payload length out of range")
	}
	return append([]byte{byte(len(payload))}, payload...)
}

// randomStream returns n seeded random requests — every request op,
// bids that fail validation, unknown ids — as a raw FuzzServeWakeup
// input, in single frames and runs of up to 40 messages.
func randomStream(seed uint64, n int) []byte {
	rng := rand.New(rand.NewPCG(seed, 1))
	e := encoder{}
	e.run(wire.Request{Op: wire.OpAckRuns})
	ops := []byte{wire.OpAdd, wire.OpAdd, wire.OpRebid, wire.OpRebid, wire.OpRebid, wire.OpLeave,
		wire.OpRate, wire.OpSeal, wire.OpEpoch, wire.OpLoad, wire.OpPayment, wire.OpPing, wire.OpSubscribe}
	for req := uint64(1); req <= uint64(n); {
		k := 1 + rng.IntN(40)
		qs := make([]wire.Request, 0, k)
		for ; k > 0 && req <= uint64(n); k-- {
			q := wire.Request{Op: ops[rng.IntN(len(ops))], Req: req, ID: uint64(rng.IntN(int(req/2 + 3))), T: 0.25 + rng.Float64()}
			switch rng.IntN(40) {
			case 0:
				q.T = -1
			case 1:
				q.T = math.NaN()
			case 2:
				q.ID = 1<<63 + 5
			case 3:
				q.ID = 1<<32 + 1 // agent 1's id plus 2^32
			}
			if q.Op == wire.OpRate {
				q.T *= 100
			}
			qs = append(qs, q)
			// Mostly consecutive request ids, so OK bids fold into
			// acks; sometimes a gap, which ends an ack.
			if req++; rng.IntN(30) == 0 {
				req++
			}
		}
		e.run(qs...)
	}
	return e.raw()
}

// framePieces turns a FuzzServeWakeup stream into wire bytes: each
// piece's payload framed with a valid header and checksum, and the
// rest after a zero length byte appended as it is.
func framePieces(stream []byte) []byte {
	var out []byte
	var fr frame.Framer
	for len(stream) > 0 {
		l := int(stream[0])
		stream = stream[1:]
		if l == 0 {
			return append(out, stream...)
		}
		l = min(l, len(stream))
		out = fr.Begin(out)
		out = fr.Close(append(out, stream[:l]...))
		stream = stream[l:]
	}
	return out
}

// cutReader delivers data in reads sized by cuts (see FuzzServeWakeup).
type cutReader struct {
	data []byte
	cuts []byte
	i    int
}

func (c *cutReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := len(p)
	if len(c.cuts) > 0 {
		if k := int(c.cuts[c.i%len(c.cuts)]); k < 255 {
			n = min(n, k)
		}
		c.i++
	}
	n = copy(p, c.data[:min(n, len(c.data))])
	c.data = c.data[n:]
	return n, nil
}

// wakeupSide is one server of the differential: a fresh registry with
// a recording journal, its metrics, and one connection's session.
type wakeupSide struct {
	srv  *Server
	reg  *registry.Registry
	obs  *obs.Registry
	jr   *recordJournal
	ss   *session
	src  *cutReader
	wbuf []byte
}

func newWakeupSide(t testing.TB, maxBatch, maxInflight int, cuts, data []byte) *wakeupSide {
	jr := &recordJournal{}
	reg, err := registry.New(registry.Config{Rate: 100, Shards: 4, Journal: jr})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewRegistry()
	srv := New(Config{Registry: reg, MaxBatch: maxBatch, MaxInflight: maxInflight, Metrics: obs.NewServerMetrics(o)})
	return &wakeupSide{srv: srv, reg: reg, obs: o, jr: jr, ss: srv.newSession(), src: &cutReader{data: data, cuts: cuts}}
}

// checkWakeups runs data through wakeup and through the oracle, read
// by read as handle reads a socket, and fails on the first difference.
func checkWakeups(t *testing.T, maxBatch, maxInflight int, cuts, data []byte) {
	walk := newWakeupSide(t, maxBatch, maxInflight, cuts, data)
	oracle := newWakeupSide(t, maxBatch, maxInflight, cuts, data)
	msgs := &messages{rd: oracle.ss.rd}
	for i := 0; ; i++ {
		n, readErr := walk.ss.rd.Fill(walk.src)
		on, oReadErr := oracle.ss.rd.Fill(oracle.src)
		if n != on || readErr != oReadErr {
			t.Fatalf("wakeup %d: read %d, %v; oracle read %d, %v", i, n, readErr, on, oReadErr)
		}
		if n == 0 && readErr != nil {
			break
		}
		var err, oErr error
		walk.wbuf, err = walk.srv.wakeup(walk.ss, walk.wbuf[:0])
		oracle.wbuf, oErr = oracle.srv.oracleWakeup(oracle.ss, msgs, oracle.wbuf[:0])
		if err != oErr {
			t.Fatalf("wakeup %d: error %v, oracle's %v", i, err, oErr)
		}
		if !bytes.Equal(walk.wbuf, oracle.wbuf) {
			t.Fatalf("wakeup %d: responses differ\n walk   %x\n oracle %x", i, walk.wbuf, oracle.wbuf)
		}
		if err != nil || readErr != nil {
			break
		}
	}
	walk.sameState(t, oracle)
}

// sameState compares the two sides' sealed epochs, their live bids (by
// sealing both once more), their journals and their metrics.
func (w *wakeupSide) sameState(t *testing.T, o *wakeupSide) {
	t.Helper()
	for _, seal := range []bool{false, true} {
		ws, os := w.reg.Snapshot(), o.reg.Snapshot()
		if seal {
			ws, os = w.reg.Seal(), o.reg.Seal()
		}
		if ws.Epoch() != os.Epoch() || ws.N() != os.N() ||
			math.Float64bits(ws.Rate()) != math.Float64bits(os.Rate()) ||
			math.Float64bits(ws.Sum()) != math.Float64bits(os.Sum()) {
			t.Fatalf("sealed epoch (final seal %v): %d n=%d rate=%v S=%v, oracle %d n=%d rate=%v S=%v", seal,
				ws.Epoch(), ws.N(), ws.Rate(), ws.Sum(), os.Epoch(), os.N(), os.Rate(), os.Sum())
		}
		if !slices.Equal(ws.IDs(nil), os.IDs(nil)) || !slices.Equal(bits(ws.Bids(nil)), bits(os.Bids(nil))) {
			t.Fatalf("sealed bids differ (final seal %v)", seal)
		}
	}
	if !slices.Equal(w.jr.log, o.jr.log) {
		t.Fatalf("journal calls differ:\n walk   %v\n oracle %v", w.jr.log, o.jr.log)
	}
	var wm, om bytes.Buffer
	w.obs.WritePrometheus(&wm)
	o.obs.WritePrometheus(&om)
	if wm.String() != om.String() {
		t.Fatalf("metrics differ:\n walk\n%s\n oracle\n%s", wm.String(), om.String())
	}
}

func bits(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

// recordJournal logs every journal call as a flat list of words:
// what a WAL writer would encode, so equal logs mean equal log bytes.
type recordJournal struct{ log []uint64 }

const (
	jAdded = iota + 1
	jUpdated
	jRemoved
	jRate
	jSealed
	jPublished
	jMutations
)

func (j *recordJournal) Added(id int, t float64) {
	j.log = append(j.log, jAdded, uint64(id), math.Float64bits(t))
}
func (j *recordJournal) Updated(id int, t float64) {
	j.log = append(j.log, jUpdated, uint64(id), math.Float64bits(t))
}
func (j *recordJournal) Removed(id int) { j.log = append(j.log, jRemoved, uint64(id)) }
func (j *recordJournal) RateChanged(rate float64) {
	j.log = append(j.log, jRate, math.Float64bits(rate))
}
func (j *recordJournal) Sealed(ev registry.SealEvent) {
	j.log = append(j.log, jSealed, ev.Epoch, math.Float64bits(ev.Rate), uint64(ev.Next), uint64(ev.Live))
}
func (j *recordJournal) Published(snap *registry.Snapshot) {
	j.log = append(j.log, jPublished, snap.Epoch())
}
func (j *recordJournal) Mutations(ops []registry.BatchOp) {
	j.log = append(j.log, jMutations, uint64(len(ops)))
	for _, op := range ops {
		j.log = append(j.log, uint64(op.Kind), uint64(op.ID), math.Float64bits(op.T))
	}
}

// TestServeWakeupAllocFree pins one wakeup — a window of 4096 rebids
// in run frames, from wire bytes to response bytes — at zero
// allocations in steady state, metrics on, with and without acks.
func TestServeWakeupAllocFree(t *testing.T) {
	for _, acks := range []bool{false, true} {
		w := newWakeupBench(t, wakeupCase{agents: 1024, acks: acks})
		w.run(t) // warm the batch, result and response buffers
		if a := testing.AllocsPerRun(50, func() { w.run(t) }); a != 0 {
			t.Fatalf("acks %v: a wakeup allocates %.1f times, want 0", acks, a)
		}
		if len(w.wbuf) == 0 {
			t.Fatalf("acks %v: the wakeup answered nothing", acks)
		}
	}
}

// TestWakeupWideIDsNameNoAgent pins that a wire id no int holds on a
// 32-bit build names no agent there either: with agents 0–2 admitted
// and sealed, a rebid, leave, load and payment of id 2^32+1 are each
// answered unknown id, on any word size, and agent 1 keeps its bid.
func TestWakeupWideIDsNameNoAgent(t *testing.T) {
	const wide = 1<<32 + 1
	e := encoder{}
	e.run(append(adds(1, 3), wire.Request{Op: wire.OpSeal, Req: 4})...)
	e.run(
		wire.Request{Op: wire.OpRebid, Req: 5, ID: wide, T: 9},
		wire.Request{Op: wire.OpLeave, Req: 6, ID: wide},
		wire.Request{Op: wire.OpLoad, Req: 7, ID: wide},
		wire.Request{Op: wire.OpPayment, Req: 8, ID: wide},
		wire.Request{Op: wire.OpLoad, Req: 9, ID: 1},
	)
	w := newWakeupSide(t, 255, 255, nil, e.b)
	if _, err := w.ss.rd.Fill(w.src); err != nil {
		t.Fatal(err)
	}
	out, err := w.srv.wakeup(w.ss, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeAll(t, out)
	if len(got) != 9 {
		t.Fatalf("got %d responses %+v, want 9", len(got), got)
	}
	for _, p := range got[4:8] {
		if p.Status != wire.StatusUnknownID {
			t.Errorf("op %d of id 2^32+1 (request %d): status %d, want unknown id", p.Op, p.Req, p.Status)
		}
	}
	if p := got[8]; p.Op != wire.OpLoad || p.Status != wire.StatusOK {
		t.Errorf("load of agent 1: %+v, want an OK load", p)
	}
	if bid, ok := w.reg.Seal().Value(1); !ok || bid != 2 {
		t.Errorf("agent 1 after the wide-id requests: bid %v, live %v; want 2, live", bid, ok)
	}
}
