package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lbclient"
	"repro/internal/wire"
)

// opKind is what a generated request does.
type opKind uint8

const (
	kRebid opKind = iota
	kLoad
	kPayment
	kSeal
	kAdd
	kPing // the sentinel that ends a writer's stream
	nKinds
)

var kindOp = [nKinds]byte{wire.OpRebid, wire.OpLoad, wire.OpPayment, wire.OpSeal, wire.OpAdd, wire.OpPing}

// entry is one request in flight: what was sent and when it was due.
// Responses come back in request order, so the reader pairs the k-th
// response with the k-th entry.
type entry struct {
	sched int64   // ns on the run's clock: the scheduled send time
	t     float64 // bid of an add or rebid
	idx   int32   // agent index within the connection's population
	kind  opKind
}

const (
	ringBits = 16 // entries in flight per connection, at most
	ringMask = 1<<ringBits - 1
	// window and flushEvery shape the closed loops of set-up and the
	// crash tail, as in lbload.
	window     = 4096
	flushEvery = 256
	// maxSend caps the requests one open-loop wakeup flushes at once.
	maxSend = 1024
	// batchOps is the size of one batch of the batch phase: written in
	// one flush, and answered in full before the next batch goes out.
	batchOps = 4096
)

// plan is one measured run's timeline on the generator's clock (ns
// since base). Warm-up runs from warmStart to fixedStart, the
// fixed-rate phase to fixedEnd, and the batch phase to batchEnd.
type plan struct {
	base                                      time.Time
	warmStart, fixedStart, fixedEnd, batchEnd int64
	rate                                      float64 // per connection
	load, payment                             float64
	sealEvery                                 int64 // ns; conn 0 only
	// The fixed-rate phase is cut into windows and the batch phase into
	// slices, each of equal length; per-window tail latencies and
	// per-slice CPU costs are reported as medians, which a passing stall
	// moves little.
	windows, slices int
}

// window returns the fixed-rate window holding t, which must lie in
// the fixed-rate phase.
func (p *plan) window(t int64) int {
	return int((t - p.fixedStart) * int64(p.windows) / (p.fixedEnd - p.fixedStart))
}

func (p *plan) now() int64 { return int64(time.Since(p.base)) }

// slice returns the batch-phase slice holding t, or -1.
func (p *plan) slice(t int64) int {
	if t < p.fixedEnd || t >= p.batchEnd || p.slices == 0 {
		return -1
	}
	return int((t - p.fixedEnd) * int64(p.slices) / (p.batchEnd - p.fixedEnd))
}

// sliceEnd returns the end of batch-phase slice i.
func (p *plan) sliceEnd(i int) int64 {
	return p.fixedEnd + (p.batchEnd-p.fixedEnd)*int64(i+1)/int64(p.slices)
}

// sealAck is one acknowledged seal's epoch line.
type sealAck struct {
	epoch, n uint64
	rate     float64
	sum      float64
}

func (s sealAck) line() string {
	return fmt.Sprintf("epoch=%d n=%d s=0x%016x", s.epoch, s.n, math.Float64bits(s.sum))
}

// connDriver drives one connection with a writer goroutine and a reader
// goroutine joined by a ring of in-flight entries. The writer owns the
// ring's head and the reader its tail; both are atomics so each side
// sees the other's progress.
type connDriver struct {
	index int
	c     *lbclient.Conn
	ids   []int     // server-assigned ids of this connection's agents
	bids  []float64 // last acknowledged bid per agent: the oracle's input
	rng   *rand.Rand

	ring       [1 << ringBits]entry
	head, tail atomic.Uint64
	waiting    atomic.Bool
	wake       chan struct{}
	dead       chan struct{} // closed when the reader exits
	readErr    error

	batch []entry

	// Writer-side accounting.
	sent   uint64
	late   hist // flush start − scheduled, fixed phase
	outMax uint64
	tr     *spanLog // client encode/flush spans; nil unless traced
	// Conn 0, per batch-phase slice: each batch's round trip (ns), and
	// the reference kernel (hostref.go) timed between batches.
	ref      *refKernel
	sliceRTT [][]float64
	sliceRef []hostRef

	// Reader-side accounting.
	status  [nKinds][5]uint64 // responses by kind and status byte
	ackLat  []hist            // bid and read ops scheduled in each fixed-phase window
	sealLat hist              // seals scheduled in the fixed phase
	sliceOK []uint64          // OK bid/read acks received in each batch-phase slice
	mutOK   uint64            // rebids scheduled in the fixed phase and acknowledged OK
	seals   []sealAck         // conn 0: every seal acknowledged by the reader
}

func newConnDriver(index int, addr string, agents int, seed uint64) (*connDriver, error) {
	c, err := lbclient.Dial(addr, 0)
	if err != nil {
		return nil, err
	}
	ref, err := newRefKernel()
	if err != nil {
		c.Close()
		return nil, err
	}
	return &connDriver{
		index: index,
		c:     c,
		ref:   ref,
		ids:   make([]int, agents),
		bids:  make([]float64, agents),
		rng:   rand.New(rand.NewPCG(seed, uint64(2*index))),
		batch: make([]entry, 0, batchOps+1),
	}, nil
}

// queue encodes one entry into the connection's outgoing buffer.
func (d *connDriver) queue(e *entry) {
	switch e.kind {
	case kRebid:
		d.c.QueueRebid(d.ids[e.idx], e.t)
	case kLoad:
		d.c.QueueLoad(d.ids[e.idx])
	case kPayment:
		d.c.QueuePayment(d.ids[e.idx])
	case kSeal:
		d.c.QueueSeal()
	case kAdd:
		d.c.QueueAdd(e.t)
	case kPing:
		d.c.QueuePing()
	}
}

func (d *connDriver) makeOp(sched int64, p *plan) entry {
	idx := int32(d.rng.IntN(len(d.ids)))
	if p.load > 0 || p.payment > 0 {
		u := d.rng.Float64()
		if u < p.load {
			return entry{sched: sched, idx: idx, kind: kLoad}
		}
		if u < p.load+p.payment {
			return entry{sched: sched, idx: idx, kind: kPayment}
		}
	}
	return entry{sched: sched, t: 0.1 + 10*d.rng.Float64(), idx: idx, kind: kRebid}
}

var errReaderDied = errors.New("response reader stopped")

// waitBelow blocks until at most limit entries are in flight.
func (d *connDriver) waitBelow(limit uint64) error {
	head := d.head.Load()
	for head-d.tail.Load() > limit {
		d.waiting.Store(true)
		if head-d.tail.Load() <= limit {
			d.waiting.Store(false)
			return nil
		}
		select {
		case <-d.wake:
		case <-d.dead:
			d.waiting.Store(false)
			return errReaderDied
		}
		d.waiting.Store(false)
	}
	return nil
}

// send publishes batch to the ring, encodes it and flushes it in one
// write. Lateness is the flush start minus each entry's schedule. A
// traced driver records encode and flush spans from the fixed-rate
// phase on.
func (d *connDriver) send(batch []entry, p *plan) error {
	select {
	case <-d.dead:
		return errReaderDied
	default:
	}
	if err := d.waitBelow(uint64(len(d.ring) - len(batch))); err != nil {
		return err
	}
	head := d.head.Load()
	traced := d.tr != nil && batch[0].sched >= p.fixedStart
	var t0 int64
	if traced {
		t0 = p.now()
	}
	for i := range batch {
		d.ring[(head+uint64(i))&ringMask] = batch[i]
		d.queue(&batch[i])
	}
	head += uint64(len(batch))
	d.head.Store(head)
	t1 := p.now()
	if traced {
		d.tr.add(span{start: t0, dur: t1 - t0, n: int64(len(batch)), kind: spEncode})
	}
	if s := batch[0].sched; s >= p.fixedStart && s < p.fixedEnd {
		for i := range batch {
			d.late.record(t1 - batch[i].sched)
		}
		if out := head - d.tail.Load(); out > d.outMax {
			d.outMax = out
		}
	}
	bytes := d.c.Pending()
	err := d.c.Flush()
	if traced {
		t2 := p.now()
		d.tr.add(span{start: t1, dur: t2 - t1, n: int64(bytes), kind: spFlush})
	}
	d.sent += uint64(len(batch))
	return err
}

// populate admits the connection's agents.
func (d *connDriver) populate(p *plan) error {
	return d.closedLoop(p, len(d.ids), func(i int) entry {
		return entry{t: 0.1 + 10*d.rng.Float64(), idx: int32(i), kind: kAdd}
	})
}

// rebids sends n rebids of random agents of the connection.
func (d *connDriver) rebids(p *plan, n int) error {
	return d.closedLoop(p, n, func(int) entry {
		return entry{t: 0.1 + 10*d.rng.Float64(), idx: int32(d.rng.IntN(len(d.ids))), kind: kRebid}
	})
}

// closedLoop sends the n requests next returns, keeping up to window in
// flight and flushing every flushEvery, then the sentinel.
func (d *connDriver) closedLoop(p *plan, n int, next func(i int) entry) error {
	b := d.batch[:0]
	for i := 0; i < n; i++ {
		b = append(b, next(i))
		if len(b) == flushEvery || i == n-1 {
			if err := d.waitBelow(window - uint64(len(b))); err != nil {
				return err
			}
			if err := d.send(b, p); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	return d.send(append(b, entry{kind: kPing}), p)
}

// drive runs the measured timeline: open-loop Poisson arrivals through
// warm-up and the fixed-rate phase, then on connection 0 the batch
// phase until batchEnd, then the sentinel. Connection 0 also seals
// every p.sealEvery of the open loop. Arrivals that fall due while the
// writer sleeps go out together on its next wakeup.
func (d *connDriver) drive(p *plan, arrivals *rand.Rand) error {
	pc, err := newPacer()
	if err != nil {
		return err
	}
	defer pc.close()
	arr := newPoisson(p.warmStart, p.rate, arrivals)
	nextSeal := int64(math.MaxInt64)
	if d.index == 0 && p.sealEvery > 0 {
		nextSeal = p.warmStart + p.sealEvery
	}
	b := d.batch[:0]
	for {
		now := p.now()
		for len(b) < maxSend {
			if nextSeal <= arr.peek() {
				if nextSeal > now || nextSeal >= p.fixedEnd {
					break
				}
				b = append(b, entry{sched: nextSeal, kind: kSeal})
				nextSeal += p.sealEvery
				continue
			}
			if a := arr.peek(); a > now || a >= p.fixedEnd {
				break
			}
			b = append(b, d.makeOp(arr.pop(), p))
		}
		if len(b) > 0 {
			if err := d.send(b, p); err != nil {
				return err
			}
			b = b[:0]
			continue
		}
		if now >= p.fixedEnd {
			break
		}
		wake := min(arr.peek(), nextSeal, p.fixedEnd)
		if err := pc.sleep(max(wake-now, paceQuantum)); err != nil {
			return err
		}
	}
	if d.index == 0 {
		if err := d.batches(p); err != nil {
			return err
		}
	}
	return d.send(append(b, entry{sched: p.now(), kind: kPing}), p)
}

// batches runs the batch phase: back-to-back batches of batchOps
// requests of the workload's mix, each written in one flush and
// answered in full before the next is sent, until p.batchEnd. Only one
// side of the connection works at a time, so a batch's round trip is
// the two sides' work rather than how the two processes happened to
// share the CPU. Each round trip is timed from the start of encoding.
func (d *connDriver) batches(p *plan) error {
	n := 0
	for now := p.now(); now < p.batchEnd; now = p.now() {
		b := d.batch[:0]
		for len(b) < batchOps {
			b = append(b, d.makeOp(now, p))
		}
		t0 := p.now()
		if err := d.send(b, p); err != nil {
			return err
		}
		if err := d.waitBelow(0); err != nil {
			return err
		}
		i := p.slice(t0)
		if i < 0 {
			break // encoding the batch ran past batchEnd
		}
		d.sliceRTT[i] = append(d.sliceRTT[i], float64(p.now()-t0))
		if n++; n%refEvery == 0 || len(d.sliceRef[i].units) == 0 {
			if err := d.sliceRef[i].burst(d.ref, refBurst); err != nil {
				return err
			}
		}
	}
	return nil
}

// read consumes responses until the sentinel's, checking each against
// the entry it answers: FIFO order (lbclient checks the request ids),
// the op, and the status.
func (d *connDriver) read(p *plan) {
	defer close(d.dead)
	tail := d.tail.Load()
	for {
		resp, err := d.c.Recv()
		if err != nil {
			d.readErr = err
			return
		}
		now := p.now()
		if tail >= d.head.Load() {
			d.readErr = fmt.Errorf("conn %d: response %d with no request in flight", d.index, tail)
			return
		}
		e := &d.ring[tail&ringMask]
		if resp.Op != kindOp[e.kind] {
			d.readErr = fmt.Errorf("conn %d: response op %d answers a %d request", d.index, resp.Op, kindOp[e.kind])
			return
		}
		if int(resp.Status) < len(d.status[e.kind]) {
			d.status[e.kind][resp.Status]++
		} else {
			d.readErr = fmt.Errorf("conn %d: unknown status %d", d.index, resp.Status)
			return
		}
		ok := resp.Status == wire.StatusOK
		if ok {
			switch e.kind {
			case kRebid:
				d.bids[e.idx] = e.t
			case kAdd:
				d.ids[e.idx] = int(resp.ID)
				d.bids[e.idx] = e.t
			case kSeal:
				d.seals = append(d.seals, sealAck{epoch: resp.Epoch, n: resp.N, rate: resp.Rate, sum: resp.Sum})
			}
		}
		if e.sched >= p.fixedStart && e.sched < p.fixedEnd {
			switch e.kind {
			case kSeal:
				d.sealLat.record(now - e.sched)
			case kRebid, kLoad, kPayment:
				d.ackLat[p.window(e.sched)].record(now - e.sched)
			}
			if ok && e.kind == kRebid {
				d.mutOK++
			}
		}
		if i := p.slice(now); ok && e.kind <= kPayment && i >= 0 {
			d.sliceOK[i]++
		}
		tail++
		d.tail.Store(tail)
		if d.waiting.Load() {
			select {
			case d.wake <- struct{}{}:
			default:
			}
		}
		if e.kind == kPing {
			return
		}
	}
}

// runConns runs write on every driver against a fresh reader and waits
// for both sides of every connection.
func runConns(ds []*connDriver, p *plan, write func(*connDriver) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(ds))
	for i, d := range ds {
		d.wake = make(chan struct{}, 1)
		d.dead = make(chan struct{})
		wg.Add(2)
		go func() {
			defer wg.Done()
			d.read(p)
		}()
		go func() {
			defer wg.Done()
			if err := write(d); err != nil {
				errs[i] = fmt.Errorf("conn %d: %w", d.index, err)
				d.c.Close() // unblocks the reader
			}
		}()
	}
	wg.Wait()
	for i, d := range ds {
		if errs[i] == nil && d.readErr != nil {
			errs[i] = fmt.Errorf("conn %d: %w", d.index, d.readErr)
		}
	}
	return errors.Join(errs...)
}

// failed counts requests not answered OK: non-OK statuses plus any
// sent request that never got a response.
func (d *connDriver) failed() uint64 {
	var okN, all uint64
	for k := range d.status {
		for s, n := range d.status[k] {
			all += n
			if s == int(wire.StatusOK) {
				okN += n
			}
		}
	}
	return (all - okN) + (d.sent - all)
}
