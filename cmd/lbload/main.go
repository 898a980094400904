// Command lbload is the open-loop load driver for the networked
// serving front end (lbserve -listen): N connections each admit a
// population of agents with pipelined adds, then, once every
// connection has admitted its agents, pipeline rebid traffic against
// the server for -duration — Poisson arrivals when -rate is set,
// closed-loop otherwise — and report sustained ops/s with
// p50/p99/p99.9 latency quantiles.
//
// Latency is measured open-loop style: a request's clock starts at its
// *scheduled* arrival, so a server that falls behind accumulates
// queueing delay in the percentiles instead of silently slowing the
// generator down (coordinated omission).
//
// Usage:
//
//	lbload -addr 127.0.0.1:9070 -conns 4 -agents 1000 -duration 5s
//	lbload -addr 127.0.0.1:9070 -rate 500000 -window 1024
//	lbload -addr 127.0.0.1:9070 -seal-out /tmp/seal.txt
//
// With -seal-out the driver seals a final epoch after the run and
// writes "epoch=E n=N s=0xHEX" (the canonical aggregate's exact bits)
// to the file — comparable byte-for-byte against lbserve's
// -recovered-out after a crash/restart, which is how the CI kill-9
// smoke proves recovery is bitwise exact.
package main

import (
	"flag"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/lbclient"
	"repro/internal/report"
	"repro/internal/wire"
)

// latHist is a log-bucketed latency histogram: 8 sub-buckets per
// octave of nanoseconds, exact to ~9% — plenty for p50/p99/p99.9 over
// a microsecond-to-second range.
type latHist struct {
	counts [64 * 8]uint64
	n      uint64
}

func (h *latHist) observe(d time.Duration) {
	ns := uint64(d.Nanoseconds())
	if ns < 1 {
		ns = 1
	}
	o := uint(bits.Len64(ns)) - 1 // octave: floor(log2 ns)
	var sub uint64
	if o >= 3 {
		sub = (ns >> (o - 3)) & 7 // top 3 bits below the leading one
	}
	h.counts[uint64(o)*8+sub]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.n += o.n
}

// quantile returns the q-quantile as the lower bound of the bucket the
// rank falls in.
func (h *latHist) quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n-1))
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if c > 0 && seen > rank {
			o := uint(i / 8)
			sub := uint64(i % 8)
			ns := uint64(1) << o
			if o >= 3 {
				ns |= sub << (o - 3)
			}
			return time.Duration(ns)
		}
	}
	return 0
}

type connResult struct {
	ops      int
	errs     int
	overload int
	hist     latHist
	err      error
}

func main() {
	addr := flag.String("addr", "127.0.0.1:9070", "server address")
	conns := flag.Int("conns", 4, "concurrent connections")
	agents := flag.Int("agents", 1024, "agents each connection admits before driving load")
	duration := flag.Duration("duration", 5*time.Second, "time to drive load")
	rate := flag.Float64("rate", 0, "total target ops/s, Poisson arrivals split across connections (0 = closed loop)")
	window := flag.Int("window", 4096, "pipeline window: max outstanding requests per connection")
	seed := flag.Uint64("seed", 1, "random seed")
	sealOut := flag.String("seal-out", "", "seal a final epoch and write epoch/n/S-bits to this file")
	flag.Parse()
	if *conns <= 0 || *agents <= 0 || *window <= 0 {
		fmt.Fprintln(os.Stderr, "lbload: need -conns, -agents and -window > 0")
		os.Exit(1)
	}

	// The load window opens once every connection has admitted its
	// agents (or failed to), so admission never eats into -duration.
	results := make([]connResult, *conns)
	var wg, admitted sync.WaitGroup
	var deadline time.Time
	open := make(chan struct{})
	for w := 0; w < *conns; w++ {
		wg.Add(1)
		admitted.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = driveConn(connConfig{
				addr: *addr, agents: *agents, admitted: admitted.Done,
				open: open, deadline: &deadline,
				rate: *rate / float64(*conns), window: *window,
				seed: *seed, worker: w,
			})
		}(w)
	}
	admitted.Wait()
	start := time.Now()
	deadline = start.Add(*duration)
	close(open)
	wg.Wait()
	elapsed := time.Since(start)

	total, connErrs, overloads, failed := 0, 0, 0, 0
	var hist latHist
	for w := range results {
		if results[w].err != nil {
			fmt.Fprintf(os.Stderr, "lbload: conn %d: %v\n", w, results[w].err)
			connErrs++
		}
		total += results[w].ops
		overloads += results[w].overload
		failed += results[w].errs
		hist.merge(&results[w].hist)
	}

	mode := "closed-loop"
	if *rate > 0 {
		mode = fmt.Sprintf("open-loop %.0f ops/s Poisson", *rate)
	}
	tab := report.NewTable(
		fmt.Sprintf("Networked serving load: %d conns x %d agents, window %d, %s, %s.",
			*conns, *agents, *window, mode, elapsed.Round(time.Millisecond)),
		"Conns", "Ops", "Ops/sec", "Overloaded", "Errors", "p50", "p99", "p99.9")
	tab.AddRow(
		fmt.Sprintf("%d", *conns),
		fmt.Sprintf("%d", total),
		fmt.Sprintf("%.0f", float64(total)/elapsed.Seconds()),
		fmt.Sprintf("%d", overloads),
		fmt.Sprintf("%d", failed),
		hist.quantile(0.50).Round(time.Microsecond).String(),
		hist.quantile(0.99).Round(time.Microsecond).String(),
		hist.quantile(0.999).Round(time.Microsecond).String(),
	)
	tab.Render(os.Stdout)

	if connErrs > 0 || failed > 0 || total == 0 {
		fmt.Fprintln(os.Stderr, "lbload: no throughput, connection errors or error responses")
		os.Exit(1)
	}

	if *sealOut != "" {
		c, err := lbclient.Dial(*addr, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lbload:", err)
			os.Exit(1)
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(10 * time.Second))
		info, err := c.Seal()
		if err != nil {
			fmt.Fprintln(os.Stderr, "lbload:", err)
			os.Exit(1)
		}
		line := fmt.Sprintf("epoch=%d n=%d s=0x%016x\n", info.Epoch, info.N, math.Float64bits(info.Sum))
		if err := os.WriteFile(*sealOut, []byte(line), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "lbload:", err)
			os.Exit(1)
		}
		fmt.Printf("sealed %s -> %s\n", strings.TrimSpace(line), *sealOut)
	}
}

type connConfig struct {
	addr   string
	agents int
	// admitted is called once the connection has admitted its agents
	// or failed; open is closed when the load window starts, after
	// *deadline (its end) is set.
	admitted func()
	open     <-chan struct{}
	deadline *time.Time
	rate     float64 // per-connection ops/s; 0 = closed loop
	window   int
	seed     uint64
	worker   int
}

// flushEvery is how many requests a writer queues before it flushes.
const flushEvery = 256

// admitTimeout fails a connection whose admission makes no progress:
// its deadline moves this far ahead at every flushEvery responses.
const admitTimeout = 10 * time.Second

// driveConn runs one connection: admit the population with pipelined
// adds, wait for the shared load window to open, then pipeline rebids
// until the window closes, recording each response's latency from its
// request's scheduled arrival.
func driveConn(cfg connConfig) connResult {
	res := connResult{}
	c, err := lbclient.Dial(cfg.addr, 0)
	if err != nil {
		cfg.admitted()
		res.err = err
		return res
	}
	defer c.Close()

	rng := rand.New(rand.NewPCG(cfg.seed, uint64(cfg.worker)+1))
	ids := make([]int, cfg.agents)
	err = admit(c, ids, cfg.window, rng)
	cfg.admitted()
	if err != nil {
		res.err = fmt.Errorf("admission: %w", err)
		return res
	}
	<-cfg.open
	deadline := *cfg.deadline
	c.SetDeadline(deadline.Add(10 * time.Second))

	p := newPipeline(c, cfg.window)
	gap := 0.0
	if cfg.rate > 0 {
		gap = 1 / cfg.rate
	}
	sent := 0
	res.err = p.run(func() error {
		next := time.Now()
		for time.Now().Before(deadline) {
			if cfg.rate > 0 {
				// Poisson arrivals: exponential gaps from the schedule,
				// never resetting to "now" — a slow server builds a
				// backlog instead of stretching the schedule.
				next = next.Add(time.Duration(rng.ExpFloat64() * gap * float64(time.Second)))
				if d := time.Until(next); d > 0 {
					if err := p.flush(); err != nil {
						return err
					}
					time.Sleep(d)
				}
			}
			if err := p.put(next); err != nil {
				return err
			}
			if cfg.rate == 0 {
				next = time.Now()
			}
			c.QueueRebid(ids[sent%len(ids)], 0.1+10*rng.Float64())
			sent++
			if err := p.queued(); err != nil {
				return err
			}
		}
		return nil
	}, func(t0 time.Time, r *wire.Response) error {
		res.hist.observe(time.Since(t0))
		switch r.Status {
		case wire.StatusOK:
			res.ops++
		case wire.StatusOverloaded:
			res.overload++
		default:
			res.errs++
		}
		return nil
	})
	return res
}

// admit fills ids with the ids of len(ids) new agents, pipelining the
// adds as bench/lbbench's populate does: at most window outstanding,
// flushed every flushEvery. A connection that goes admitTimeout
// without flushEvery responses fails, and so does an add that is not
// answered OK.
func admit(c *lbclient.Conn, ids []int, window int, rng *rand.Rand) error {
	c.SetDeadline(time.Now().Add(admitTimeout))
	p := newPipeline(c, window)
	n := 0
	return p.run(func() error {
		for range ids {
			if err := p.put(time.Time{}); err != nil {
				return err
			}
			c.QueueAdd(0.1 + 10*rng.Float64())
			if err := p.queued(); err != nil {
				return err
			}
		}
		return nil
	}, func(_ time.Time, r *wire.Response) error {
		if r.Status != wire.StatusOK {
			return &wire.StatusError{Op: r.Op, Status: r.Status}
		}
		ids[n] = int(r.ID)
		n++
		if n%flushEvery == 0 {
			c.SetDeadline(time.Now().Add(admitTimeout))
		}
		return nil
	})
}

// pipeline splits a connection into a writer goroutine and a reader
// joined by a FIFO token channel whose capacity is the window: the
// channel both bounds outstanding requests and carries each request's
// scheduled-arrival time to the reader (responses are FIFO by the
// pipelining contract, so tokens and responses pair up exactly).
type pipeline struct {
	c       *lbclient.Conn
	tokens  chan time.Time
	pending int // queued, not yet flushed
}

func newPipeline(c *lbclient.Conn, window int) *pipeline {
	return &pipeline{c: c, tokens: make(chan time.Time, window)}
}

// run calls write on a writer goroutine and read, on this one, with
// each response and its request's token, in order. write queues each
// request through put, the lbclient Queue call and queued; run
// flushes what it leaves queued. The first error of either side ends
// the run: the connection's deadline is expired so the writer stops,
// and the remaining tokens are drained unread.
func (p *pipeline) run(write func() error, read func(t0 time.Time, r *wire.Response) error) error {
	writeErr := make(chan error, 1)
	go func() {
		defer close(p.tokens)
		err := write()
		if err == nil {
			err = p.flush()
		}
		writeErr <- err
	}()
	var err error
	for t0 := range p.tokens {
		if err != nil {
			continue
		}
		r, rerr := p.c.Recv()
		if rerr == nil {
			rerr = read(t0, r)
		}
		if rerr != nil {
			err = rerr
			p.c.SetDeadline(time.Now())
		}
	}
	if werr := <-writeErr; err == nil {
		err = werr
	}
	return err
}

// put takes a window slot for a request scheduled at t0. When the
// window is full it flushes first, so the reader can drain it.
func (p *pipeline) put(t0 time.Time) error {
	select {
	case p.tokens <- t0:
		return nil
	default:
	}
	if err := p.flush(); err != nil {
		return err
	}
	p.tokens <- t0
	return nil
}

// queued counts one queued request and flushes every flushEvery.
func (p *pipeline) queued() error {
	if p.pending++; p.pending < flushEvery {
		return nil
	}
	return p.flush()
}

// flush writes every queued request.
func (p *pipeline) flush() error {
	p.pending = 0
	return p.c.Flush()
}
