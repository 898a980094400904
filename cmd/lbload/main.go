// Command lbload is the open-loop load driver for the networked
// serving front end (lbserve -listen): N connections each admit a
// population of agents, then pipeline rebid traffic against the
// server — Poisson arrivals when -rate is set, closed-loop otherwise —
// and report sustained ops/s with p50/p99/p99.9 latency quantiles.
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

	results := make([]connResult, *conns)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(*duration)
	for w := 0; w < *conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = driveConn(connConfig{
				addr: *addr, agents: *agents, deadline: deadline,
				rate: *rate / float64(*conns), window: *window,
				seed: *seed, worker: w,
			})
		}(w)
	}
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
	addr     string
	agents   int
	deadline time.Time
	rate     float64 // per-connection ops/s; 0 = closed loop
	window   int
	seed     uint64
	worker   int
}

// driveConn runs one connection: admit the population synchronously,
// then split into a pipelining writer and a latency-recording reader
// joined by a FIFO token channel whose capacity is the window — the
// channel both bounds outstanding requests and carries each request's
// scheduled-arrival time to the reader (responses are FIFO by the
// pipelining contract, so tokens and responses pair up exactly).
func driveConn(cfg connConfig) connResult {
	res := connResult{}
	c, err := lbclient.Dial(cfg.addr, 0)
	if err != nil {
		res.err = err
		return res
	}
	defer c.Close()
	c.SetDeadline(cfg.deadline.Add(10 * time.Second))

	rng := rand.New(rand.NewPCG(cfg.seed, uint64(cfg.worker)+1))
	ids := make([]int, cfg.agents)
	for i := range ids {
		if ids[i], err = c.Add(0.1 + 10*rng.Float64()); err != nil {
			res.err = err
			return res
		}
	}

	const flushEvery = 256
	tokens := make(chan time.Time, cfg.window)
	writeErr := make(chan error, 1)
	var sent int

	go func() {
		defer close(tokens)
		gap := 0.0
		if cfg.rate > 0 {
			gap = 1 / cfg.rate
		}
		next := time.Now()
		pending := 0
		for time.Now().Before(cfg.deadline) {
			if cfg.rate > 0 {
				// Poisson arrivals: exponential gaps from the schedule,
				// never resetting to "now" — a slow server builds a
				// backlog instead of stretching the schedule.
				next = next.Add(time.Duration(rng.ExpFloat64() * gap * float64(time.Second)))
				if d := time.Until(next); d > 0 {
					if pending > 0 {
						if err := c.Flush(); err != nil {
							writeErr <- err
							return
						}
						pending = 0
					}
					time.Sleep(d)
				}
			}
			if pending > 0 && len(tokens) == cfg.window {
				// About to block on a full window: flush so the reader
				// can drain it.
				if err := c.Flush(); err != nil {
					writeErr <- err
					return
				}
				pending = 0
			}
			select {
			case tokens <- next:
			default:
				if err := c.Flush(); err != nil {
					writeErr <- err
					return
				}
				pending = 0
				tokens <- next
			}
			if cfg.rate == 0 {
				next = time.Now()
			}
			c.QueueRebid(ids[sent%len(ids)], 0.1+10*rng.Float64())
			sent++
			pending++
			if pending >= flushEvery {
				if err := c.Flush(); err != nil {
					writeErr <- err
					return
				}
				pending = 0
			}
		}
		if pending > 0 {
			if err := c.Flush(); err != nil {
				writeErr <- err
			}
		}
	}()

	for t0 := range tokens {
		p, err := c.Recv()
		if err != nil {
			res.err = err
			// Unblock the writer (it may be parked on a full token
			// channel); the run is failing anyway.
			go func() {
				for range tokens {
				}
			}()
			break
		}
		res.hist.observe(time.Since(t0))
		switch p.Status {
		case wire.StatusOK:
			res.ops++
		case wire.StatusOverloaded:
			res.overload++
		default:
			res.errs++
		}
	}
	select {
	case err := <-writeErr:
		if res.err == nil {
			res.err = err
		}
	default:
	}
	return res
}
