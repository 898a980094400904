package main

import (
	"encoding/json"
	"fmt"
	"syscall"
	"time"
)

// The host's speed drifts, and the serving path feels it more than a
// tight loop does. On the 2-vCPU VM the committed results come from,
// with /proc/stat reporting almost no steal time, the batch phase's
// round trip switched every few seconds between about 1.0, 1.35 and
// 1.65 ms within one run, while a copy-CRC-table loop moved by a
// fraction of that. What did move with it was code like the program's:
// system calls through a socket, and reflection-heavy library code.
// Timed between batches, the round trip over such a kernel's time
// spread 5% across half-second slices, against 21% for the round trip
// alone, and its run medians spread 1.5% against 45%.
//
// So the benchmark times this reference kernel between the batch
// phase's batches, in the same half-second slices and on the same CPU,
// and reports the batch phase's rate and CPU cost scaled to the
// kernel's nominal time: what they would have been had the kernel taken
// refNominal. Times are multiplied by speed() and rates divided by it.
// The kernel is fixed code outside the program, so a change to the
// program moves the scaled value as much as the measured one, as long
// as the server is idle while the kernel runs. The measured values and
// host speeds are in each run's detail line.
//
// Seal latency follows the kernel only in part: a seal of 8k agents
// waits mostly on an fsync, and one of 1M agents on memory. Scaled by
// the kernel, the medians of ten runs still spread by 11-29%, so seal
// latencies are reported as measured, in the detail line.

// refNominal is the reference kernel's nominal time, about its median
// on the machine the results were committed from when the host was
// quiet.
const refNominal = 125 * time.Microsecond

// refEvery and refBurst: in the batch phase, a burst of refBurst timed
// units follows every refEvery-th batch and the first batch of each
// slice, while the server is idle.
const (
	refEvery = 8
	refBurst = 2
)

const (
	refSockRounds = 32      // 4 KiB round trips through the socket pair
	refRecords    = 16      // records per JSON encode and decode
	refChunk      = 4 << 10 // bytes per socket round trip
)

// refRecord is what the kernel's JSON half encodes and decodes.
type refRecord struct {
	ID    int       `json:"id"`
	Agent string    `json:"agent"`
	Bids  []float64 `json:"bids"`
	Live  bool      `json:"live"`
}

// refKernel is the reference kernel's state: a Unix socket pair and
// the records it encodes.
type refKernel struct {
	pair [2]int
	buf  []byte
	in   []refRecord
	out  []refRecord
}

func newRefKernel() (*refKernel, error) {
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, fmt.Errorf("reference kernel: socketpair: %w", err)
	}
	k := &refKernel{pair: [2]int{fds[0], fds[1]}, buf: make([]byte, refChunk), in: make([]refRecord, refRecords)}
	for i := range k.in {
		k.in[i] = refRecord{ID: i, Agent: fmt.Sprintf("agent-%04d", i), Bids: []float64{0.1 * float64(i), 1 / float64(i+1)}, Live: i%3 != 0}
	}
	return k, nil
}

// close releases the socket pair; closing again does nothing.
func (k *refKernel) close() {
	for i, fd := range k.pair {
		if fd >= 0 {
			syscall.Close(fd)
			k.pair[i] = -1
		}
	}
}

// unit runs one unit of the kernel: 4 KiB written into the socket pair
// and read back, refSockRounds times, then refRecords records encoded
// and decoded with encoding/json.
func (k *refKernel) unit() error {
	for i := 0; i < refSockRounds; i++ {
		if _, err := syscall.Write(k.pair[0], k.buf); err != nil {
			return fmt.Errorf("reference kernel: write: %w", err)
		}
		for n := 0; n < refChunk; {
			m, err := syscall.Read(k.pair[1], k.buf[n:])
			if err != nil {
				return fmt.Errorf("reference kernel: read: %w", err)
			}
			if m == 0 {
				return fmt.Errorf("reference kernel: read: socket pair closed")
			}
			n += m
		}
	}
	b, err := json.Marshal(k.in)
	if err == nil {
		err = json.Unmarshal(b, &k.out)
	}
	if err != nil {
		return fmt.Errorf("reference kernel: json: %w", err)
	}
	return nil
}

// hostRef collects timed reference units.
type hostRef struct {
	units []float64 // ns
}

// burst times n units of k after an untimed one, which brings the
// kernel's code and buffers back into cache.
func (h *hostRef) burst(k *refKernel, n int) error {
	if err := k.unit(); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := k.unit(); err != nil {
			return err
		}
		h.units = append(h.units, float64(time.Since(t)))
	}
	return nil
}

// speed returns the host's speed relative to nominal: refNominal over
// the median unit time, above 1 on a host faster than nominal.
func speed(hs ...*hostRef) float64 {
	var all []float64
	for _, h := range hs {
		all = append(all, h.units...)
	}
	if len(all) == 0 {
		return 1
	}
	return float64(refNominal) / median(all)
}
