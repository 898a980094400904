// Package obs is the repository's zero-dependency observability
// layer: counters, gauges and histograms collected in a Registry and
// exportable as deterministic JSON (the cmd/benchjson conventions: no
// timestamps, stable ordering) or Prometheus text format, plus a
// bounded structured Event trace ring.
//
// Every metric type is nil-receiver-safe and allocation-free on the
// record path, so instrumented hot paths (the server's wakeup, the
// fault transport) cost nothing when observability is disabled: a
// nil *Counter, nil bundle or nil *Observer turns every record call
// into a branch and a return. The server's wakeup allocation guard
// records its metrics and still pins 0 allocations with
// testing.AllocsPerRun.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. The zero
// value is ready to use; a nil *Counter discards all writes.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n (negative n is ignored: counters are
// monotone).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can go up and down. The zero value
// is ready to use; a nil *Gauge discards all writes.
type Gauge struct {
	name, help string
	bits       atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increases the gauge by v (lock-free CAS loop).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into cumulative-exportable buckets
// with fixed upper bounds, tracking count and sum alongside. A nil
// *Histogram discards all writes.
type Histogram struct {
	name, help string
	bounds     []float64 // ascending upper bounds; +Inf is implicit

	mu     sync.Mutex
	counts []int64 // len(bounds)+1, last bucket is the +Inf overflow
	count  int64
	sum    float64
}

// DefaultBuckets is the bucket layout used when a histogram is
// registered with nil bounds: sub-millisecond through minutes, wide
// enough for both simulated round times and backoff delays.
var DefaultBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Observe records one sample. NaN samples are dropped (they would
// poison the sum without landing in any bucket).
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// snapshot copies the histogram state under its lock.
func (h *Histogram) snapshot() (bounds []float64, counts []int64, count int64, sum float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.bounds, append([]int64(nil), h.counts...), h.count, h.sum
}

// CounterVec is a family of counters split by one label. Children are
// created on first use; a nil *CounterVec hands out nil counters, so
// the whole chain v.With("drop").Inc() is safe and free when
// observability is off.
type CounterVec struct {
	name, help, label string

	mu       sync.Mutex
	children map[string]*Counter
}

// With returns the child counter for the given label value, creating
// it on first use.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	c := v.children[value]
	if c == nil {
		c = &Counter{name: v.name, help: v.help}
		v.children[value] = c
	}
	return c
}

// Value returns the child's current count without creating it.
func (v *CounterVec) Value(value string) int64 {
	if v == nil {
		return 0
	}
	v.mu.Lock()
	c := v.children[value]
	v.mu.Unlock()
	return c.Value()
}
