// Package workload generates job arrival streams for the cluster
// simulator: Poisson and deterministic arrival processes, pluggable
// job-size distributions (constant, exponential, lognormal, Pareto —
// all normalized to mean 1), and Record, which materializes a stream.
package workload

import (
	"fmt"
	"math"

	"repro/internal/numeric"
)

// Job is one unit of work arriving at the distributed system.
type Job struct {
	// ID is a sequence number unique within a stream.
	ID int64
	// Arrival is the absolute arrival time in seconds.
	Arrival float64
	// Size is the job's service demand relative to a mean job
	// (dimensionless, mean 1 across a stream).
	Size float64
}

// Source is an ordered stream of jobs with nondecreasing arrival
// times.
type Source interface {
	// Next returns the next job; ok is false when the stream is
	// exhausted.
	Next() (job Job, ok bool)
}

// SizeDist samples job sizes. Implementations are normalized so the
// mean size is 1.
type SizeDist interface {
	// Sample draws one job size.
	Sample(rng *numeric.Rand) float64
	// String names the distribution.
	String() string
}

// ConstSize is the degenerate distribution: every job has size 1.
type ConstSize struct{}

// Sample implements SizeDist.
func (ConstSize) Sample(*numeric.Rand) float64 { return 1 }

func (ConstSize) String() string { return "const" }

// ExpSize is the exponential distribution with mean 1 (M/M/1 service).
type ExpSize struct{}

// Sample implements SizeDist.
func (ExpSize) Sample(rng *numeric.Rand) float64 { return rng.ExpFloat64() }

func (ExpSize) String() string { return "exp" }

// LognormalSize is a lognormal distribution with unit mean and shape
// Sigma (the sigma of the underlying normal). Larger Sigma means a
// heavier tail.
type LognormalSize struct {
	Sigma float64
}

// Sample implements SizeDist.
func (d LognormalSize) Sample(rng *numeric.Rand) float64 {
	// mean = exp(mu + sigma^2/2) = 1  =>  mu = -sigma^2/2.
	mu := -d.Sigma * d.Sigma / 2
	return math.Exp(mu + d.Sigma*rng.NormFloat64())
}

func (d LognormalSize) String() string { return fmt.Sprintf("lognormal(sigma=%g)", d.Sigma) }

// ParetoSize is a Pareto distribution with unit mean and tail index
// Alpha > 1 (smaller Alpha = heavier tail; Alpha <= 2 has infinite
// variance).
type ParetoSize struct {
	Alpha float64
}

// Sample implements SizeDist.
func (d ParetoSize) Sample(rng *numeric.Rand) float64 {
	// mean = alpha*xm/(alpha-1) = 1 => xm = (alpha-1)/alpha.
	xm := (d.Alpha - 1) / d.Alpha
	u := 1 - rng.Float64() // (0, 1]
	return xm / math.Pow(u, 1/d.Alpha)
}

func (d ParetoSize) String() string { return fmt.Sprintf("pareto(alpha=%g)", d.Alpha) }

// Poisson is a Poisson arrival process with the given rate, emitting a
// fixed number of jobs with sizes drawn from Sizes.
type Poisson struct {
	rate  float64
	n     int64
	sizes SizeDist
	rng   *numeric.Rand

	next int64
	now  float64
}

// NewPoisson returns a Poisson source emitting n jobs at the given
// arrival rate (jobs per second) with sizes from dist (ConstSize if
// nil). It panics on a non-positive or non-finite rate or a
// non-positive n.
func NewPoisson(rate float64, n int, dist SizeDist, rng *numeric.Rand) *Poisson {
	p := &Poisson{}
	p.Reset(rate, n, dist, rng)
	return p
}

// Reset reinitializes p in place with the semantics of NewPoisson,
// letting a long-lived engine reuse one source across rounds instead
// of allocating a fresh one per round. The same validation applies.
func (p *Poisson) Reset(rate float64, n int, dist SizeDist, rng *numeric.Rand) {
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		panic(fmt.Sprintf("workload: invalid rate %v", rate))
	}
	if n <= 0 {
		panic("workload: non-positive job count")
	}
	if dist == nil {
		dist = ConstSize{}
	}
	if rng == nil {
		rng = numeric.NewRand(1)
	}
	*p = Poisson{rate: rate, n: int64(n), sizes: dist, rng: rng}
}

// Next implements Source.
func (p *Poisson) Next() (Job, bool) {
	if p.next >= p.n {
		return Job{}, false
	}
	p.now += p.rng.ExpFloat64() / p.rate
	j := Job{ID: p.next, Arrival: p.now, Size: p.sizes.Sample(p.rng)}
	p.next++
	return j, true
}

// Deterministic emits n jobs of size 1 at exactly even spacing 1/rate.
type Deterministic struct {
	rate float64
	n    int64
	next int64
}

// NewDeterministic returns a deterministic arrival source.
func NewDeterministic(rate float64, n int) *Deterministic {
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		panic(fmt.Sprintf("workload: invalid rate %v", rate))
	}
	if n <= 0 {
		panic("workload: non-positive job count")
	}
	return &Deterministic{rate: rate, n: int64(n)}
}

// Next implements Source.
func (d *Deterministic) Next() (Job, bool) {
	if d.next >= d.n {
		return Job{}, false
	}
	j := Job{ID: d.next, Arrival: float64(d.next+1) / d.rate, Size: 1}
	d.next++
	return j, true
}

// Record drains up to n jobs from src into a slice (all jobs if
// n <= 0).
func Record(src Source, n int) []Job {
	var t []Job
	for n <= 0 || len(t) < n {
		j, ok := src.Next()
		if !ok {
			break
		}
		t = append(t, j)
	}
	return t
}
