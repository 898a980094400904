// Package latency defines load-dependent latency function models for
// heterogeneous computers.
//
// A latency function l(x) gives the expected time to complete one job
// at a computer receiving jobs at rate x. The paper reproduced by this
// repository (Grosu & Chronopoulos, "A Load Balancing Mechanism with
// Verification", IPDPS 2003) models computers with linear functions
// l(x) = t*x; the companion CLUSTER 2002 paper models them as M/M/1
// queues with l(x) = 1/(mu-x). Both are provided behind one interface
// so the allocation and mechanism layers are model-agnostic. MG1, the
// Pollaczek-Khinchine M/G/1 sojourn time, is the analytic reference
// the cluster simulator is checked against.
package latency

import (
	"fmt"
	"math"
)

// Function is a load-dependent latency function. Implementations must
// be convex in x on [0, MaxRate()) with nondecreasing latency, which
// makes total latency minimization a convex program.
type Function interface {
	// Latency returns l(x), the expected per-job latency at arrival
	// rate x. Behaviour outside [0, MaxRate()) is +Inf.
	Latency(x float64) float64
	// Total returns x*l(x), the latency accumulated per unit time.
	Total(x float64) float64
	// MarginalTotal returns d/dx [x*l(x)], the marginal total latency.
	// It is strictly increasing on (0, MaxRate()) for valid models.
	MarginalTotal(x float64) float64
	// MaxRate returns the supremum of feasible arrival rates
	// (capacity), or +Inf if the function is defined for all x >= 0.
	MaxRate() float64
	// InverseMarginal returns the load x in (0, MaxRate()) with
	// MarginalTotal(x) = alpha, for alpha > MarginalTotal(0).
	InverseMarginal(alpha float64) float64
	// String describes the model and its parameters.
	String() string
}

// Linear is the paper's model: l(x) = T*x with T > 0 inversely
// proportional to the computer's processing rate. A small T is a fast
// computer. It can represent the expected waiting time of an M/G/1
// queue under light load, with T the variance of the service time.
type Linear struct {
	T float64
}

// Latency implements Function.
func (f Linear) Latency(x float64) float64 {
	if x < 0 {
		return math.Inf(1)
	}
	return f.T * x
}

// Total implements Function.
func (f Linear) Total(x float64) float64 {
	if x < 0 {
		return math.Inf(1)
	}
	return f.T * x * x
}

// MarginalTotal implements Function.
func (f Linear) MarginalTotal(x float64) float64 { return 2 * f.T * x }

// MaxRate implements Function.
func (f Linear) MaxRate() float64 { return math.Inf(1) }

// InverseMarginal implements Function: 2*T*x = alpha.
func (f Linear) InverseMarginal(alpha float64) float64 { return alpha / (2 * f.T) }

func (f Linear) String() string { return fmt.Sprintf("linear(t=%g)", f.T) }

// MM1 models the computer as an M/M/1 queue with service rate Mu:
// l(x) = 1/(Mu - x) for x < Mu. This is the model of the companion
// paper, Grosu & Chronopoulos, CLUSTER 2002.
type MM1 struct {
	Mu float64
}

// Latency implements Function.
func (f MM1) Latency(x float64) float64 {
	if x < 0 || x >= f.Mu {
		return math.Inf(1)
	}
	return 1 / (f.Mu - x)
}

// Total implements Function.
func (f MM1) Total(x float64) float64 {
	if x < 0 || x >= f.Mu {
		return math.Inf(1)
	}
	return x / (f.Mu - x)
}

// MarginalTotal implements Function.
func (f MM1) MarginalTotal(x float64) float64 {
	if x < 0 || x >= f.Mu {
		return math.Inf(1)
	}
	d := f.Mu - x
	return f.Mu / (d * d)
}

// MaxRate implements Function.
func (f MM1) MaxRate() float64 { return f.Mu }

// InverseMarginal implements Function: Mu/(Mu-x)^2 = alpha.
func (f MM1) InverseMarginal(alpha float64) float64 { return f.Mu - math.Sqrt(f.Mu/alpha) }

func (f MM1) String() string { return fmt.Sprintf("mm1(mu=%g)", f.Mu) }

// MG1 models the computer as an M/G/1 queue with service rate Mu and
// squared coefficient of variation CS2 of the service time, using the
// Pollaczek-Khinchine mean sojourn time:
//
//	l(x) = 1/Mu + x*(1+CS2) / (2*Mu*(Mu-x))
//
// CS2 = 1 recovers M/M/1 sojourn; CS2 = 0 is M/D/1. It is not a
// Function: no allocator routes load by it.
type MG1 struct {
	Mu  float64
	CS2 float64
}

// Latency returns l(x), +Inf outside [0, Mu).
func (f MG1) Latency(x float64) float64 {
	if x < 0 || x >= f.Mu {
		return math.Inf(1)
	}
	return 1/f.Mu + x*(1+f.CS2)/(2*f.Mu*(f.Mu-x))
}
