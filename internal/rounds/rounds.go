// Package rounds runs the load balancing mechanism as a long-lived
// system: repeated protocol rounds over a population of computers
// with churn (join/leave), per-round execution and verification, and
// a reputation policy that suspends computers repeatedly caught
// executing slower than they bid. This is the operational layer a
// deployment would put around the one-shot mechanism: the paper's
// verification step becomes an enforcement signal rather than just a
// payment input.
package rounds

import (
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// Policy governs how verification flags turn into suspensions.
type Policy struct {
	// Strikes is the number of flags before a computer is suspended
	// (default 2).
	Strikes int
	// BanRounds is the suspension length in rounds (default 3).
	BanRounds int
	// ForgiveAfter resets a computer's strike count when it has gone
	// that many rounds without a flag (0 = strikes never decay).
	// Without decay a rare false positive would count against an
	// honest computer forever.
	ForgiveAfter int
}

func (p Policy) withDefaults() Policy {
	if p.Strikes <= 0 {
		p.Strikes = 2
	}
	if p.BanRounds <= 0 {
		p.BanRounds = 3
	}
	return p
}

// ComputerSpec describes one computer's lifetime and behaviour.
type ComputerSpec struct {
	// True is the computer's private latency parameter.
	True float64
	// Strategy decides its play each round (nil = truthful).
	Strategy protocol.Strategy
	// JoinRound is the first round the computer participates in.
	JoinRound int
	// LeaveRound is the first round it is gone again; <= 0 means it
	// never leaves.
	LeaveRound int
}

// Config drives a multi-round simulation.
type Config struct {
	// Computers is the full population, present or future.
	Computers []ComputerSpec
	// Rate is the arrival rate per round; RateFor overrides it per
	// round when non-nil.
	Rate float64
	// RateFor optionally returns the arrival rate of a given round.
	RateFor func(round int) float64
	// Rounds is the number of rounds to run.
	Rounds int
	// JobsPerRound is the execution-simulation budget per round
	// (default 5000).
	JobsPerRound int
	// Seed drives all randomness.
	Seed uint64
	// Policy is the reputation policy.
	Policy Policy
	// Faults injects faults into every round's protocol execution (see
	// package faults). Node indices refer to Computers, and a
	// *faults.Plan naming a node outside them is a *faults.RangeError;
	// the injector is remapped onto each round's active set and
	// re-keyed per round and per retry, so the fault schedule is
	// deterministic but never repeats between attempts. Nil injects
	// nothing.
	Faults faults.Injector
	// MaxRetries is how many times a failed round is retried with a
	// re-keyed fault schedule before the simulation gives up; the
	// final attempt tolerates dropouts, degrading the round to the
	// responsive agents instead of failing it. 0 means the first
	// failed attempt fails the simulation.
	MaxRetries int
	// Obs receives metrics and trace events from every round and from
	// the retry loop; nil disables instrumentation at no cost.
	Obs *obs.Observer
}

// Record summarizes one round.
type Record struct {
	// Round is the round index.
	Round int
	// Active lists the participating computer indices.
	Active []int
	// Suspended lists computers sitting out a ban this round.
	Suspended []int
	// Latency is the realized total latency (oracle values).
	Latency float64
	// OptLatency is the optimum for the active computers' true values.
	OptLatency float64
	// Flagged lists computers whose verification failed this round.
	Flagged []int
	// TotalPayment is the mechanism's outlay this round.
	TotalPayment float64
	// Attempts is how many protocol executions this round took
	// (1 = no retries).
	Attempts int
	// Dropouts lists computers excluded from the round because their
	// bids never reached the coordinator.
	Dropouts []int
	// LostMessages counts protocol messages dropped in the accepted
	// attempt.
	LostMessages int
}

// Result is the outcome of a full simulation.
type Result struct {
	// Records holds one entry per executed round.
	Records []Record
	// Strikes is each computer's final strike count.
	Strikes []int
	// Suspensions counts how many times each computer was suspended.
	Suspensions []int
}

// Run executes the multi-round system. It is the one-shot form of
// Engine.Run: a fresh engine is created per call, so the Result is
// caller-owned. Sweeps that run many simulations should hold an
// Engine and reuse it (or use RunReplications to fan out).
func Run(cfg Config) (*Result, error) {
	return NewEngine().Run(cfg)
}
