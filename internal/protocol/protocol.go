// Package protocol implements the paper's centralized load balancing
// protocol as explicit message passing between a coordinator (the
// mechanism) and the agents (the computers):
//
//  1. the coordinator requests bids,
//  2. each agent reports its (possibly false) bid,
//  3. the coordinator computes the PR allocation and assigns loads,
//  4. the allocated jobs are executed on a simulated cluster while
//     the coordinator observes per-job latencies, estimates each
//     agent's actual execution value ť and verifies it against the
//     bid with estimate.Verify, the one verification policy (an
//     estimate more than 5% above the bid at z > 3 flags the agent),
//     and
//  5. the coordinator computes compensation-and-bonus payments from
//     the estimates and delivers them.
//
// One round serves both latency models: Config.Model selects the
// paper's linear flow model (the default) or M/M/1 queues, and only
// the allocation, the simulated computers, the estimator and the
// payment model change with it. The message complexity is exactly
// 5n = O(n), matching the paper's bound, and the package asserts it
// in tests. A fault plan (package faults) exercises the error paths a
// deployment would face: silent or crashed agents, lost messages and
// stalled observations.
package protocol

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/estimate"
	"repro/internal/faults"
	"repro/internal/mech"
	"repro/internal/obs"
)

// MessageKind enumerates the protocol message types.
type MessageKind int

// Protocol message kinds, in phase order.
const (
	MsgRequestBid MessageKind = iota
	MsgBid
	MsgAssign
	MsgCompleted
	MsgPayment
)

// String names the message kind.
func (k MessageKind) String() string {
	switch k {
	case MsgRequestBid:
		return "request-bid"
	case MsgBid:
		return "bid"
	case MsgAssign:
		return "assign"
	case MsgCompleted:
		return "completed"
	case MsgPayment:
		return "payment"
	default:
		return fmt.Sprintf("unknown(%d)", int(k))
	}
}

// Message is one protocol message.
type Message struct {
	// From and To identify the endpoints ("coordinator" or an agent
	// name).
	From, To string
	// Kind is the message type.
	Kind MessageKind
	// Value carries the payload: the bid, assigned rate, completed
	// job count or payment, depending on Kind.
	Value float64
}

// Network is the in-memory transport. It counts every message and can
// keep a full log. When Faults is set, the unreliable protocol phases
// (bid request, bid, completion report) pass through the fault layer
// and may be lost; allocation and payment messages are modeled as
// riding a reliable (acknowledged, retransmitting) channel, so faults
// never silently corrupt an allocation an agent acts on.
type Network struct {
	// Count is the number of messages sent (lost ones included: they
	// crossed the wire and cost bandwidth, they just never arrived).
	Count int
	// Lost counts messages the fault layer dropped.
	Lost int
	// Log holds every message when Record is true.
	Log []Message
	// Record enables message logging.
	Record bool
	// Faults filters deliveries (nil = reliable network).
	Faults faults.Injector
	// Obs counts injected faults by kind; nil disables (free).
	Obs *obs.FaultMetrics

	seq int
}

// unreliableKinds are the message kinds subject to fault injection.
func unreliable(k MessageKind) bool {
	return k == MsgRequestBid || k == MsgBid || k == MsgCompleted
}

// endpointIndex maps a protocol endpoint name to a fault-layer node
// index: the coordinator is -1, agent "Ck" is k-1. Parsed by hand —
// this runs for every message on a faulty network, and strconv.Atoi
// allocates an error for the coordinator's name on each call.
func endpointIndex(name string) int {
	if len(name) < 2 || name[0] != 'C' {
		return -1
	}
	k := 0
	for i := 1; i < len(name); i++ {
		c := name[i]
		if c < '0' || c > '9' {
			return -1
		}
		k = k*10 + int(c-'0')
	}
	return k - 1
}

// Send delivers (counts, optionally logs) a message and reports
// whether it arrived.
func (n *Network) Send(m Message) bool {
	seq := n.seq
	n.seq++
	n.Count++
	if n.Record {
		n.Log = append(n.Log, m)
	}
	if n.Faults == nil || !unreliable(m.Kind) {
		return true
	}
	d := n.Faults.Deliver(faults.Message{
		Seq:  seq,
		From: endpointIndex(m.From),
		To:   endpointIndex(m.To),
		Kind: m.Kind.String(),
	})
	if d.Drop {
		n.Lost++
		n.Obs.Injected("drop")
		return false
	}
	if d.Duplicate {
		n.Count++ // the duplicate copy also crosses the wire
		n.Obs.Injected("duplicate")
	}
	return true
}

// Strategy decides how an agent plays given its private true value.
type Strategy interface {
	// Bid returns the value the agent reports.
	Bid(trueValue float64) float64
	// Exec returns the execution value the agent actually runs at
	// (>= trueValue for legal plays).
	Exec(trueValue, bid float64) float64
}

// TruthfulStrategy bids the true value and executes at full capacity.
type TruthfulStrategy struct{}

// Bid implements Strategy.
func (TruthfulStrategy) Bid(trueValue float64) float64 { return trueValue }

// Exec implements Strategy.
func (TruthfulStrategy) Exec(trueValue, _ float64) float64 { return trueValue }

// FactorStrategy scales the truth by fixed factors — the shape of
// every deviation in the paper's Table 2.
type FactorStrategy struct {
	// BidFactor scales the reported value.
	BidFactor float64
	// ExecFactor scales the execution value.
	ExecFactor float64
}

// Bid implements Strategy.
func (s FactorStrategy) Bid(trueValue float64) float64 { return s.BidFactor * trueValue }

// Exec implements Strategy.
func (s FactorStrategy) Exec(trueValue, _ float64) float64 { return s.ExecFactor * trueValue }

// Config parameterizes a protocol round.
type Config struct {
	// Model is the latency model: nil or mech.LinearModel runs the
	// paper's linear flow model, where the agents' values are
	// per-unit latencies; mech.MM1Model runs FCFS M/M/1 queues, where
	// they are mean service times 1/mu and the coordinator estimates
	// each ť from observed sojourn times. Any other model is a
	// *ModelError.
	Model mech.Model
	// Trues are the agents' private values.
	Trues []float64
	// Strategies decide each agent's play; nil entries (or a nil
	// slice) default to TruthfulStrategy.
	Strategies []Strategy
	// Rate is the total job arrival rate R.
	Rate float64
	// Jobs is the number of jobs simulated for the execution phase
	// (default 20000, or 50000 under mech.MM1Model).
	Jobs int
	// Seed drives all randomness in the round.
	Seed uint64
	// RecordMessages keeps the full message log.
	RecordMessages bool
	// AllowDropouts makes the coordinator tolerate agents that fail
	// to bid: they are excluded from the round and the allocation is
	// recomputed over the responsive agents. Without it a silent
	// agent aborts the round with an error.
	AllowDropouts bool
	// Faults injects faults into the round (see package faults): nodes
	// marked crashed or silent never bid, stalled nodes corrupt the
	// coordinator's latency observations, and the unreliable message
	// phases (bid request, bid, completion report) may lose messages —
	// a lost bid looks exactly like a silent agent, a lost completion
	// report forces the coordinator to trust that agent's bid
	// unaudited. Nil injects nothing. A *faults.Plan naming a node
	// outside [0, len(Trues)) is a *faults.RangeError.
	Faults faults.Injector
	// Obs receives metrics and trace events from the round; nil
	// disables instrumentation at no cost.
	Obs *obs.Observer
}

// Result is the outcome of a protocol round.
type Result struct {
	// Outcome holds allocations, payments and utilities computed from
	// the *estimated* execution values — what a real deployment can
	// do.
	Outcome *mech.Outcome
	// Oracle holds the same computed from the exact execution values —
	// the paper's idealized assumption — for comparison.
	Oracle *mech.Outcome
	// Estimates are the per-agent execution-value estimates.
	Estimates []estimate.Estimate
	// Verdicts flag agents whose estimated execution value exceeds
	// their bid.
	Verdicts []estimate.Verdict
	// Messages is the number of protocol messages exchanged (5n for a
	// fully responsive round).
	Messages int
	// Lost counts messages the fault layer dropped.
	Lost int
	// Active maps the round's agent positions back to indices in
	// Config.Trues (identical when nobody dropped out).
	Active []int
	// Dropped names the agents excluded for failing to bid.
	Dropped []string
	// Net is the transport used (carries the log when recording).
	Net *Network
	// Sim is the cluster simulation result for the execution phase.
	Sim *cluster.Result
}

const coordinator = "coordinator"

// Run executes one full protocol round. It is the one-shot form of
// Engine.Run: a fresh engine is created per call, so the Result is
// caller-owned. Loops that run many rounds should hold an Engine and
// reuse it.
func Run(cfg Config) (*Result, error) {
	return NewEngine().Run(cfg)
}
