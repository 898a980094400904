package protocol

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/estimate"
	"repro/internal/faults"
	"repro/internal/mech"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Engine amortizes a protocol round's working state across many runs:
// the transport, the agent and estimate buffers, the simulated nodes
// (flow nodes with their RNG streams, or FCFS queues), the job source
// and the cluster scratch (whose discrete-event engine pools its
// events), plus the two payment engines (estimated and oracle). A
// long-running coordinator that executes a round per epoch reuses one
// Engine so that a steady-state round does near-zero heap allocation.
//
// The Result returned by Run is owned by the engine and is valid only
// until the next Run call; Run produces byte-identical results to the
// package-level Run for the same Config. An Engine is not safe for
// concurrent use — create one per goroutine.
type Engine struct {
	net        Network
	root       numeric.Rand
	nodeParent numeric.Rand
	srcRNG     numeric.Rand
	clRNG      numeric.Rand
	src        workload.Poisson
	cl         cluster.Scratch
	model      mech.Model // the model payEng and oracleEng price with
	payEng     *mech.Engine
	oracleEng  *mech.Engine

	names      []string // cached "C%d" labels, by index
	agentNames []string
	agents     []mech.Agent
	estimated  []mech.Agent
	active     []int
	dropped    []string
	bids       []float64
	probs      []float64
	x          []float64
	estimates  []estimate.Estimate
	verdicts   []estimate.Verdict
	flow       []cluster.FlowNode
	queue      []cluster.QueueNode
	nodeRNG    []numeric.Rand
	nodes      []cluster.Node
	samples    []float64
	res        Result
}

var errNeedTwoAgents = errors.New("protocol: need at least two agents")

// ModelError reports a Config.Model the round cannot run: the round
// simulates linear flow nodes and M/M/1 queues only.
type ModelError struct {
	// Model names the rejected model.
	Model string
}

// Error implements error.
func (e *ModelError) Error() string {
	return fmt.Sprintf("protocol: unsupported model %s (want linear or mm1)", e.Model)
}

// NewEngine returns a reusable protocol round engine.
func NewEngine() *Engine { return &Engine{} }

// nameOf returns the cached label "C<i+1>".
func (e *Engine) nameOf(i int) string {
	for len(e.names) <= i {
		e.names = append(e.names, fmt.Sprintf("C%d", len(e.names)+1))
	}
	return e.names[i]
}

// Run executes one full protocol round, reusing the engine's buffers.
// The returned Result is invalidated by the next Run.
func (e *Engine) Run(cfg Config) (*Result, error) {
	n := len(cfg.Trues)
	if n < 2 {
		return nil, errNeedTwoAgents
	}
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("protocol: invalid rate %g", cfg.Rate)
	}
	model := cfg.Model
	if model == nil {
		model = mech.LinearModel{}
	}
	_, mm1 := model.(mech.MM1Model)
	if _, linear := model.(mech.LinearModel); !linear && !mm1 {
		return nil, &ModelError{Model: model.Name()}
	}
	if err := faults.CheckNodes(cfg.Faults, n); err != nil {
		return nil, err
	}
	jobs := cfg.Jobs
	if jobs <= 0 {
		jobs = 20000
		if mm1 {
			jobs = 50000
		}
	}
	if cfg.Strategies != nil && len(cfg.Strategies) != n {
		return nil, fmt.Errorf("protocol: %d strategies for %d agents", len(cfg.Strategies), n)
	}
	inj := cfg.Faults
	if inj == nil {
		inj = faults.None
	}
	if e.model != model {
		e.model = model
		e.payEng = mech.NewEngine(mech.CompensationBonus{Model: model})
		e.oracleEng = mech.NewEngine(mech.CompensationBonus{Model: model})
	}

	met := cfg.Obs.RoundMetrics()
	fm := cfg.Obs.FaultMetrics()
	e.net = Network{Record: cfg.RecordMessages, Faults: inj, Obs: fm, Log: e.net.Log[:0]}
	net := &e.net
	e.root.Reset(cfg.Seed)
	names := e.agentNames[:0]
	agents := e.agents[:0]
	active := e.active[:0]
	dropped := e.dropped[:0]

	// Phases 1-2: bid collection. A crashed or silent node, a lost bid
	// request and a lost bid all look the same to the coordinator: no
	// bid arrives.
	for i, tv := range cfg.Trues {
		name := e.nameOf(i)
		reqArrived := net.Send(Message{From: coordinator, To: name, Kind: MsgRequestBid})
		var s Strategy = TruthfulStrategy{}
		if cfg.Strategies != nil && cfg.Strategies[i] != nil {
			s = cfg.Strategies[i]
		}
		bid := 0.0
		if cls := inj.Class(i); reqArrived && cls != faults.NodeCrashed && cls != faults.NodeSilent {
			bid = s.Bid(tv)
		}
		if bid <= 0 {
			if cfg.AllowDropouts {
				dropped = append(dropped, name)
				continue
			}
			e.stash(names, agents, active, dropped)
			return nil, fmt.Errorf("protocol: agent %s failed to bid", name)
		}
		if !net.Send(Message{From: name, To: coordinator, Kind: MsgBid, Value: bid}) {
			if cfg.AllowDropouts {
				dropped = append(dropped, name)
				continue
			}
			e.stash(names, agents, active, dropped)
			return nil, fmt.Errorf("protocol: agent %s failed to bid", name)
		}
		names = append(names, name)
		active = append(active, i)
		agents = append(agents, mech.Agent{
			Name: name,
			True: tv,
			Bid:  bid,
			Exec: s.Exec(tv, bid),
		})
	}
	e.stash(names, agents, active, dropped)
	if len(agents) < 2 {
		return nil, fmt.Errorf("protocol: only %d responsive agents", len(agents))
	}
	n = len(agents)

	// Phase 3: allocation.
	e.bids = resize(e.bids, n)
	for i := range agents {
		e.bids[i] = agents[i].Bid
	}
	var x []float64
	var err error
	if ip, ok := model.(mech.InPlaceAllocator); ok {
		x, err = ip.AllocInto(e.bids, cfg.Rate, e.x)
	} else {
		x, err = model.Alloc(e.bids, cfg.Rate)
	}
	if err != nil {
		return nil, fmt.Errorf("protocol: allocation: %w", err)
	}
	e.x = x
	for i := range agents {
		net.Send(Message{From: coordinator, To: names[i], Kind: MsgAssign, Value: x[i]})
	}

	// Phase 4: execution on the simulated cluster, with observation.
	// Linear agents run as flow nodes, each with its own RNG stream
	// split off the root before the source and routing streams. M/M/1
	// agents run as FCFS queues at their actual service rates
	// mu = 1/exec, serving exponential job sizes; they draw nothing, so
	// the source and routing streams are the root's first two splits.
	e.nodes = resize(e.nodes, n)
	var sizes workload.SizeDist
	if mm1 {
		e.queue = resize(e.queue, n)
		for i := range e.queue {
			e.queue[i] = cluster.QueueNode{ID: e.nameOf(i), Mu: 1 / agents[i].Exec}
			e.nodes[i] = &e.queue[i]
		}
		sizes = workload.ExpSize{}
	} else {
		e.flow = resize(e.flow, n)
		e.nodeRNG = resize(e.nodeRNG, n)
		e.root.SplitInto(&e.nodeParent)
		for i := range e.flow {
			e.nodeParent.SplitInto(&e.nodeRNG[i])
			e.flow[i] = cluster.FlowNode{
				ID:   e.nameOf(i),
				T:    agents[i].Exec,
				Rate: x[i],
				RNG:  &e.nodeRNG[i],
			}
			e.nodes[i] = &e.flow[i]
		}
	}
	e.root.SplitInto(&e.srcRNG)
	e.src.Reset(cfg.Rate, jobs, sizes, &e.srcRNG)
	e.root.SplitInto(&e.clRNG)
	e.probs = resize(e.probs, n)
	for i, v := range x {
		e.probs[i] = v / cfg.Rate
	}
	simRes, err := e.cl.Run(cluster.Config{
		Nodes:       e.nodes,
		Probs:       e.probs,
		Source:      &e.src,
		RNG:         &e.clRNG,
		KeepSamples: true,
	})
	if err != nil {
		return nil, fmt.Errorf("protocol: execution simulation: %w", err)
	}

	e.estimates = resize(e.estimates, n)
	e.verdicts = resize(e.verdicts, n)
	estimates, verdicts := e.estimates, e.verdicts
	estimated := append(e.estimated[:0], agents...)
	e.estimated = estimated
	for i := range agents {
		reported := net.Send(Message{
			From: names[i], To: coordinator, Kind: MsgCompleted,
			Value: float64(simRes.PerNode[i].Jobs),
		})
		// Estimate against the rate the coordinator assigned: the
		// coordinator is itself the dispatcher, so x_i is known
		// exactly, and using the (noisy) observed arrival rate would
		// understate the estimator's uncertainty.
		samples := simRes.PerNode[i].Latencies
		if !reported {
			// The completion report was lost: the coordinator cannot
			// match its observations to the agent's accounting, so it
			// falls back to trusting the bid, unaudited.
			samples = nil
		}
		if stall, k := inj.Stall(active[i]); k > 0 {
			e.samples = append(e.samples[:0], samples...)
			samples = e.samples
			for j := 0; j < len(samples); j += k {
				samples[j] = stall
				fm.Injected("stall")
			}
		}
		if len(samples) == 0 || x[i] <= 0 {
			// No jobs observed (possible only under extreme
			// allocations): fall back to trusting the bid.
			estimates[i] = estimate.Estimate{Value: agents[i].Bid, N: 0}
		} else {
			estFn := estimate.FromFlowDelays
			if mm1 {
				estFn = estimate.FromMM1Sojourns
			}
			est, err := estFn(samples, x[i])
			if err != nil {
				return nil, fmt.Errorf("protocol: estimating agent %s: %w", names[i], err)
			}
			estimates[i] = est
		}
		verdicts[i] = estimate.Verify(estimates[i], agents[i].Bid)
		if verdicts[i].Invalid {
			met.VerdictInvalid()
			cfg.Obs.Emit(obs.Event{
				Layer: "protocol", Kind: "verdict-invalid", Node: active[i],
				Detail: names[i], Value: estimates[i].Value,
			})
		} else if verdicts[i].Deviating {
			met.AuditFlagged(1)
			cfg.Obs.Emit(obs.Event{
				Layer: "protocol", Kind: "audit-flag", Node: active[i],
				Detail: names[i], Value: verdicts[i].ZScore,
			})
		}
		estimated[i].Exec = estimates[i].Value
	}

	outcome, err := e.payEng.Run(estimated, cfg.Rate)
	if err != nil {
		return nil, fmt.Errorf("protocol: payment computation: %w", err)
	}
	oracle, err := e.oracleEng.Run(agents, cfg.Rate)
	if err != nil {
		return nil, fmt.Errorf("protocol: oracle payment computation: %w", err)
	}

	// Phase 5: payments.
	for i := range agents {
		net.Send(Message{From: coordinator, To: names[i], Kind: MsgPayment, Value: outcome.Payment[i]})
	}

	met.AddMessages(net.Count, net.Lost, 0)
	met.RoundDone("ok", simRes.Duration)
	if cfg.Obs != nil {
		// Guarded so the Sprintf is not paid when nobody listens.
		cfg.Obs.Emit(obs.Event{
			Layer: "protocol", Kind: "round-ok",
			Detail: fmt.Sprintf("agents=%d dropped=%d messages=%d", n, len(dropped), net.Count),
			Value:  simRes.Duration,
		})
	}

	e.res = Result{
		Outcome:   outcome,
		Oracle:    oracle,
		Estimates: estimates,
		Verdicts:  verdicts,
		Messages:  net.Count,
		Lost:      net.Lost,
		Active:    active,
		Dropped:   dropped,
		Net:       net,
		Sim:       simRes,
	}
	return &e.res, nil
}

// stash writes the bid-phase append targets back onto the engine so
// their grown capacity is kept for the next round even on error paths.
func (e *Engine) stash(names []string, agents []mech.Agent, active []int, dropped []string) {
	e.agentNames, e.agents, e.active, e.dropped = names, agents, active, dropped
}

// resize returns s with length n, reusing its capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
