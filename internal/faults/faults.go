// Package faults is the repository's unified fault-injection layer: a
// deterministic, seedable description of what can go wrong on the
// message path of a distributed round, shared by the simulation
// engine wrapper (Transport), the tree mechanism (distmech), the
// centralized protocol (protocol) and the execution cluster (cluster).
//
// A fault plan is built by composing options:
//
//	plan := faults.New(42,
//	    faults.Drop(0.05),          // 5% of messages vanish
//	    faults.Duplicate(0.02),     // 2% are delivered twice
//	    faults.Jitter(0.003),       // up to 3ms of extra delay
//	    faults.Crash(3, 7),         // fail-stop nodes
//	    faults.Byzantine(1.1, 5),   // node 5 over-claims its payment
//	)
//
// Every decision is a pure function of (seed, message sequence
// number), never of wall-clock time or call order, so the same seed
// and plan reproduce the exact same fault schedule — the property the
// supervisor's retry traces and the chaos-matrix tests pin down.
package faults

import (
	"fmt"
	"sort"
	"strings"
)

// NodeClass is the static fault class of a node.
type NodeClass int

const (
	// NodeHealthy is a node with no injected fault.
	NodeHealthy NodeClass = iota
	// NodeCrashed is fail-stop: the node never responds to anything.
	NodeCrashed
	// NodeSilent models strategic non-response: the node receives
	// messages but never sends any (refuses to bid / to aggregate).
	NodeSilent
	// NodeStalled responds, but its outbound messages (or served
	// jobs) suffer an extra stall delay every k-th time.
	NodeStalled
	// NodeByzantine over-claims its self-computed payment by the
	// plan's claim factor — the fault the parent audit must catch.
	NodeByzantine
	// NodeFlapping alternates deterministically between healthy and
	// stalled: within every period of `period` ticks the node is
	// stalled for the first duty·period ticks. Consumers with a tick
	// notion (round index, control interval, attempt number) resolve
	// the phase through FlapPhase; consumers without one see the class
	// and treat it as healthy. This is the fault that exercises
	// hysteresis in health controllers — a flapping node trips and
	// recovers forever unless the trip/recover thresholds differ.
	NodeFlapping
)

// String names the class.
func (c NodeClass) String() string {
	switch c {
	case NodeHealthy:
		return "healthy"
	case NodeCrashed:
		return "crashed"
	case NodeSilent:
		return "silent"
	case NodeStalled:
		return "stalled"
	case NodeByzantine:
		return "byzantine"
	case NodeFlapping:
		return "flapping"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Message identifies one message (or job hand-off) on a transport, in
// transport-neutral form. Seq is the logical send sequence number
// assigned by the transport; it is the sole source of per-message
// randomness, which keeps fault schedules reproducible.
type Message struct {
	// Seq is the transport's send counter for this message.
	Seq int
	// From and To are node indices; -1 means the infrastructure
	// (coordinator, dispatcher) rather than an agent node.
	From, To int
	// Kind is a transport-specific label ("aggregate", "bid", "job").
	Kind string
}

// Decision is the fate an injector assigns to one message.
type Decision struct {
	// Drop loses the message entirely.
	Drop bool
	// Duplicate delivers one extra copy shortly after the first.
	Duplicate bool
	// ExtraDelay is added to the delivery latency, in simulated
	// seconds. Reordering faults are realized as extra delay large
	// enough to push the message behind later sends.
	ExtraDelay float64
}

// Injector is the consumer-facing interface of a fault plan. The nil
// Plan is a valid injector that injects nothing.
type Injector interface {
	// Deliver decides the fate of one message.
	Deliver(m Message) Decision
	// Class reports node i's static fault class.
	Class(node int) NodeClass
	// Stall returns the stall schedule of a NodeStalled node: an
	// extra delay applied every k-th send/observation. every == 0
	// means no stall.
	Stall(node int) (delay float64, every int)
	// ClaimFactor is the payment over-claim multiplier of a
	// NodeByzantine node (1 for honest nodes).
	ClaimFactor(node int) float64
}

// Reseeder is implemented by injectors whose message-level decisions
// can be re-keyed, so a supervisor can retry a failed round under a
// fresh — but still deterministic — fault schedule.
type Reseeder interface {
	// Reseed returns a copy of the injector with its message-decision
	// seed mixed with salt. Node classes are static and unaffected.
	Reseed(salt uint64) Injector
}

// nodeFault is one node's static fault configuration.
type nodeFault struct {
	class       NodeClass
	stallDelay  float64
	stallEvery  int
	claimFactor float64
	flapPeriod  int
	flapDuty    float64
}

// Plan is the concrete, composable Injector. The zero value and the
// nil pointer both inject nothing.
type Plan struct {
	seed       uint64
	drop       float64
	dup        float64
	jitter     float64
	reorder    float64
	reorderLag float64
	nodes      map[int]nodeFault
}

// Option configures a Plan.
type Option func(*Plan)

// New composes a fault plan from options. The seed keys every
// probabilistic decision; distinct seeds give decorrelated schedules.
func New(seed uint64, opts ...Option) *Plan {
	p := &Plan{seed: seed, reorderLag: 0.005}
	for _, o := range opts {
		if o != nil {
			o(p)
		}
	}
	return p
}

// Drop loses each message independently with probability prob.
func Drop(prob float64) Option {
	return func(p *Plan) { p.drop = clamp01(prob) }
}

// Duplicate delivers an extra copy of each message with probability
// prob.
func Duplicate(prob float64) Option {
	return func(p *Plan) { p.dup = clamp01(prob) }
}

// Jitter adds a uniform extra delay in [0, max) seconds to every
// delivery.
func Jitter(max float64) Option {
	return func(p *Plan) {
		if max > 0 {
			p.jitter = max
		}
	}
}

// Reorder pushes each message behind later traffic with probability
// prob by delaying it lag seconds (default 5ms when lag <= 0).
func Reorder(prob, lag float64) Option {
	return func(p *Plan) {
		p.reorder = clamp01(prob)
		if lag > 0 {
			p.reorderLag = lag
		}
	}
}

// Crash marks nodes fail-stop.
func Crash(nodes ...int) Option {
	return setClass(NodeCrashed, nodes)
}

// Silent marks nodes as strategic non-responders.
func Silent(nodes ...int) Option {
	return setClass(NodeSilent, nodes)
}

// Stall marks nodes as transiently stalled: every k-th outbound
// message (or observed job) suffers delay extra seconds. every <= 0
// defaults to 1 (every message); delay <= 0 defaults to 1000s.
func Stall(delay float64, every int, nodes ...int) Option {
	if delay <= 0 {
		delay = 1000
	}
	if every <= 0 {
		every = 1
	}
	return func(p *Plan) {
		for _, n := range nodes {
			f := p.node(n)
			f.class = NodeStalled
			f.stallDelay = delay
			f.stallEvery = every
			p.nodes[n] = f
		}
	}
}

// Flap marks nodes that alternate healthy/stalled deterministically:
// within each period of `period` ticks the node is stalled — by
// 1000s on every send — for the first duty·period ticks. period <= 0
// defaults to 4 ticks; duty is clamped to (0, 1) and defaults to 0.5.
// The phase is resolved against a consumer-supplied tick via
// FlapPhase.
func Flap(period int, duty float64, nodes ...int) Option {
	if period <= 0 {
		period = 4
	}
	if duty <= 0 || duty >= 1 || duty != duty {
		duty = 0.5
	}
	return func(p *Plan) {
		for _, n := range nodes {
			f := p.node(n)
			f.class = NodeFlapping
			f.flapPeriod = period
			f.flapDuty = duty
			f.stallDelay = 1000
			f.stallEvery = 1
			p.nodes[n] = f
		}
	}
}

// Byzantine marks nodes that over-claim their self-computed payment
// by the given factor (<= 0 or 1 defaults to 1.1).
func Byzantine(factor float64, nodes ...int) Option {
	if factor <= 0 || factor == 1 {
		factor = 1.1
	}
	return func(p *Plan) {
		for _, n := range nodes {
			f := p.node(n)
			f.class = NodeByzantine
			f.claimFactor = factor
			p.nodes[n] = f
		}
	}
}

func setClass(c NodeClass, nodes []int) Option {
	return func(p *Plan) {
		for _, n := range nodes {
			f := p.node(n)
			f.class = c
			p.nodes[n] = f
		}
	}
}

func (p *Plan) node(n int) nodeFault {
	if p.nodes == nil {
		p.nodes = map[int]nodeFault{}
	}
	return p.nodes[n]
}

func clamp01(v float64) float64 {
	if v < 0 || v != v {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool {
	return p == nil ||
		(p.drop == 0 && p.dup == 0 && p.jitter == 0 && p.reorder == 0 && len(p.nodes) == 0)
}

// decision salts, one per fault dimension, so the dimensions roll
// independent pseudo-random streams off the same seed.
const (
	saltDrop    = 0xd6e8feb86659fd93
	saltDup     = 0xa0761d6478bd642f
	saltJitter  = 0xe7037ed1a0b428db
	saltReorder = 0x8ebc6af09c88c6e3
)

// hash01 maps (seed, salt, seq) to a uniform float64 in [0, 1) with a
// SplitMix64-style finalizer. Pure and allocation-free.
func hash01(seed, salt uint64, seq int) float64 {
	z := seed ^ salt ^ (uint64(seq)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) * 0x1p-53
}

// Deliver implements Injector.
func (p *Plan) Deliver(m Message) Decision {
	var d Decision
	if p == nil {
		return d
	}
	if p.drop > 0 && hash01(p.seed, saltDrop, m.Seq) < p.drop {
		d.Drop = true
		return d
	}
	if p.dup > 0 && hash01(p.seed, saltDup, m.Seq) < p.dup {
		d.Duplicate = true
	}
	if p.jitter > 0 {
		d.ExtraDelay += p.jitter * hash01(p.seed, saltJitter, m.Seq)
	}
	if p.reorder > 0 && hash01(p.seed, saltReorder, m.Seq) < p.reorder {
		d.ExtraDelay += p.reorderLag
	}
	return d
}

// Class implements Injector.
func (p *Plan) Class(node int) NodeClass {
	if p == nil {
		return NodeHealthy
	}
	return p.nodes[node].class
}

// Stall implements Injector.
func (p *Plan) Stall(node int) (float64, int) {
	if p == nil {
		return 0, 0
	}
	f := p.nodes[node]
	if f.class != NodeStalled {
		return 0, 0
	}
	return f.stallDelay, f.stallEvery
}

// ClaimFactor implements Injector.
func (p *Plan) ClaimFactor(node int) float64 {
	if p == nil {
		return 1
	}
	f := p.nodes[node]
	if f.class != NodeByzantine || f.claimFactor == 0 {
		return 1
	}
	return f.claimFactor
}

// Flapper is the optional interface of injectors that carry flapping
// nodes. It is separate from Injector so existing implementations
// (including test doubles) keep compiling; consumers go through the
// package-level FlapSpec and FlapPhase helpers, which degrade to
// "no flapping" on injectors without it.
type Flapper interface {
	// FlapSpec reports node's flap schedule: the period in ticks, the
	// stalled duty fraction, and the stall delay applied per send
	// during the stalled phase. period == 0 means the node does not
	// flap.
	FlapSpec(node int) (period int, duty, delay float64)
}

// FlapSpec implements Flapper.
func (p *Plan) FlapSpec(node int) (int, float64, float64) {
	if p == nil {
		return 0, 0, 0
	}
	f := p.nodes[node]
	if f.class != NodeFlapping {
		return 0, 0, 0
	}
	return f.flapPeriod, f.flapDuty, f.stallDelay
}

// FlapSpec queries inj's flap schedule for node, returning period 0
// when the injector carries none (or does not implement Flapper).
func FlapSpec(inj Injector, node int) (period int, duty, delay float64) {
	if fl, ok := inj.(Flapper); ok {
		return fl.FlapSpec(node)
	}
	return 0, 0, 0
}

// FlapStalled reports whether a flapping node is in its stalled phase
// at the given tick: tick mod period falls inside the first
// duty·period ticks of the period. Non-flapping nodes are never
// stalled. Negative ticks are treated as 0.
func FlapStalled(inj Injector, node, tick int) bool {
	period, duty, _ := FlapSpec(inj, node)
	if period <= 0 {
		return false
	}
	if tick < 0 {
		tick = 0
	}
	return float64(tick%period) < duty*float64(period)
}

// FlapPhase resolves flapping nodes at one tick into the static
// vocabulary every transport already understands: the returned
// injector reports a flapping node as NodeStalled (with its stall
// schedule) during its stalled phase and as NodeHealthy otherwise.
// All other behaviour delegates to inj. Wrapping per round / attempt /
// control interval is how rounds, supervise and health make flapping
// nodes actually flap.
func FlapPhase(inj Injector, tick int) Injector {
	if inj == nil {
		return None
	}
	if fl, ok := inj.(Flapper); !ok || fl == nil {
		return inj
	}
	return &flapPhase{inner: inj, tick: tick}
}

// flapPhase is the FlapPhase view: one tick's resolution of flapping
// nodes.
type flapPhase struct {
	inner Injector
	tick  int
}

func (f *flapPhase) Deliver(m Message) Decision { return f.inner.Deliver(m) }

func (f *flapPhase) Class(node int) NodeClass {
	c := f.inner.Class(node)
	if c != NodeFlapping {
		return c
	}
	if FlapStalled(f.inner, node, f.tick) {
		return NodeStalled
	}
	return NodeHealthy
}

func (f *flapPhase) Stall(node int) (float64, int) {
	if f.inner.Class(node) == NodeFlapping {
		if FlapStalled(f.inner, node, f.tick) {
			_, _, delay := FlapSpec(f.inner, node)
			return delay, 1
		}
		return 0, 0
	}
	return f.inner.Stall(node)
}

func (f *flapPhase) ClaimFactor(node int) float64 { return f.inner.ClaimFactor(node) }

func (f *flapPhase) Reseed(salt uint64) Injector {
	return &flapPhase{inner: Reseed(f.inner, salt), tick: f.tick}
}

// Reseed implements Reseeder: same node faults, re-keyed message
// decisions.
func (p *Plan) Reseed(salt uint64) Injector {
	if p == nil {
		return (*Plan)(nil)
	}
	q := *p
	q.seed = mix(p.seed, salt)
	return &q
}

func mix(seed, salt uint64) uint64 {
	z := seed ^ salt*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	return z ^ (z >> 27)
}

// String renders the plan as a canonical spec string (parsable by
// ParseSpec), with node lists sorted for determinism.
func (p *Plan) String() string {
	if p.Empty() {
		return "none"
	}
	var parts []string
	add := func(format string, args ...any) {
		parts = append(parts, fmt.Sprintf(format, args...))
	}
	add("seed=%d", p.seed)
	if p.drop > 0 {
		add("drop=%g", p.drop)
	}
	if p.dup > 0 {
		add("dup=%g", p.dup)
	}
	if p.jitter > 0 {
		add("jitter=%g", p.jitter)
	}
	if p.reorder > 0 {
		add("reorder=%g@%g", p.reorder, p.reorderLag)
	}
	byClass := map[NodeClass][]int{}
	for n, f := range p.nodes {
		if f.class != NodeHealthy {
			byClass[f.class] = append(byClass[f.class], n)
		}
	}
	for _, c := range []NodeClass{NodeCrashed, NodeSilent, NodeStalled, NodeByzantine, NodeFlapping} {
		ns := byClass[c]
		if len(ns) == 0 {
			continue
		}
		sort.Ints(ns)
		switch c {
		case NodeCrashed:
			add("crash=%s", joinNodes(ns))
		case NodeSilent:
			add("silent=%s", joinNodes(ns))
		case NodeStalled:
			f := p.nodes[ns[0]]
			add("stall=%s@%g:%d", joinNodes(ns), f.stallDelay, f.stallEvery)
		case NodeByzantine:
			f := p.nodes[ns[0]]
			add("byz=%s@%g", joinNodes(ns), f.claimFactor)
		case NodeFlapping:
			f := p.nodes[ns[0]]
			add("flap=%s@%d:%g", joinNodes(ns), f.flapPeriod, f.flapDuty)
		}
	}
	return strings.Join(parts, ",")
}

func joinNodes(ns []int) string {
	parts := make([]string, len(ns))
	for i, n := range ns {
		parts[i] = fmt.Sprintf("%d", n)
	}
	return strings.Join(parts, "+")
}

// None is the injector that injects nothing.
var None Injector = (*Plan)(nil)

// RangeError reports a fault plan that names a node outside a round's
// population.
type RangeError struct {
	// Node is the smallest out-of-range node the plan names.
	Node int
	// N is the population size: valid nodes are 0..N-1.
	N int
}

// Error implements error.
func (e *RangeError) Error() string {
	return fmt.Sprintf("faults: plan names node %d, outside [0, %d)", e.Node, e.N)
}

// CheckNodes returns a *RangeError when inj is a *Plan that gives a
// fault to a node outside [0, n), naming the smallest such node. A
// plan speaks population node ids, so round engines check it once on
// entry; other injectors (the Remap, Reseed and FlapPhase views a
// supervisor derives per attempt) are not checked.
func CheckNodes(inj Injector, n int) error {
	p, ok := inj.(*Plan)
	if !ok || p == nil {
		return nil
	}
	var bad *RangeError
	for node := range p.nodes {
		if (node < 0 || node >= n) && (bad == nil || node < bad.Node) {
			bad = &RangeError{Node: node, N: n}
		}
	}
	if bad == nil {
		return nil
	}
	return bad
}

// Reseed re-keys an injector's message decisions when it supports it
// (see Reseeder) and returns it unchanged otherwise. Salt 0 is the
// identity by convention.
func Reseed(inj Injector, salt uint64) Injector {
	if inj == nil {
		return None
	}
	if salt == 0 {
		return inj
	}
	if r, ok := inj.(Reseeder); ok {
		return r.Reseed(salt)
	}
	return inj
}

// Remap views an injector through an index translation: local node i
// of the returned injector is original node orig[i] of inj. Message
// sequence numbers pass through untouched (they are transport-local).
// Supervisors use this to run a retry over a surviving subset while
// the plan keeps speaking original node ids.
func Remap(inj Injector, orig []int) Injector {
	if inj == nil {
		return None
	}
	idx := append([]int(nil), orig...)
	return &remapped{inner: inj, orig: idx}
}

type remapped struct {
	inner Injector
	orig  []int
}

func (r *remapped) translate(local int) int {
	if local < 0 || local >= len(r.orig) {
		return local
	}
	return r.orig[local]
}

func (r *remapped) Deliver(m Message) Decision {
	m.From = r.translate(m.From)
	m.To = r.translate(m.To)
	return r.inner.Deliver(m)
}

func (r *remapped) Class(node int) NodeClass { return r.inner.Class(r.translate(node)) }

func (r *remapped) Stall(node int) (float64, int) { return r.inner.Stall(r.translate(node)) }

func (r *remapped) ClaimFactor(node int) float64 { return r.inner.ClaimFactor(r.translate(node)) }

func (r *remapped) FlapSpec(node int) (int, float64, float64) {
	return FlapSpec(r.inner, r.translate(node))
}

func (r *remapped) Reseed(salt uint64) Injector {
	return &remapped{inner: Reseed(r.inner, salt), orig: r.orig}
}
