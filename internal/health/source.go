package health

// Source is the deterministic synthetic observation generator: it
// turns a faults.Plan into the estimate streams the Controller would
// see from live traffic, so every state transition — degradation,
// ejection, probing, slow-start recovery — can be replayed bitwise
// from (seed, plan, declared values) alone. The chaos tests and
// lbsim's -health runner are built on it.

import (
	"math"
	"sort"

	"repro/internal/estimate"
	"repro/internal/faults"
)

// The synthetic observation stream's fixed shape.
const (
	// noise is the relative sampling noise of a healthy observation:
	// estimates land within ~1% of truth.
	noise = 0.01
	// samples is the pseudo sample count behind each estimate; the
	// standard error shrinks as 1/sqrt(samples).
	samples = 64
	// slowdown is the realized-latency multiplier of a stalled or
	// flapping-in-stalled-phase computer: it executes 50% slower than
	// declared.
	slowdown = 1.5
)

// SourceConfig sets the fault window of the synthetic observation
// stream. The zero value gets defaults.
type SourceConfig struct {
	// FaultFrom is the first control tick (1-based) at which the fault
	// plan is active (default 1: faulty from the start). Before it,
	// every computer behaves honestly — use it to let the controller
	// settle, or a mid-run kill.
	FaultFrom int
	// FaultUntil is the first tick at which faults stop (the computer
	// is repaired); <= 0 means the faults persist forever. A window
	// [FaultFrom, FaultUntil) plus a long run exercises the full
	// eject → probe → slow-start recovery arc.
	FaultUntil int
}

func (c SourceConfig) withDefaults() SourceConfig {
	if c.FaultFrom <= 0 {
		c.FaultFrom = 1
	}
	return c
}

// Source generates per-tick Observation batches. It is deterministic:
// Tick(k) is a pure function of (seed, plan, declared values, k).
type Source struct {
	seed     uint64
	inj      faults.Injector
	cfg      SourceConfig
	ids      []int
	declared map[int]float64
	buf      []Observation
}

// NewSource returns a source over the fault plan (nil for an all-honest
// population).
func NewSource(seed uint64, inj faults.Injector, cfg SourceConfig) *Source {
	return &Source{
		seed:     seed,
		inj:      inj,
		cfg:      cfg.withDefaults(),
		declared: map[int]float64{},
	}
}

// Add registers a computer and its declared (truthful) execution
// value. Re-adding an id updates the declaration.
func (s *Source) Add(id int, declared float64) {
	if _, ok := s.declared[id]; !ok {
		s.ids = append(s.ids, id)
		sort.Ints(s.ids)
	}
	s.declared[id] = declared
}

// Active reports whether the fault plan applies at the given tick.
func (s *Source) Active(tick int) bool {
	if s.inj == nil {
		return false
	}
	return tick >= s.cfg.FaultFrom && (s.cfg.FaultUntil <= 0 || tick < s.cfg.FaultUntil)
}

// Tick produces the tick's observations in ascending-id order. Crashed
// and silent computers produce none (the controller counts the silent
// tick as a timeout); stalled and flapping-in-phase computers report
// slowdown-inflated latency; Byzantine computers report latency
// inflated by their claim factor. The returned slice is reused across
// calls.
func (s *Source) Tick(tick int) []Observation {
	s.buf = s.buf[:0]
	active := s.Active(tick)
	for _, id := range s.ids {
		factor := 1.0
		if active {
			switch s.inj.Class(id) {
			case faults.NodeCrashed, faults.NodeSilent:
				continue // no response: the controller sees a timeout
			case faults.NodeStalled:
				factor = slowdown
			case faults.NodeByzantine:
				if cf := s.inj.ClaimFactor(id); cf > 1 {
					factor = cf
				} else {
					factor = slowdown
				}
			case faults.NodeFlapping:
				if faults.FlapStalled(s.inj, id, tick) {
					factor = slowdown
				}
			}
		}
		truth := s.declared[id] * factor
		g := gauss(s.seed, uint64(id), uint64(tick))
		value := truth * (1 + noise*g)
		se := truth * noise / math.Sqrt(samples)
		s.buf = append(s.buf, Observation{
			ID: id,
			Est: estimate.Estimate{
				Value:  value,
				StdErr: se,
				N:      samples,
				Lo:     value - 1.959963984540054*se,
				Hi:     value + 1.959963984540054*se,
			},
		})
	}
	return s.buf
}

// h01 maps (seed, a, b) to a uniform in [0, 1) via a splitmix64-style
// finalizer — the same stateless-hash discipline as package faults, so
// streams replay identically regardless of call order.
func h01(seed, a, b uint64) float64 {
	x := seed ^ a*0x9E3779B97F4A7C15 ^ b*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// gauss draws a standard normal deterministically from (seed, a, b)
// via Box-Muller over two hash lanes.
func gauss(seed, a, b uint64) float64 {
	u1 := h01(seed, a, b*2+1)
	u2 := h01(seed, a, b*2+2)
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
