package swarm

import "repro/internal/numeric"

// Reference is the serial differential oracle for Swarm: the same
// protocol, the same stream layout (churn stream, placement stream,
// per-round block substreams in block order), implemented the obvious
// way — a single loop over tasks mutating the canonical counts
// directly, with migration decisions read off the frozen start-of-
// round snapshot. No fan-out, no worker deltas, no merge. A Swarm and
// a Reference built from the same Config (Workers aside) must produce
// byte-identical counts, assignments and stats after every round;
// diff_test pins that across worker counts, seeds and churn.
//
// Keep this implementation boring. Its value is that it shares none
// of Swarm's aggregation machinery, so a bug in the delta merge, slot
// recycling or fan-out cannot cancel itself out here.
type Reference struct {
	state
	blockRand []numeric.Rand
}

// NewReference builds the serial oracle from cfg. Workers and Metrics
// are ignored.
func NewReference(cfg Config) (*Reference, error) {
	cfg.Metrics = nil
	st, err := newState(cfg)
	if err != nil {
		return nil, err
	}
	return &Reference{state: *st}, nil
}

// Counts returns the canonical per-machine task counts (read-only).
func (f *Reference) Counts() []int64 { return f.counts }

// Assignments returns the live task→machine prefix (read-only).
func (f *Reference) Assignments() []int32 { return f.assign[:f.m] }

// Round runs one serial migration round.
func (f *Reference) Round() RoundStats {
	f.round++
	joined, left := f.applyChurn()
	f.refreshLoads()
	nb := (f.m + f.block - 1) / f.block
	if nb > cap(f.blockRand) {
		f.blockRand = make([]numeric.Rand, nb)
	}
	f.blockRand = f.blockRand[:nb]
	for b := range f.blockRand {
		f.root.SplitInto(&f.blockRand[b])
	}
	var migrations int64
	for b := 0; b < nb; b++ {
		r := &f.blockRand[b]
		lo, hi := b*f.block, (b+1)*f.block
		if hi > f.m {
			hi = f.m
		}
		for k := lo; k < hi; k++ {
			src := f.assign[k]
			dst := int32(r.Intn(f.n))
			if dst == src {
				continue
			}
			ls, ld := f.load[src], f.load[dst]
			if ld >= ls {
				continue
			}
			if r.Float64()*ls < ls-ld {
				f.assign[k] = dst
				f.counts[src]--
				f.counts[dst]++
				migrations++
			}
		}
	}
	return f.stats(joined, left, migrations)
}
