package rounds

import (
	"repro/internal/registry"
)

// RegistrySync mirrors a multi-round simulation's population into a
// concurrent bid registry, sealing one epoch per round. It is what
// connects the rounds engine to the per-job dispatch layer: each
// round's Record describes who is serving (joins applied, leavers
// gone, suspended computers sitting out a ban), Apply replays that
// churn into the registry and seals, and the returned snapshot is
// ready for Dispatcher.Rebuild — so per-job routing follows
// round-level membership with one epoch of lag, exactly the
// alias-table rebuild protocol.
//
// Ids are registry-monotone: a computer that leaves and later rejoins
// is re-admitted under a fresh id (the registry never recycles ids),
// which keeps sealed epochs byte-identical to a serial replay of the
// same membership events.
type RegistrySync struct {
	reg  *registry.Registry
	ids  []int  // registry id per computer index, -1 while absent
	mark []bool // scratch: active set of the round being applied
}

// NewRegistrySync returns a sync for a population of the given size
// (computer indices 0..population-1, matching Config.Computers).
func NewRegistrySync(reg *registry.Registry, population int) *RegistrySync {
	s := &RegistrySync{
		reg:  reg,
		ids:  make([]int, population),
		mark: make([]bool, population),
	}
	for i := range s.ids {
		s.ids[i] = -1
	}
	return s
}

// ID returns the registry id currently backing a computer index, or
// -1 while the computer is absent from the registry.
func (s *RegistrySync) ID(idx int) int { return s.ids[idx] }

// Apply replays one round's membership into the registry — admitting
// newly active computers at their true value, removing computers that
// left or were suspended — and seals a fresh epoch. The sealed
// snapshot reflects exactly the round's active set.
func (s *RegistrySync) Apply(specs []ComputerSpec, rec *Record) (*registry.Snapshot, error) {
	for _, idx := range rec.Active {
		s.mark[idx] = true
	}
	for idx, id := range s.ids {
		if id >= 0 && !s.mark[idx] {
			if err := s.reg.Remove(id); err != nil {
				return nil, err
			}
			s.ids[idx] = -1
		}
	}
	for _, idx := range rec.Active {
		s.mark[idx] = false
		if s.ids[idx] >= 0 {
			continue
		}
		id, err := s.reg.Add(specs[idx].True)
		if err != nil {
			return nil, err
		}
		s.ids[idx] = id
	}
	return s.reg.Seal(), nil
}
