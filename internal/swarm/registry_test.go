package swarm

import (
	"errors"
	"math"
	"testing"

	"repro/internal/registry"
)

// sealPopulation builds a registry with the given bids and seals one
// epoch.
func sealPopulation(t *testing.T, bids []float64, rate float64) *registry.Snapshot {
	t.Helper()
	r, err := registry.New(registry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetRate(rate); err != nil {
		t.Fatal(err)
	}
	for _, b := range bids {
		if _, err := r.Add(b); err != nil {
			t.Fatal(err)
		}
	}
	return r.Seal()
}

// TestConfigFromSnapshot builds a swarm Config from a sealed epoch's
// Bids, the way lbswarm does, and checks it carries the sealed bids
// over in id order: the optimum share 1/(t_j·S) of machine j is
// Snapshot.Load/R for the j-th live id. An empty epoch yields no
// machines, which New rejects.
func TestConfigFromSnapshot(t *testing.T) {
	bids := []float64{2, 0.5, 1, 4, 0.25}
	snap := sealPopulation(t, bids, 120)
	cfg := Config{Tasks: 50000, T: snap.Bids(nil)}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Machines() != len(bids) || s.Tasks() != 50000 {
		t.Fatalf("swarm has %d machines / %d tasks", s.Machines(), s.Tasks())
	}
	var sum float64
	for j, id := range snap.IDs(nil) {
		share := 1 / (cfg.T[j] * snap.Sum())
		load, _ := snap.Load(id)
		if want := load / snap.Rate(); math.Abs(share-want) > 1e-15 {
			t.Errorf("share[%d] = %g, snapshot load/R = %g", j, share, want)
		}
		sum += share
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %g, want 1", sum)
	}

	empty := sealPopulation(t, nil, 0)
	var ce *ConfigError
	if _, err := New(Config{Tasks: 10, T: empty.Bids(nil)}); !errors.As(err, &ce) {
		t.Errorf("New over an empty epoch: err = %v, want a *ConfigError", err)
	}
}

// TestSwarmConvergesToSnapshotOptimum runs the selfish dynamics over
// a sealed epoch and checks the empirical shares land on the epoch's
// PR optimum.
func TestSwarmConvergesToSnapshotOptimum(t *testing.T) {
	bids := []float64{1, 1.5, 2, 3, 5, 8, 0.75, 0.5}
	snap := sealPopulation(t, bids, 500)
	s, err := New(Config{Tasks: 200000, T: snap.Bids(nil), Seed: 21, PlaceSingle: true})
	if err != nil {
		t.Fatal(err)
	}
	var last RoundStats
	for r := 0; r < 150; r++ {
		last = s.Round()
	}
	if last.TVOptimum > 0.01 {
		t.Fatalf("TV to the sealed optimum %g > 0.01 after 150 rounds", last.TVOptimum)
	}
	shares := s.Shares(nil)
	for i, id := range snap.IDs(nil) {
		load, _ := snap.Load(id)
		if want := load / snap.Rate(); math.Abs(shares[i]-want) > 0.03*want+1e-3 {
			t.Errorf("machine %d: share %g, sealed optimum %g", i, shares[i], want)
		}
	}
}
