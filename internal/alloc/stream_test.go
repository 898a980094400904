package alloc

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/numeric"
)

func TestStreamMatchesBatchAllocator(t *testing.T) {
	st, err := NewStream(20)
	if err != nil {
		t.Fatal(err)
	}
	ts := []float64{1, 1, 2, 2, 2, 5, 5, 5, 5, 5, 10, 10, 10, 10, 10, 10}
	ids := make([]int, len(ts))
	for i, v := range ts {
		id, err := st.Add(v)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	want, err := Proportional(ts, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		got, err := st.Load(id)
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.AlmostEqual(got, want[i], 1e-12, 1e-15) {
			t.Errorf("load[%d] = %v, want %v", i, got, want[i])
		}
	}
	if got := st.OptimalLatency(); !numeric.AlmostEqual(got, 400.0/5.1, 1e-12, 0) {
		t.Errorf("optimal latency = %v", got)
	}
	// Exclusion optimum matches the closed form.
	lExcl, err := st.ExclusionLatency(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(lExcl, 400.0/4.1, 1e-12, 0) {
		t.Errorf("exclusion latency = %v, want %v", lExcl, 400.0/4.1)
	}
}

func TestStreamChurnEquivalence(t *testing.T) {
	// Random add/remove/update churn must leave the stream equivalent
	// to a batch allocator over the surviving population.
	prop := func(seed uint64) bool {
		r := numeric.NewRand(seed)
		st, err := NewStream(10)
		if err != nil {
			return false
		}
		var live []int
		vals := map[int]float64{}
		for op := 0; op < 300; op++ {
			switch {
			case len(live) == 0 || r.Float64() < 0.5:
				v := 0.1 + 10*r.Float64()
				id, err := st.Add(v)
				if err != nil {
					return false
				}
				live = append(live, id)
				vals[id] = v
			case r.Float64() < 0.5:
				i := r.Intn(len(live))
				if st.Remove(live[i]) != nil {
					return false
				}
				delete(vals, live[i])
				live = append(live[:i], live[i+1:]...)
			default:
				i := r.Intn(len(live))
				v := 0.1 + 10*r.Float64()
				if st.Update(live[i], v) != nil {
					return false
				}
				vals[live[i]] = v
			}
		}
		if st.N() != len(live) {
			return false
		}
		if len(live) == 0 {
			return true
		}
		ids, x := st.Snapshot()
		ts := make([]float64, len(ids))
		for i, id := range ids {
			ts[i] = vals[id]
		}
		want, err := Proportional(ts, 10)
		if err != nil {
			return false
		}
		for i := range x {
			if !numeric.AlmostEqual(x[i], want[i], 1e-9, 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestStreamDriftBoundedByRebuild(t *testing.T) {
	st, err := NewStream(5)
	if err != nil {
		t.Fatal(err)
	}
	anchor, err := st.Add(2)
	if err != nil {
		t.Fatal(err)
	}
	// Hammer the running sum with 100k adds/removes of awkward values.
	r := numeric.NewRand(3)
	for i := 0; i < 100000; i++ {
		id, err := st.Add(0.1 + 10*r.Float64())
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	// Only the anchor remains; S must be exactly 1/2 up to the rebuild
	// tolerance.
	if math.Abs(st.Sum()-0.5) > 1e-9 {
		t.Errorf("S drifted to %v, want 0.5", st.Sum())
	}
	x, err := st.Load(anchor)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-5) > 1e-8 {
		t.Errorf("anchor load = %v, want 5", x)
	}
}

func TestStreamEdgeCases(t *testing.T) {
	if _, err := NewStream(-1); err == nil {
		t.Error("expected error for negative rate")
	}
	st, err := NewStream(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Add(0); err == nil {
		t.Error("expected error for t=0")
	}
	// A subnormal bid is positive and finite but 1/t is +Inf; admitting
	// it would make every later Sealed S Inf or NaN.
	var ve *ValueError
	if _, err := st.Add(1e-310); !errors.As(err, &ve) {
		t.Errorf("Add(1e-310) = %v, want *ValueError", err)
	}
	if err := st.Remove(99); err == nil {
		t.Error("expected error for unknown id")
	}
	if err := st.Update(99, 1); err == nil {
		t.Error("expected error for unknown id")
	}
	if _, err := st.Load(99); err == nil {
		t.Error("expected error for unknown id")
	}
	if _, err := st.ExclusionLatency(99); err == nil {
		t.Error("expected error for unknown id")
	}
	// Empty system.
	if !math.IsInf(st.OptimalLatency(), 1) {
		t.Error("empty system optimum should be +Inf at positive rate")
	}
	if err := st.SetRate(0); err != nil {
		t.Fatal(err)
	}
	if st.OptimalLatency() != 0 {
		t.Error("zero-rate empty optimum should be 0")
	}
	// Single computer: exclusion is an empty system.
	if err := st.SetRate(3); err != nil {
		t.Fatal(err)
	}
	id, err := st.Add(1)
	if err != nil {
		t.Fatal(err)
	}
	lExcl, err := st.ExclusionLatency(id)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(lExcl, 1) {
		t.Errorf("single-computer exclusion = %v, want +Inf", lExcl)
	}
	if err := st.Update(id, 1e-310); !errors.As(err, &ve) {
		t.Errorf("Update(1e-310) = %v, want *ValueError", err)
	}
	if err := st.Update(id, 4); err != nil {
		t.Fatal(err)
	}
	x, err := st.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-3) > 1e-12 {
		t.Errorf("sole computer load = %v, want the full rate 3", x)
	}
}

func TestSnapshotMatchesProportionalExactly(t *testing.T) {
	// Snapshot's canonical aggregate is the same compensated reduction
	// ProportionalInto performs over the id-ordered value vector, so
	// the two allocation vectors agree bitwise, not just to tolerance.
	st, err := NewStream(20)
	if err != nil {
		t.Fatal(err)
	}
	ts := []float64{1, 3, 2, 7, 0.5, 11, 2}
	for _, v := range ts {
		if _, err := st.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Remove(3); err != nil {
		t.Fatal(err)
	}
	if err := st.Update(1, 9); err != nil {
		t.Fatal(err)
	}
	ids, x := st.Snapshot()
	vals := make([]float64, len(ids))
	for i, id := range ids {
		v, ok := st.Value(id)
		if !ok {
			t.Fatalf("snapshot id %d missing from stream", id)
		}
		vals[i] = v
	}
	want, err := Proportional(vals, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if x[i] != want[i] {
			t.Errorf("x[%d] = %g, want exactly %g", i, x[i], want[i])
		}
	}
}

func TestSealedDependsOnlyOnLiveSet(t *testing.T) {
	// Two different mutation histories converging to the same live
	// (id, t) set must seal to bitwise-identical aggregates.
	a, _ := NewStream(5)
	b, _ := NewStream(5)
	for _, v := range []float64{2, 3, 4} {
		if _, err := a.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	// b reaches the same state by adding wrong values, updating, and
	// removing an extra computer.
	for _, v := range []float64{7, 3, 1} {
		if _, err := b.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Add(9); err != nil {
		t.Fatal(err)
	}
	if err := b.Remove(3); err != nil {
		t.Fatal(err)
	}
	if err := b.Update(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.Update(2, 4); err != nil {
		t.Fatal(err)
	}
	if a.Sealed() != b.Sealed() {
		t.Errorf("Sealed diverged: %g vs %g", a.Sealed(), b.Sealed())
	}
	if got, want := a.Sealed(), a.Sum(); !numeric.AlmostEqual(got, want, 1e-12, 1e-15) {
		t.Errorf("Sealed %g far from running sum %g", got, want)
	}
}

func TestSnapshotIntoReusesBuffersWithoutAllocating(t *testing.T) {
	st, err := NewStream(20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		if _, err := st.Add(1 + float64(i%7)); err != nil {
			t.Fatal(err)
		}
	}
	ids, x := st.SnapshotInto(nil, nil)
	if len(ids) != 256 || len(x) != 256 {
		t.Fatalf("snapshot sizes %d/%d, want 256", len(ids), len(x))
	}
	allocs := testing.AllocsPerRun(100, func() {
		ids, x = st.SnapshotInto(ids, x)
	})
	if allocs != 0 {
		t.Errorf("SnapshotInto allocated %.0f times per run with warm buffers, want 0", allocs)
	}
	allocsSealed := testing.AllocsPerRun(100, func() {
		_ = st.Sealed()
	})
	if allocsSealed != 0 {
		t.Errorf("Sealed allocated %.0f times per run with warm scratch, want 0", allocsSealed)
	}
}
