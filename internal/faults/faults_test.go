package faults

import (
	"errors"
	"math"
	"testing"

	"repro/internal/sim"
)

func TestNilPlanInjectsNothing(t *testing.T) {
	for _, inj := range []Injector{None, (*Plan)(nil), New(7)} {
		d := inj.Deliver(Message{Seq: 3})
		if d.Drop || d.Duplicate || d.ExtraDelay != 0 {
			t.Errorf("empty injector produced %+v", d)
		}
		if inj.Class(0) != NodeHealthy {
			t.Error("empty injector has unhealthy node")
		}
		if f := inj.ClaimFactor(2); f != 1 {
			t.Errorf("claim factor = %v", f)
		}
		if _, k := inj.Stall(1); k != 0 {
			t.Error("unexpected stall")
		}
	}
}

func TestDecisionsAreDeterministicAndSeedSensitive(t *testing.T) {
	a := New(42, Drop(0.3), Duplicate(0.3), Jitter(0.01))
	b := New(42, Drop(0.3), Duplicate(0.3), Jitter(0.01))
	c := New(43, Drop(0.3), Duplicate(0.3), Jitter(0.01))
	same, diff := 0, 0
	for seq := 0; seq < 500; seq++ {
		m := Message{Seq: seq}
		da, db, dc := a.Deliver(m), b.Deliver(m), c.Deliver(m)
		if da != db {
			t.Fatalf("seq %d: same seed diverged: %+v vs %+v", seq, da, db)
		}
		if da == dc {
			same++
		} else {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical schedules")
	}
	_ = same
}

func TestDropRateIsRoughlyCalibrated(t *testing.T) {
	p := New(9, Drop(0.2))
	dropped := 0
	const trials = 20000
	for seq := 0; seq < trials; seq++ {
		if p.Deliver(Message{Seq: seq}).Drop {
			dropped++
		}
	}
	got := float64(dropped) / trials
	if math.Abs(got-0.2) > 0.02 {
		t.Errorf("drop rate %v, want ~0.2", got)
	}
}

func TestNodeFaultClasses(t *testing.T) {
	p := New(1,
		Crash(2), Silent(3), Stall(500, 50, 4), Byzantine(1.25, 5))
	wants := map[int]NodeClass{
		0: NodeHealthy, 2: NodeCrashed, 3: NodeSilent, 4: NodeStalled, 5: NodeByzantine,
	}
	for n, want := range wants {
		if got := p.Class(n); got != want {
			t.Errorf("class(%d) = %v, want %v", n, got, want)
		}
	}
	if d, k := p.Stall(4); d != 500 || k != 50 {
		t.Errorf("stall(4) = %v,%d", d, k)
	}
	if f := p.ClaimFactor(5); f != 1.25 {
		t.Errorf("claim factor = %v", f)
	}
	if f := p.ClaimFactor(4); f != 1 {
		t.Errorf("stalled node claim factor = %v", f)
	}
}

func TestReseedChangesScheduleNotNodes(t *testing.T) {
	p := New(5, Drop(0.5), Crash(1))
	q := Reseed(p, 99)
	if q.Class(1) != NodeCrashed {
		t.Error("reseed lost node fault")
	}
	diff := 0
	for seq := 0; seq < 200; seq++ {
		if p.Deliver(Message{Seq: seq}).Drop != q.Deliver(Message{Seq: seq}).Drop {
			diff++
		}
	}
	if diff == 0 {
		t.Error("reseed did not change the schedule")
	}
	if Reseed(p, 0) != Injector(p) {
		t.Error("salt 0 should be the identity")
	}
}

func TestRemapTranslatesNodeIDs(t *testing.T) {
	p := New(1, Crash(7), Byzantine(1.5, 3))
	// local view: [0, 3, 7] -> locals 0,1,2
	r := Remap(p, []int{0, 3, 7})
	if r.Class(2) != NodeCrashed {
		t.Error("local 2 should map to crashed original 7")
	}
	if f := r.ClaimFactor(1); f != 1.5 {
		t.Errorf("local 1 claim factor = %v", f)
	}
	if r.Class(0) != NodeHealthy {
		t.Error("local 0 should be healthy")
	}
	// Reseed passes through the remap.
	if Reseed(r, 3).Class(2) != NodeCrashed {
		t.Error("reseed through remap lost node fault")
	}
}

func TestCheckNodesReportsSmallestOutOfRange(t *testing.T) {
	p := New(1, Crash(12, 3), Silent(40), Byzantine(1.2, 15))
	var re *RangeError
	if err := CheckNodes(p, 12); !errors.As(err, &re) || re.Node != 12 || re.N != 12 {
		t.Fatalf("CheckNodes(n=12) = %v, want node 12 of [0, 12)", err)
	}
	if err := CheckNodes(p, 41); err != nil {
		t.Fatalf("CheckNodes(n=41) = %v, want nil", err)
	}
	if err := CheckNodes(New(1, Stall(0, 2, -3, 5)), 4); !errors.As(err, &re) || re.Node != -3 {
		t.Fatalf("negative node: %v", err)
	}
	// Message-level faults name no node; nil plans and derived views
	// are not checked.
	for _, inj := range []Injector{nil, None, New(1, Drop(0.5)), Remap(p, []int{3})} {
		if err := CheckNodes(inj, 2); err != nil {
			t.Errorf("CheckNodes(%v) = %v, want nil", inj, err)
		}
	}
}

func TestTransportCountsAndDelivers(t *testing.T) {
	eng := sim.New()
	tr := &Transport{Eng: eng, Inj: None, Hop: 0.001}
	got := 0
	for i := 0; i < 10; i++ {
		tr.Send(0, 1, "x", func() { got++ })
	}
	eng.Run()
	if got != 10 || tr.Sent != 10 || tr.Delivered != 10 || tr.Lost != 0 {
		t.Errorf("got=%d sent=%d delivered=%d lost=%d", got, tr.Sent, tr.Delivered, tr.Lost)
	}
	if now := eng.Now(); math.Abs(now-0.001) > 1e-12 {
		t.Errorf("completion at %v, want one hop", now)
	}
}

func TestTransportDropsAndDuplicates(t *testing.T) {
	eng := sim.New()
	tr := &Transport{Eng: eng, Inj: New(3, Drop(0.5), Duplicate(0.5)), Hop: 0.001}
	deliveries := 0
	const sends = 400
	for i := 0; i < sends; i++ {
		tr.Send(0, 1, "x", func() { deliveries++ })
	}
	eng.Run()
	if tr.Lost == 0 || tr.Duplicated == 0 {
		t.Fatalf("expected drops and duplicates, lost=%d dup=%d", tr.Lost, tr.Duplicated)
	}
	if deliveries != tr.Delivered {
		t.Errorf("deliveries %d != counter %d", deliveries, tr.Delivered)
	}
	if tr.Sent != sends {
		t.Errorf("sent = %d", tr.Sent)
	}
	if tr.Delivered != sends-tr.Lost+tr.Duplicated {
		t.Errorf("delivered=%d lost=%d dup=%d inconsistent", tr.Delivered, tr.Lost, tr.Duplicated)
	}
}

func TestTransportStallsSender(t *testing.T) {
	eng := sim.New()
	tr := &Transport{Eng: eng, Inj: New(1, Stall(10, 2, 0)), Hop: 0.001}
	var times []float64
	for i := 0; i < 4; i++ {
		tr.Send(0, 1, "x", func() { times = append(times, eng.Now()) })
	}
	eng.Run()
	// sends 0 and 2 stalled (+10s), sends 1 and 3 on time.
	if len(times) != 4 {
		t.Fatalf("deliveries = %d", len(times))
	}
	if times[0] != 0.001 || times[1] != 0.001 {
		t.Errorf("on-time deliveries at %v", times[:2])
	}
	if math.Abs(times[2]-10.001) > 1e-9 || math.Abs(times[3]-10.001) > 1e-9 {
		t.Errorf("stalled deliveries at %v, want 10.001", times[2:])
	}
}

func TestSpecRoundTrip(t *testing.T) {
	p, err := ParseSpec("seed=42,drop=0.05,dup=0.02,jitter=0.003,reorder=0.1@0.004,crash=3+7,silent=2,stall=4@500:50,byz=5@1.2")
	if err != nil {
		t.Fatal(err)
	}
	if p.Class(3) != NodeCrashed || p.Class(7) != NodeCrashed {
		t.Error("crash nodes missing")
	}
	if p.Class(2) != NodeSilent {
		t.Error("silent node missing")
	}
	if d, k := p.Stall(4); d != 500 || k != 50 {
		t.Errorf("stall = %v,%d", d, k)
	}
	if f := p.ClaimFactor(5); f != 1.2 {
		t.Errorf("factor = %v", f)
	}
	q, err := ParseSpec(p.String())
	if err != nil {
		t.Fatalf("canonical spec %q did not parse: %v", p.String(), err)
	}
	if q.String() != p.String() {
		t.Errorf("round trip %q -> %q", p.String(), q.String())
	}
}

func TestSpecErrorsAndDefaults(t *testing.T) {
	for _, bad := range []string{
		"drop", "drop=x", "drop=-1", "wat=1", "crash=", "crash=a",
		"stall=1@0", "byz=1@-2", "seed=zz", "reorder=0.1@-1",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
	for _, ok := range []string{"", "none", " drop=0.1 , seed=3 "} {
		if _, err := ParseSpec(ok); err != nil {
			t.Errorf("spec %q rejected: %v", ok, err)
		}
	}
}

func TestFlapSpecAndPhase(t *testing.T) {
	p := New(1, Flap(6, 0.5, 3), Crash(1))
	if p.Class(3) != NodeFlapping {
		t.Fatalf("Class(3) = %v, want flapping", p.Class(3))
	}
	if period, duty, delay := p.FlapSpec(3); period != 6 || duty != 0.5 || delay != 1000 {
		t.Fatalf("FlapSpec(3) = %d,%g,%g", period, duty, delay)
	}
	if period, _, _ := p.FlapSpec(1); period != 0 {
		t.Fatalf("crashed node reports a flap spec")
	}
	// Duty 0.5 over period 6: stalled at phases 0,1,2 and healthy at
	// 3,4,5 of every period, deterministically.
	for tick := 0; tick < 24; tick++ {
		want := tick%6 < 3
		if got := FlapStalled(p, 3, tick); got != want {
			t.Fatalf("FlapStalled(3, %d) = %v, want %v", tick, got, want)
		}
		view := FlapPhase(p, tick)
		wantClass := NodeHealthy
		if want {
			wantClass = NodeStalled
		}
		if got := view.Class(3); got != wantClass {
			t.Fatalf("FlapPhase(%d).Class(3) = %v, want %v", tick, got, wantClass)
		}
		delay, every := view.Stall(3)
		if want && (delay != 1000 || every != 1) {
			t.Fatalf("FlapPhase(%d).Stall(3) = %g,%d, want 1000,1", tick, delay, every)
		}
		if !want && every != 0 {
			t.Fatalf("FlapPhase(%d).Stall(3) active in healthy phase", tick)
		}
		// Non-flapping nodes pass through unchanged.
		if view.Class(1) != NodeCrashed {
			t.Fatalf("FlapPhase changed the class of a crashed node")
		}
	}
}

func TestFlapSurvivesMergeRemapReseed(t *testing.T) {
	p := New(1, Flap(4, 0.25, 7))
	// Remap: local node 0 is original node 7.
	r := Remap(p, []int{7})
	if period, _, _ := FlapSpec(r, 0); period != 4 {
		t.Fatalf("remapped FlapSpec lost the schedule")
	}
	if FlapStalled(r, 0, 0) != true || FlapStalled(r, 0, 1) != false {
		t.Fatalf("remapped flap phase wrong")
	}
	rs := Reseed(r, 9)
	if period, _, _ := FlapSpec(rs, 0); period != 4 {
		t.Fatalf("reseeded FlapSpec lost the schedule")
	}
	// FlapPhase resolves the class, so the view must not re-report a
	// flap spec: double resolution would double-stall.
	view := FlapPhase(p, 0)
	if period, _, _ := FlapSpec(view, 7); period != 0 {
		t.Fatalf("FlapPhase view still reports a flap spec")
	}
	if reseeded := view.(Reseeder).Reseed(3); reseeded.Class(7) != NodeStalled {
		t.Fatalf("reseeded FlapPhase view lost the resolved phase")
	}
}

func TestFlapSpecStringRoundTrip(t *testing.T) {
	p, err := ParseSpec("seed=5,flap=2+9@8:0.25,crash=1")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 9} {
		if period, duty, _ := p.FlapSpec(n); period != 8 || duty != 0.25 {
			t.Fatalf("FlapSpec(%d) = %d,%g, want 8,0.25", n, period, duty)
		}
	}
	q, err := ParseSpec(p.String())
	if err != nil {
		t.Fatalf("canonical spec %q did not parse: %v", p.String(), err)
	}
	if q.String() != p.String() {
		t.Errorf("round trip %q -> %q", p.String(), q.String())
	}
	for _, bad := range []string{"flap=", "flap=1@0", "flap=1@4:1.5", "flap=1@4:0"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}
