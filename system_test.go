package lbmech

import (
	"math"
	"testing"
)

func TestNewSystemDefaults(t *testing.T) {
	s, err := NewSystem([]float64{1, 2, 5, 10}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 4 || s.Rate() != 8 {
		t.Errorf("N=%d Rate=%v", s.N(), s.Rate())
	}
	agents := s.Agents()
	for _, a := range agents {
		if a.Bid != a.True || a.Exec != a.True {
			t.Errorf("agent %+v not truthful", a)
		}
	}
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem([]float64{1}, 5); err == nil {
		t.Error("expected error for single computer")
	}
	if _, err := NewSystem([]float64{1, -2}, 5); err == nil {
		t.Error("expected error for invalid true value")
	}
	if _, err := NewSystem([]float64{1, 2}, -1); err == nil {
		t.Error("expected error for negative rate")
	}
	if _, err := NewSystem([]float64{1, 2}, 5, WithModel(nil)); err == nil {
		t.Error("expected error for nil model")
	}
	if _, err := NewSystem([]float64{1, 2}, 5, WithMechanism(nil)); err == nil {
		t.Error("expected error for nil mechanism")
	}
}

func TestSystemRunTruthful(t *testing.T) {
	s, err := NewSystem([]float64{1, 1, 2, 2, 2, 5, 5, 5, 5, 5, 10, 10, 10, 10, 10, 10}, 20)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.RealLatency-78.4313725) > 1e-4 {
		t.Errorf("latency = %v", out.RealLatency)
	}
	opt, err := s.OptimalLatency()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(opt-out.RealLatency) > 1e-9 {
		t.Errorf("optimal %v != truthful realized %v", opt, out.RealLatency)
	}
}

func TestSetBidAndExec(t *testing.T) {
	s, err := NewSystem([]float64{1, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetBid(0, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.SetExec(0, 2); err != nil {
		t.Fatal(err)
	}
	agents := s.Agents()
	if agents[0].Bid != 3 || agents[0].Exec != 2 {
		t.Errorf("agent = %+v", agents[0])
	}
	// Errors.
	if err := s.SetBid(5, 1); err == nil {
		t.Error("expected index error")
	}
	if err := s.SetBid(0, -1); err == nil {
		t.Error("expected bid error")
	}
	if err := s.SetExec(0, 0.5); err == nil {
		t.Error("expected error: exec below true value")
	}
	s.Reset()
	agents = s.Agents()
	if agents[0].Bid != 1 || agents[0].Exec != 1 {
		t.Errorf("Reset failed: %+v", agents[0])
	}
}

func TestAllocationMatchesPR(t *testing.T) {
	s, err := NewSystem([]float64{1, 3}, 8)
	if err != nil {
		t.Fatal(err)
	}
	x, err := s.Allocation()
	if err != nil {
		t.Fatal(err)
	}
	// 1/t: 1 and 1/3; shares 3/4 and 1/4 of 8.
	if math.Abs(x[0]-6) > 1e-9 || math.Abs(x[1]-2) > 1e-9 {
		t.Errorf("allocation = %v, want [6 2]", x)
	}
}

func TestVerifyTruthfulnessFacade(t *testing.T) {
	s, err := NewSystem([]float64{1, 2, 5}, 6)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.VerifyTruthfulness(0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truthful() {
		t.Errorf("default mechanism manipulable: %+v", rep.Best)
	}
}

func TestWithMechanismClassical(t *testing.T) {
	s, err := NewSystem([]float64{1, 2, 5}, 6, WithMechanism(Classical(nil)))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.VerifyTruthfulness(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Truthful() {
		t.Error("classical mechanism should be manipulable")
	}
}

func TestWithModelMM1(t *testing.T) {
	s, err := NewSystem([]float64{0.1, 0.2, 0.5}, 4, WithModel(MM1Model()))
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Model != "mm1" {
		t.Errorf("model = %q", out.Model)
	}
	if _, err := s.RunProtocol(100, 1); err == nil {
		t.Error("protocol should require the linear model")
	}
}

func TestRunProtocolFacade(t *testing.T) {
	s, err := NewSystem([]float64{1, 2, 4}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetBid(0, 1); err != nil {
		t.Fatal(err)
	}
	res, err := s.RunProtocol(20000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 5*3 {
		t.Errorf("messages = %d, want 15", res.Messages)
	}
	// Estimates close to true execution values.
	for i, est := range res.Estimates {
		want := s.Agents()[i].Exec
		if math.Abs(est.Value-want)/want > 0.15 {
			t.Errorf("agent %d estimate %v, want ~%v", i, est.Value, want)
		}
	}
}
