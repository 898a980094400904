package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestPaperConfiguration(t *testing.T) {
	ts := PaperTrueValues()
	if len(ts) != 16 {
		t.Fatalf("n = %d, want 16", len(ts))
	}
	counts := map[float64]int{}
	for _, v := range ts {
		counts[v]++
	}
	want := map[float64]int{1: 2, 2: 3, 5: 5, 10: 6}
	for v, c := range want {
		if counts[v] != c {
			t.Errorf("%d computers with t=%v, want %d", counts[v], v, c)
		}
	}
	// The pinning identity: L* = 400/5.1 = 78.43.
	if math.Abs(OptimalLatency-78.431372549) > 1e-6 {
		t.Errorf("OptimalLatency = %v", OptimalLatency)
	}
}

func TestTable2HasEightExperiments(t *testing.T) {
	exps := Table2Experiments()
	if len(exps) != 8 {
		t.Fatalf("got %d experiments", len(exps))
	}
	names := []string{"True1", "True2", "High1", "High2", "High3", "High4", "Low1", "Low2"}
	for i, e := range exps {
		if e.Name != names[i] {
			t.Errorf("experiment %d = %q, want %q", i, e.Name, names[i])
		}
	}
}

func TestExperimentByName(t *testing.T) {
	e, err := ExperimentByName("Low2")
	if err != nil {
		t.Fatal(err)
	}
	if e.BidFactor != 0.5 || e.ExecFactor != 2 {
		t.Errorf("Low2 = %+v", e)
	}
	if _, err := ExperimentByName("nope"); err == nil {
		t.Error("expected error")
	}
}

func TestFigure1Anchors(t *testing.T) {
	rows, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig1Row{}
	for _, r := range rows {
		byName[r.Experiment] = r
	}
	if math.Abs(byName["True1"].Latency-78.4313725) > 1e-4 {
		t.Errorf("True1 latency = %v", byName["True1"].Latency)
	}
	if math.Abs(byName["Low1"].PctIncrease-11) > 1 {
		t.Errorf("Low1 increase = %v%%, want ~11%%", byName["Low1"].PctIncrease)
	}
	if math.Abs(byName["Low2"].PctIncrease-66) > 1 {
		t.Errorf("Low2 increase = %v%%, want ~66%%", byName["Low2"].PctIncrease)
	}
	// Every deviation degrades the system.
	for name, r := range byName {
		if name != "True1" && r.Latency <= byName["True1"].Latency {
			t.Errorf("%s latency %v not above optimum", name, r.Latency)
		}
	}
}

func TestFigure2Anchors(t *testing.T) {
	rows, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig2Row{}
	for _, r := range rows {
		byName[r.Experiment] = r
	}
	if byName["Low2"].Payment >= 0 || byName["Low2"].Utility >= 0 {
		t.Errorf("Low2 payment/utility = %v/%v, want both negative",
			byName["Low2"].Payment, byName["Low2"].Utility)
	}
	for name, r := range byName {
		if name != "True1" && r.Utility >= byName["True1"].Utility {
			t.Errorf("%s utility %v not below True1", name, r.Utility)
		}
	}
}

func TestFigures3to5Shapes(t *testing.T) {
	f3, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	f4, err := Figure4()
	if err != nil {
		t.Fatal(err)
	}
	f5, err := Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if len(f3) != 16 || len(f4) != 16 || len(f5) != 16 {
		t.Fatal("wrong row counts")
	}
	// The paper's percentages.
	drop4 := 1 - f4[0].Utility/f3[0].Utility
	if math.Abs(drop4-0.62) > 0.01 {
		t.Errorf("High1 C1 utility drop = %v, want ~0.62", drop4)
	}
	drop5 := 1 - f5[0].Utility/f3[0].Utility
	if math.Abs(drop5-0.45) > 0.01 {
		t.Errorf("Low1 C1 utility drop = %v, want ~0.45", drop5)
	}
}

func TestFigure6Frugality(t *testing.T) {
	rows, err := Figure6()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Ratio > 2.55 {
			t.Errorf("%s frugality ratio %v exceeds 2.5", r.Experiment, r.Ratio)
		}
		if r.Ratio < 1-1e-9 {
			t.Errorf("%s frugality ratio %v below 1", r.Experiment, r.Ratio)
		}
		if math.Abs(r.TotalPayment-(r.TotalCompensation+r.TotalBonus)) > 1e-6 {
			t.Errorf("%s payment decomposition broken", r.Experiment)
		}
	}
	// The bound is nearly attained in True1 (ratio ~2.42).
	if rows[0].Ratio < 2.3 {
		t.Errorf("True1 ratio = %v, expected ~2.42", rows[0].Ratio)
	}
}

func TestDESCrossCheck(t *testing.T) {
	rows, err := DESCrossCheck(60000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.RelErr > 0.05 {
			t.Errorf("%s: simulated %v vs analytic %v (rel err %v)",
				r.Experiment, r.Simulated, r.Analytic, r.RelErr)
		}
	}
}

func TestAllChecksPass(t *testing.T) {
	checks, err := Checks()
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) < 12 {
		t.Fatalf("only %d checks", len(checks))
	}
	for _, c := range checks {
		if !c.Pass {
			t.Errorf("claim not reproduced: %s (paper %s, measured %s) %s",
				c.ID, c.Paper, c.Measured, c.Note)
		}
	}
}

func TestArtifactsRender(t *testing.T) {
	for _, a := range Artifacts() {
		tab, err := a.Table()
		if err != nil {
			t.Errorf("%s table: %v", a.ID, err)
			continue
		}
		if tab.Rows() == 0 {
			t.Errorf("%s table empty", a.ID)
		}
		var buf bytes.Buffer
		tab.Render(&buf)
		if buf.Len() == 0 {
			t.Errorf("%s renders empty", a.ID)
		}
		if err := tab.WriteCSV(&bytes.Buffer{}); err != nil {
			t.Errorf("%s csv: %v", a.ID, err)
		}
		if a.Chart != nil {
			ch, err := a.Chart()
			if err != nil {
				t.Errorf("%s chart: %v", a.ID, err)
				continue
			}
			if err := ch.Render(&bytes.Buffer{}); err != nil {
				t.Errorf("%s chart render: %v", a.ID, err)
			}
			if err := ch.WriteSVG(&bytes.Buffer{}); err != nil {
				t.Errorf("%s chart svg: %v", a.ID, err)
			}
		}
	}
}

func TestArtifactByID(t *testing.T) {
	if _, err := ArtifactByID("fig1"); err != nil {
		t.Error(err)
	}
	if _, err := ArtifactByID("nope"); err == nil {
		t.Error("expected error")
	}
}

func TestChecksTable(t *testing.T) {
	tab, err := ChecksTable()
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	if !strings.Contains(out, "fig1/true1-latency") {
		t.Errorf("checks table missing entries:\n%s", out)
	}
}
