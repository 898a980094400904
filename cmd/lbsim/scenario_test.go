package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const valid = `{
  "name": "two-tier",
  "rate": 6,
  "jobs": 2000,
  "seed": 3,
  "computers": [
    {"true": 1},
    {"true": 2, "bid_factor": 0.5, "exec_factor": 2},
    {"true": 5}
  ]
}`

func TestLoadValid(t *testing.T) {
	s, err := loadScenario(strings.NewReader(valid))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "two-tier" || s.Model != "linear" {
		t.Errorf("scenario = %+v", s)
	}
	if len(s.Computers) != 3 {
		t.Fatalf("computers = %d", len(s.Computers))
	}
	// Defaults applied.
	if s.Computers[0].BidFactor != 1 || s.Computers[0].ExecFactor != 1 {
		t.Errorf("defaults not applied: %+v", s.Computers[0])
	}
	// Explicit factors preserved.
	if s.Computers[1].BidFactor != 0.5 || s.Computers[1].ExecFactor != 2 {
		t.Errorf("explicit factors lost: %+v", s.Computers[1])
	}
	if got := s.trues(); got[2] != 5 {
		t.Errorf("Trues = %v", got)
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	cases := []string{
		``,
		`{`,
		`{"rate": 6, "computers": [{"true": 1}]}`,                                  // one computer
		`{"rate": 0, "computers": [{"true": 1}, {"true": 2}]}`,                     // bad rate
		`{"rate": 6, "computers": [{"true": -1}, {"true": 2}]}`,                    // bad true
		`{"rate": 6, "model": "quantum", "computers": [{"true": 1}, {"true": 2}]}`, // bad model
		`{"rate": 6, "bogus": 1, "computers": [{"true": 1}, {"true": 2}]}`,         // unknown field
		`{"rate": 6, "computers": [{"true": 1, "bid_factor": -2}, {"true": 2}]}`,   // negative factor
	}
	for i, c := range cases {
		if _, err := loadScenario(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted: %s", i, c)
		}
	}
}

func TestScenarioRunLinear(t *testing.T) {
	s, err := loadScenario(strings.NewReader(valid))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 5*3 {
		t.Errorf("messages = %d", res.Messages)
	}
	// Computer 2 played Low2-style: bid low, execute slow.
	if res.Oracle.Utility[1] >= res.Oracle.Utility[0] && res.Oracle.Utility[1] > 0 {
		t.Logf("note: deviator utility %v", res.Oracle.Utility[1])
	}
}

func TestScenarioRunMM1(t *testing.T) {
	s := &scenario{
		Model: "mm1",
		Rate:  4,
		Jobs:  20000,
		Seed:  9,
		Computers: []computer{
			{True: 0.1}, {True: 0.2}, {True: 0.4},
		},
	}
	if err := s.validate(); err != nil {
		t.Fatal(err)
	}
	res, err := s.run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.Model != "mm1" {
		t.Errorf("model = %q", res.Outcome.Model)
	}
}

// TestScenarioFlagsOverrideFile pins that -jobs and -seed, when set,
// replace the scenario file's values, and that unset flags leave the
// file's values (jobs 2000, seed 3) alone rather than applying the
// flag defaults.
func TestScenarioFlagsOverrideFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "two-tier.json")
	if err := os.WriteFile(path, []byte(valid), 0o644); err != nil {
		t.Fatal(err)
	}
	lbsim := func(args ...string) string {
		var out bytes.Buffer
		if err := run(append([]string{"-scenario", path}, args...), &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	file := lbsim()
	if !strings.Contains(file, "simulated 2000 jobs") {
		t.Errorf("without flags, want the file's 2000 jobs:\n%s", file)
	}
	if got := lbsim("-jobs", "2000", "-seed", "3"); got != file {
		t.Errorf("-jobs 2000 -seed 3 differs from the file's own values:\n%s\nvs\n%s", got, file)
	}
	if got := lbsim("-jobs", "50"); !strings.Contains(got, "simulated 50 jobs") {
		t.Errorf("-jobs 50 ignored:\n%s", got)
	}
	if got := lbsim("-seed", "99"); got == file {
		t.Error("-seed 99 ignored: output identical to the file's seed 3")
	}
}

// TestScenarioMM1HonoursFaults pins that an mm1 scenario runs the same
// protocol round as a linear one: a silent computer aborts the round,
// and with -dropouts it is dropped (3 bid requests plus 4 messages for
// each of the 2 responders).
func TestScenarioMM1HonoursFaults(t *testing.T) {
	const path = "testdata/mm1.json"
	var out bytes.Buffer
	err := run([]string{"-scenario", path, "-faults", "silent=2"}, &out)
	if err == nil || !strings.Contains(err.Error(), "agent C3 failed to bid") {
		t.Fatalf("silent C3 without -dropouts: err = %v, want agent C3 failed to bid", err)
	}
	out.Reset()
	if err := run([]string{"-scenario", path, "-faults", "silent=2", "-dropouts"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"(mm1 model, R=4)\n", "protocol messages: 11\n", "dropped agents: C3\n"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
