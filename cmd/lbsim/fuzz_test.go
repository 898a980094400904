package main

import (
	"strings"
	"testing"
)

// FuzzLoad checks that arbitrary bytes never panic the scenario
// parser and that every accepted scenario is internally consistent.
func FuzzLoad(f *testing.F) {
	f.Add(`{"rate":6,"computers":[{"true":1},{"true":2}]}`)
	f.Add(`{"rate":6,"model":"mm1","computers":[{"true":0.1},{"true":0.2}]}`)
	f.Add(`{"rate":-1}`)
	f.Add(`[]`)
	f.Add(`{"rate":1e308,"computers":[{"true":1e-308},{"true":2}]}`)
	f.Fuzz(func(t *testing.T, data string) {
		s, err := loadScenario(strings.NewReader(data))
		if err != nil {
			return
		}
		// Accepted scenarios satisfy the validated invariants.
		if s.Rate <= 0 {
			t.Fatalf("accepted scenario with rate %v", s.Rate)
		}
		if len(s.Computers) < 2 {
			t.Fatalf("accepted scenario with %d computers", len(s.Computers))
		}
		if s.Model != "linear" && s.Model != "mm1" {
			t.Fatalf("accepted scenario with model %q", s.Model)
		}
		for i, c := range s.Computers {
			if c.True <= 0 || c.BidFactor <= 0 || c.ExecFactor <= 0 {
				t.Fatalf("accepted computer %d with non-positive parameters: %+v", i, c)
			}
		}
	})
}
