package main

import (
	"bufio"
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// parseString parses go test -bench output held in a string.
func parseString(t *testing.T, in string) Document {
	t.Helper()
	doc, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestFoldSingleRun checks that a benchmark that ran once is carried
// through as its own line, with no run count in the JSON.
func TestFoldSingleRun(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: repro/internal/wal
BenchmarkWALAppend/none-2   	31066293	        44.31 ns/op	 245.99 MB/s	        10.90 log-B/op	       0 B/op	       0 allocs/op
BenchmarkWALRecover1M-2     	       1	  87358846 ns/op	 135.77 MB/s
PASS
`
	doc := parseString(t, in)
	want := []Result{
		{Name: "WALAppend/none", Iterations: 31066293, NsPerOp: 44.31, BytesPerOp: 0, AllocsPerOp: 0, Metrics: map[string]float64{"MB/s": 245.99, "log-B/op": 10.9}},
		{Name: "WALRecover1M", Iterations: 1, NsPerOp: 87358846, BytesPerOp: -1, AllocsPerOp: -1, Metrics: map[string]float64{"MB/s": 135.77}},
	}
	if !reflect.DeepEqual(doc.Benchmarks, want) {
		t.Fatalf("got %+v\nwant %+v", doc.Benchmarks, want)
	}
	var out bytes.Buffer
	if err := run(bufio.NewScanner(strings.NewReader(in)), &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), `"runs"`) {
		t.Fatalf("single runs carry a run count:\n%s", out.String())
	}
}

// TestFoldOddCount folds three runs into their middle values, for the
// standard columns and a custom metric alike.
func TestFoldOddCount(t *testing.T) {
	doc := parseString(t, `pkg: repro/internal/server
BenchmarkServe/a-2   	100	  30 ns/op	 8 B/op	 1 allocs/op	 3e+07 ops/s
BenchmarkServe/a-2   	300	  10 ns/op	16 B/op	 0 allocs/op	 1e+08 ops/s
BenchmarkServe/a-2   	200	  20 ns/op	 0 B/op	 2 allocs/op	 5e+07 ops/s
`)
	want := []Result{{Name: "Serve/a", Iterations: 200, NsPerOp: 20, BytesPerOp: 8, AllocsPerOp: 1, Metrics: map[string]float64{"ops/s": 5e7}, Runs: 3}}
	if !reflect.DeepEqual(doc.Benchmarks, want) {
		t.Fatalf("got %+v\nwant %+v", doc.Benchmarks, want)
	}
}

// TestFoldEvenCount folds four runs into the mean of their two middle
// values (rounded toward zero for the integer columns); a custom metric that
// only some runs reported takes the median of those runs.
func TestFoldEvenCount(t *testing.T) {
	doc := parseString(t, `pkg: repro/internal/wal
BenchmarkWALSeal-2   	10	  10 ns/op	 1 B/op	 0 allocs/op	 4 hold-ms
BenchmarkWALSeal-2   	40	  40 ns/op	 2 B/op	 0 allocs/op	 1 hold-ms
BenchmarkWALSeal-2   	20	  20 ns/op	 4 B/op	 1 allocs/op	 2 hold-ms	 7 MB/s
BenchmarkWALSeal-2   	30	  30 ns/op	 3 B/op	 1 allocs/op	 3 hold-ms	 9 MB/s
`)
	want := []Result{{Name: "WALSeal", Iterations: 25, NsPerOp: 25, BytesPerOp: 2, AllocsPerOp: 0, Metrics: map[string]float64{"hold-ms": 2.5, "MB/s": 8}, Runs: 4}}
	if !reflect.DeepEqual(doc.Benchmarks, want) {
		t.Fatalf("got %+v\nwant %+v", doc.Benchmarks, want)
	}
}

// TestFoldKeysByPackage keeps benchmarks of one name in two packages
// apart, and places each folded entry where its first run was.
func TestFoldKeysByPackage(t *testing.T) {
	doc := parseString(t, `pkg: repro/a
BenchmarkX-2 	1	 1 ns/op
BenchmarkY-2 	1	 5 ns/op
BenchmarkX-2 	1	 3 ns/op
BenchmarkX-2 	1	 2 ns/op
pkg: repro/b
BenchmarkX-2 	1	 7 ns/op
`)
	var got []string
	for _, r := range doc.Benchmarks {
		got = append(got, fmt.Sprintf("%s %g %d", r.Name, r.NsPerOp, r.Runs))
	}
	want := []string{"X 2 3", "Y 5 0", "X 7 0"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
}

// TestCheckCommittedBaselines runs -check over every committed
// BENCH_*.json: medians and run counts included, each must still pass.
func TestCheckCommittedBaselines(t *testing.T) {
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed baselines found (%v)", err)
	}
	for _, f := range files {
		if err := check(f); err != nil {
			t.Error(err)
		}
	}
}
