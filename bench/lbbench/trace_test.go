package main

import (
	"math"
	"testing"
)

// TestWindowArithmetic sums a hand-built connection timeline: reads,
// process and write spans with a gap, spans straddling the window's
// edges, and sampled journal spans inside the process spans.
func TestWindowArithmetic(t *testing.T) {
	conn := []span{
		{kind: spRead, start: 0, dur: 150, n: 10},       // straddles the start: 50 inside
		{kind: spProcess, start: 150, dur: 100},         // 150..250
		{kind: spWrite, start: 250, dur: 50, n: 100},    // 250..300
		{kind: spRead, start: 300, dur: 400, n: 30},     // 300..700
		{kind: spProcess, start: 720, dur: 180},         // 720..900 (20ns gap before)
		{kind: spWrite, start: 900, dur: 200, n: 60},    // straddles the end: 100 inside
		{kind: spRead, start: 1100, dur: 100, n: 1_000}, // outside
	}
	journal := []span{
		{kind: spAppend, start: 160, dur: 10},
		{kind: spAppend, start: 730, dur: 30},
		{kind: spAppend, start: 740, dur: appendCap + 1}, // a group commit
		{kind: spSealed, start: 780, dur: 40},
		{kind: spPublished, start: 830, dur: 20},
	}
	w := windowAgg{Start: 100, End: 1000}
	w.addConn(0, 5000)
	w.aggregate(conn, false)
	w.aggregate(journal, true)

	if w.WallNs != 900 {
		t.Fatalf("wall %d, want 900", w.WallNs)
	}
	rd, pr, wr := w.Kinds[spRead], w.Kinds[spProcess], w.Kinds[spWrite]
	if rd.Ns != 50+400 || pr.Ns != 100+180 || wr.Ns != 50+100 {
		t.Fatalf("clipped ns: read %d process %d write %d", rd.Ns, pr.Ns, wr.Ns)
	}
	// Counts and bytes belong to the window a span starts in.
	if rd.Count != 1 || rd.N != 30 || wr.Count != 2 || wr.N != 160 {
		t.Fatalf("read %+v write %+v", rd, wr)
	}
	if got, want := w.coverage(), float64(450+280+150)/900; got != want {
		t.Fatalf("coverage %g, want %g", got, want)
	}
	// The appends under appendCap average 20ns over 192 calls; the long
	// one is left to the commit time of 500, and the seal adds 40 and 20.
	w.AppendMeanNs = cappedMean(w.Kinds[spAppend].durs, appendCap)
	if w.AppendMeanNs != 20 {
		t.Fatalf("capped append mean %g", w.AppendMeanNs)
	}
	if got := w.journalNs(192, 500); got != 20*192+500+60 {
		t.Fatalf("journal %g", got)
	}
	if got := w.serverSelfNs(192, 500); got != 280-(20*192+500+60) {
		t.Fatalf("self %g", got)
	}
	if got := durQuantile(w.Kinds[spAppend].durs, 0.5); got != 30 {
		t.Fatalf("append p50 %g", got)
	}
}

func TestSpanLogs(t *testing.T) {
	l := newSpanLog(2)
	for i := 0; i < 5; i++ {
		l.add(span{start: int64(i)})
	}
	if len(l.spans) != 2 || l.dropped != 3 {
		t.Fatalf("kept %d dropped %d", len(l.spans), l.dropped)
	}
	s := newSharedLog(3)
	for i := 0; i < 4; i++ {
		s.add(span{start: int64(i)})
	}
	if len(s.recorded()) != 3 || s.dropped() != 1 {
		t.Fatalf("shared kept %d dropped %d", len(s.recorded()), s.dropped())
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(values, n=4) on the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		b           []float64
		lowerBetter bool
		want        string
	}{
		{[]float64{101, 100, 99, 102, 100}, true, "same"},
		{[]float64{120, 121, 119, 120, 122}, true, "worse"},
		{[]float64{120, 121, 119, 120, 122}, false, "better"},
		{[]float64{80, 81, 79, 80, 82}, true, "better"},
		{[]float64{60, 140, 100, 70, 130}, true, "unresolved"},
	} {
		if got := verdict(base, c.b, c.lowerBetter, 10); got != c.want {
			t.Errorf("verdict(%v, lower=%v) = %s, want %s", c.b, c.lowerBetter, got, c.want)
		}
	}
}

func TestHistQuantileInterpolates(t *testing.T) {
	a := map[string]obsMetric{"h": {Count: 10, LE: []float64{1, 2, 4}, Cum: []int64{10, 10, 10}}}
	b := map[string]obsMetric{"h": {Count: 110, LE: []float64{1, 2, 4}, Cum: []int64{10, 60, 110}}}
	// The 100 new observations: 50 in (1,2], 50 in (2,4].
	for _, c := range []struct{ q, want float64 }{{0.25, 1.5}, {0.5, 2}, {0.75, 3}, {1, 4}} {
		if got := histQuantile(a, b, "h", c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("q=%g: %g, want %g", c.q, got, c.want)
		}
	}
	if got := histMean(a, b, "h"); got != 0 {
		t.Errorf("mean of sum-less histogram %g", got)
	}
}
