package workload

import (
	"math"
	"testing"

	"repro/internal/numeric"
	"repro/internal/stats"
)

func TestPoissonRate(t *testing.T) {
	const rate, n = 20.0, 50000
	src := NewPoisson(rate, n, nil, numeric.NewRand(42))
	var last float64
	count := 0
	for {
		j, ok := src.Next()
		if !ok {
			break
		}
		if j.Arrival < last {
			t.Fatal("arrivals not monotone")
		}
		last = j.Arrival
		count++
	}
	if count != n {
		t.Fatalf("count = %d, want %d", count, n)
	}
	empirical := float64(n) / last
	if math.Abs(empirical-rate)/rate > 0.02 {
		t.Errorf("empirical rate %v, want ~%v", empirical, rate)
	}
}

func TestPoissonInterarrivalCV(t *testing.T) {
	// Exponential interarrivals have coefficient of variation 1.
	src := NewPoisson(5, 50000, nil, numeric.NewRand(7))
	var s stats.Summary
	var prev float64
	for {
		j, ok := src.Next()
		if !ok {
			break
		}
		s.Add(j.Arrival - prev)
		prev = j.Arrival
	}
	cv := s.Std() / s.Mean()
	if math.Abs(cv-1) > 0.03 {
		t.Errorf("interarrival CV = %v, want ~1", cv)
	}
}

func TestPoissonDeterministicWithSeed(t *testing.T) {
	a := Record(NewPoisson(3, 100, ExpSize{}, numeric.NewRand(9)), 0)
	b := Record(NewPoisson(3, 100, ExpSize{}, numeric.NewRand(9)), 0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at job %d", i)
		}
	}
}

func TestSizeDistributionsHaveUnitMean(t *testing.T) {
	dists := []SizeDist{
		ConstSize{}, ExpSize{},
		LognormalSize{Sigma: 0.5}, LognormalSize{Sigma: 1.5},
		ParetoSize{Alpha: 2.5}, ParetoSize{Alpha: 3},
	}
	for _, d := range dists {
		rng := numeric.NewRand(11)
		var s stats.Summary
		for i := 0; i < 300000; i++ {
			v := d.Sample(rng)
			if v <= 0 {
				t.Fatalf("%v produced non-positive size %v", d, v)
			}
			s.Add(v)
		}
		if math.Abs(s.Mean()-1) > 0.05 {
			t.Errorf("%v mean = %v, want ~1", d, s.Mean())
		}
	}
}

func TestParetoHeavierTailThanExp(t *testing.T) {
	rng := numeric.NewRand(13)
	exceedP, exceedE := 0, 0
	p := ParetoSize{Alpha: 2.1}
	e := ExpSize{}
	const n = 200000
	for i := 0; i < n; i++ {
		if p.Sample(rng) > 10 {
			exceedP++
		}
		if e.Sample(rng) > 10 {
			exceedE++
		}
	}
	if exceedP <= exceedE {
		t.Errorf("Pareto tail (%d) should exceed exponential tail (%d)", exceedP, exceedE)
	}
}

func TestDeterministicSpacing(t *testing.T) {
	src := NewDeterministic(4, 8)
	jobs := Record(src, 0)
	if len(jobs) != 8 {
		t.Fatalf("got %d jobs", len(jobs))
	}
	for i, j := range jobs {
		want := float64(i+1) / 4
		if math.Abs(j.Arrival-want) > 1e-12 {
			t.Errorf("job %d arrival %v, want %v", i, j.Arrival, want)
		}
		if j.Size != 1 {
			t.Errorf("job %d size %v, want 1", i, j.Size)
		}
	}
}

func TestRecordLimit(t *testing.T) {
	src := NewDeterministic(1, 100)
	got := Record(src, 10)
	if len(got) != 10 {
		t.Errorf("Record(…, 10) returned %d jobs", len(got))
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewPoisson(0, 1, nil, nil) },
		func() { NewPoisson(1, 0, nil, nil) },
		func() { NewPoisson(math.Inf(1), 1, nil, nil) },
		func() { NewPoisson(math.NaN(), 1, nil, nil) },
		func() { new(Poisson).Reset(math.Inf(1), 1, nil, nil) },
		func() { NewDeterministic(-1, 1) },
		func() { NewDeterministic(1, 0) },
		func() { NewDeterministic(math.Inf(1), 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
