package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewRandDeterministic(t *testing.T) {
	a := NewRand(42)
	b := NewRand(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("stream diverged at step %d: %d != %d", i, got, want)
		}
	}
}

func TestNewRandSeedsDiffer(t *testing.T) {
	a := NewRand(1)
	b := NewRand(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical values out of 100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRand(7)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("split streams produced %d identical values out of 100", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRand(9)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRand(11)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("bucket %d count %d far from uniform expectation 10000", i, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRand(13)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64 negative: %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.02 {
		t.Errorf("exponential mean = %v, want ~1", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRand(17)
	var sum, sumSq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRand(19)
	for n := 0; n < 20; n++ {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestMul64MatchesBigMultiplication(t *testing.T) {
	f := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		// Verify against the 128-bit product computed via 32-bit limbs
		// differently: check (hi*2^64 + lo) mod 2^64 == a*b (wrapping)
		// and a few structural identities.
		if lo != a*b {
			return false
		}
		// hi must equal floor(a*b / 2^64); verify via math/bits-free
		// identity using halves.
		aHi, aLo := a>>32, a&0xffffffff
		bHi, bLo := b>>32, b&0xffffffff
		carry := ((aLo*bLo)>>32 + (aHi*bLo)&0xffffffff + (aLo*bHi)&0xffffffff) >> 32
		want := aHi*bHi + (aHi*bLo)>>32 + (aLo*bHi)>>32 + carry
		return hi == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSplitIntoAllocFree pins the reuse contract the swarm's round
// loop depends on: deriving a child substream into preallocated
// storage allocates nothing, so deriving thousands of per-block
// substreams every round is free of garbage. Reset gets the same
// guard since SplitInto is Reset plus one parent draw.
func TestSplitIntoAllocFree(t *testing.T) {
	parent := NewRand(1)
	children := make([]Rand, 64)
	if n := testing.AllocsPerRun(200, func() {
		for i := range children {
			parent.SplitInto(&children[i])
		}
	}); n != 0 {
		t.Errorf("SplitInto allocated %v times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { parent.Reset(42) }); n != 0 {
		t.Errorf("Reset allocated %v times per run, want 0", n)
	}
	// The derivation must still match the allocating Split
	// stream-for-stream.
	a, b := NewRand(9), NewRand(9)
	var child Rand
	a.SplitInto(&child)
	split := b.Split()
	for i := 0; i < 100; i++ {
		if x, y := child.Uint64(), split.Uint64(); x != y {
			t.Fatalf("draw %d: SplitInto %#x != Split %#x", i, x, y)
		}
	}
}
