package numeric

// KahanSum accumulates floating-point values with Neumaier's improved
// Kahan compensation, keeping the running error independent of the
// number of terms. The zero value is ready to use.
type KahanSum struct {
	sum  float64
	comp float64
}

// Add accumulates v into the sum.
func (k *KahanSum) Add(v float64) {
	t := k.sum + v
	if abs(k.sum) >= abs(v) {
		k.comp += (k.sum - t) + v
	} else {
		k.comp += (v - t) + k.sum
	}
	k.sum = t
}

// Value returns the compensated sum accumulated so far.
func (k *KahanSum) Value() float64 { return k.sum + k.comp }

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Sum returns the compensated sum of xs.
func Sum(xs []float64) float64 {
	var k KahanSum
	for _, x := range xs {
		k.Add(x)
	}
	return k.Value()
}

// SumFunc returns the compensated sum of f(i) for i in [0, n).
func SumFunc(n int, f func(i int) float64) float64 {
	var k KahanSum
	for i := 0; i < n; i++ {
		k.Add(f(i))
	}
	return k.Value()
}
