package numeric

import "math"

// GoldenSection minimizes a unimodal function f over [a, b] to within
// tol and returns the minimizing argument and the minimum value.
func GoldenSection(f func(float64) float64, a, b, tol float64) (x, fx float64) {
	if a > b {
		a, b = b, a
	}
	const invPhi = 0.6180339887498949 // (sqrt(5)-1)/2
	c := b - invPhi*(b-a)
	d := a + invPhi*(b-a)
	fc, fd := f(c), f(d)
	for b-a > tol {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - invPhi*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + invPhi*(b-a)
			fd = f(d)
		}
	}
	x = a + (b-a)/2
	return x, f(x)
}

// ArgMax returns the index of the largest element of xs, or -1 for an
// empty slice. Ties break toward the lowest index.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}

// AlmostEqual reports whether a and b agree to within absolute
// tolerance atol or relative tolerance rtol, whichever is looser.
func AlmostEqual(a, b, rtol, atol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	if diff <= atol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= rtol*scale
}
