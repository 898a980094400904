package numeric

import "errors"

// ErrNoBracket is returned when a root finder is given an interval on
// which the function does not change sign.
var ErrNoBracket = errors.New("numeric: interval does not bracket a root")

// ErrNoConverge is returned when an iterative routine fails to reach
// the requested tolerance within its iteration budget.
var ErrNoConverge = errors.New("numeric: failed to converge")

// Bisect finds a root of f in [a, b] by bisection. f(a) and f(b) must
// have opposite signs (or one of them be zero). The returned x
// satisfies |b-a| <= tol at termination.
func Bisect(f func(float64) float64, a, b, tol float64) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if (fa > 0) == (fb > 0) {
		return 0, ErrNoBracket
	}
	for i := 0; i < 200; i++ {
		mid := a + (b-a)/2
		if b-a <= tol || mid == a || mid == b {
			return mid, nil
		}
		fm := f(mid)
		if fm == 0 {
			return mid, nil
		}
		if (fm > 0) == (fa > 0) {
			a, fa = mid, fm
		} else {
			b = mid
		}
	}
	return a + (b-a)/2, nil
}
