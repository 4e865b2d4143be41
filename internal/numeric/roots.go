// Package numeric provides the scalar numerical routines ssnkit is built on:
// fixed-point iteration, interpolation, a radix-2 FFT and a reference ODE
// integrator used to cross-check closed-form solutions.
package numeric

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoConverge is returned when an iteration limit is reached before the
// requested tolerance.
var ErrNoConverge = errors.New("numeric: iteration did not converge")

// FixedPoint iterates x <- g(x) from x0 until successive iterates differ by
// at most tol, with optional under-relaxation factor w in (0, 1]. Used for
// implicit baseline SSN formulas (e.g. the Song-style linear-bounce model).
func FixedPoint(g func(float64) float64, x0, tol, w float64) (float64, error) {
	if w <= 0 || w > 1 {
		return 0, fmt.Errorf("numeric: relaxation factor %g outside (0,1]", w)
	}
	x := x0
	for i := 0; i < 500; i++ {
		next := (1-w)*x + w*g(x)
		if math.IsNaN(next) || math.IsInf(next, 0) {
			return x, fmt.Errorf("%w: diverged at iteration %d", ErrNoConverge, i)
		}
		if math.Abs(next-x) <= tol {
			return next, nil
		}
		x = next
	}
	return x, ErrNoConverge
}
