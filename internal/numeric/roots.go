// Package numeric provides the scalar numerical routines ssnkit is built on:
// root finding, interpolation, polynomial evaluation and a reference ODE
// integrator used to cross-check closed-form solutions.
package numeric

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoBracket is returned by bracketing root finders when f(a) and f(b)
// do not straddle zero.
var ErrNoBracket = errors.New("numeric: root is not bracketed")

// ErrNoConverge is returned when an iteration limit is reached before the
// requested tolerance.
var ErrNoConverge = errors.New("numeric: iteration did not converge")

// Bisect finds a root of f in [a, b] with |interval| <= tol using bisection.
// f(a) and f(b) must have opposite signs (or one endpoint must be an exact
// root). Bisection is slow but unconditionally convergent, which is what the
// SSN case classifier needs at regime boundaries.
func Bisect(f func(float64) float64, a, b, tol float64) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, a, fa, b, fb)
	}
	for i := 0; i < 200; i++ {
		m := 0.5 * (a + b)
		if b-a <= tol || m == a || m == b {
			return m, nil
		}
		fm := f(m)
		if fm == 0 {
			return m, nil
		}
		if math.Signbit(fm) == math.Signbit(fa) {
			a, fa = m, fm
		} else {
			b = m
		}
	}
	return 0.5 * (a + b), nil
}

// Brent finds a root of f in [a, b] using Brent's method (inverse quadratic
// interpolation with bisection fallback). It converges superlinearly for
// smooth f and never leaves the bracket.
func Brent(f func(float64) float64, a, b, tol float64) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, a, fa, b, fb)
	}
	if math.Abs(fa) < math.Abs(fb) {
		a, b, fa, fb = b, a, fb, fa
	}
	c, fc := a, fa
	mflag := true
	var d float64
	for i := 0; i < 200; i++ {
		if fb == 0 || math.Abs(b-a) <= tol {
			return b, nil
		}
		var s float64
		if fa != fc && fb != fc {
			// inverse quadratic interpolation
			s = a*fb*fc/((fa-fb)*(fa-fc)) +
				b*fa*fc/((fb-fa)*(fb-fc)) +
				c*fa*fb/((fc-fa)*(fc-fb))
		} else {
			// secant
			s = b - fb*(b-a)/(fb-fa)
		}
		lo, hi := (3*a+b)/4, b
		if lo > hi {
			lo, hi = hi, lo
		}
		cond := s < lo || s > hi ||
			(mflag && math.Abs(s-b) >= math.Abs(b-c)/2) ||
			(!mflag && math.Abs(s-b) >= math.Abs(c-d)/2) ||
			(mflag && math.Abs(b-c) < tol) ||
			(!mflag && math.Abs(c-d) < tol)
		if cond {
			s = 0.5 * (a + b)
			mflag = true
		} else {
			mflag = false
		}
		fs := f(s)
		d = c
		c, fc = b, fb
		if math.Signbit(fa) != math.Signbit(fs) {
			b, fb = s, fs
		} else {
			a, fa = s, fs
		}
		if math.Abs(fa) < math.Abs(fb) {
			a, b, fa, fb = b, a, fb, fa
		}
	}
	return b, ErrNoConverge
}

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
