package numeric

import (
	"fmt"
	"math"
	"sort"
)

// Lerp linearly interpolates between (x0,y0) and (x1,y1) at x. If x0 == x1
// it returns y0.
func Lerp(x0, y0, x1, y1, x float64) float64 {
	if x1 == x0 {
		return y0
	}
	t := (x - x0) / (x1 - x0)
	return y0 + t*(y1-y0)
}

// Interp1 performs piecewise-linear interpolation of tabulated data. The xs
// must be strictly increasing. Outside the table the end values are held
// (flat extrapolation), which is the right behaviour for PWL sources.
type Interp1 struct {
	xs, ys []float64
}

// NewInterp1 builds an interpolant over the given samples. It returns an
// error if the lengths differ, fewer than one point is supplied, or xs is
// not strictly increasing.
func NewInterp1(xs, ys []float64) (*Interp1, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("numeric: interp length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("numeric: interp needs at least one point")
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return nil, fmt.Errorf("numeric: interp xs not strictly increasing at %d (%g after %g)", i, xs[i], xs[i-1])
		}
	}
	cx := make([]float64, len(xs))
	cy := make([]float64, len(ys))
	copy(cx, xs)
	copy(cy, ys)
	return &Interp1{xs: cx, ys: cy}, nil
}

// At evaluates the interpolant at x.
func (p *Interp1) At(x float64) float64 {
	n := len(p.xs)
	if x <= p.xs[0] {
		return p.ys[0]
	}
	if x >= p.xs[n-1] {
		return p.ys[n-1]
	}
	// Index of first breakpoint strictly greater than x.
	i := sort.SearchFloat64s(p.xs, x)
	if p.xs[i] == x {
		return p.ys[i]
	}
	return Lerp(p.xs[i-1], p.ys[i-1], p.xs[i], p.ys[i], x)
}

// Breakpoints returns a copy of the interpolant's x grid; transient
// simulation uses these as mandatory time points.
func (p *Interp1) Breakpoints() []float64 {
	out := make([]float64, len(p.xs))
	copy(out, p.xs)
	return out
}

// Linspace returns n evenly spaced samples over [a, b] inclusive. n must be
// at least 2.
func Linspace(a, b float64, n int) []float64 {
	if n < 2 {
		panic("numeric: Linspace needs n >= 2")
	}
	out := make([]float64, n)
	step := (b - a) / float64(n-1)
	for i := range out {
		out[i] = a + float64(i)*step
	}
	out[n-1] = b // avoid accumulated rounding at the endpoint
	return out
}

// Logspace returns n logarithmically spaced samples from a to b (both > 0).
func Logspace(a, b float64, n int) []float64 {
	if a <= 0 || b <= 0 {
		panic("numeric: Logspace needs positive endpoints")
	}
	la, lb := math.Log10(a), math.Log10(b)
	xs := Linspace(la, lb, n)
	for i, x := range xs {
		xs[i] = math.Pow(10, x)
	}
	xs[0], xs[n-1] = a, b
	return xs
}
