package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFixedPoint(t *testing.T) {
	// x = cos(x) has the Dottie number as fixed point.
	r, err := FixedPoint(math.Cos, 1, 1e-12, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-0.7390851332151607) > 1e-9 {
		t.Errorf("FixedPoint = %.15g", r)
	}
}

func TestFixedPointBadRelaxation(t *testing.T) {
	if _, err := FixedPoint(math.Cos, 1, 1e-9, 0); err == nil {
		t.Error("w=0 must be rejected")
	}
	if _, err := FixedPoint(math.Cos, 1, 1e-9, 1.5); err == nil {
		t.Error("w>1 must be rejected")
	}
}

func TestLerp(t *testing.T) {
	if got := Lerp(0, 0, 1, 10, 0.5); got != 5 {
		t.Errorf("Lerp midpoint = %g", got)
	}
	if got := Lerp(2, 7, 2, 9, 2); got != 7 {
		t.Errorf("degenerate Lerp = %g, want 7", got)
	}
}

func TestInterp1(t *testing.T) {
	p, err := NewInterp1([]float64{0, 1, 3}, []float64{0, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ x, want float64 }{
		{-1, 0},  // flat left extrapolation
		{0, 0},   // exact knot
		{0.5, 1}, // interior
		{1, 2},
		{2, 2},
		{3, 2},
		{9, 2}, // flat right extrapolation
	}
	for _, c := range cases {
		if got := p.At(c.x); got != c.want {
			t.Errorf("At(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestInterp1Errors(t *testing.T) {
	if _, err := NewInterp1([]float64{0, 1}, []float64{0}); err == nil {
		t.Error("length mismatch must error")
	}
	if _, err := NewInterp1(nil, nil); err == nil {
		t.Error("empty table must error")
	}
	if _, err := NewInterp1([]float64{0, 0}, []float64{1, 2}); err == nil {
		t.Error("non-increasing xs must error")
	}
}

func TestInterp1WithinHull(t *testing.T) {
	// Property: interpolated values stay within [min(ys), max(ys)].
	f := func(y0, y1, y2 float64, xq float64) bool {
		for _, y := range []float64{y0, y1, y2, xq} {
			if math.IsNaN(y) || math.IsInf(y, 0) {
				return true
			}
		}
		p, err := NewInterp1([]float64{0, 1, 2}, []float64{y0, y1, y2})
		if err != nil {
			return false
		}
		lo := math.Min(y0, math.Min(y1, y2))
		hi := math.Max(y0, math.Max(y1, y2))
		v := p.At(math.Mod(math.Abs(xq), 4) - 1)
		return v >= lo-1e-9*math.Abs(lo) && v <= hi+1e-9*math.Abs(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinspace(t *testing.T) {
	xs := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(xs[i]-want[i]) > 1e-15 {
			t.Errorf("Linspace[%d] = %g, want %g", i, xs[i], want[i])
		}
	}
	if xs[len(xs)-1] != 1 {
		t.Error("endpoint must be exact")
	}
}

func TestLogspace(t *testing.T) {
	xs := Logspace(1e-12, 1e-9, 4)
	if xs[0] != 1e-12 || xs[3] != 1e-9 {
		t.Errorf("Logspace endpoints %g, %g", xs[0], xs[3])
	}
	for i := 1; i < len(xs); i++ {
		ratio := xs[i] / xs[i-1]
		if math.Abs(ratio-10) > 1e-6 {
			t.Errorf("Logspace ratio %g, want 10", ratio)
		}
	}
}

func TestRK4ExponentialDecay(t *testing.T) {
	// y' = -y, y(0)=1 -> y(1) = 1/e
	f := func(t float64, y, dy []float64) { dy[0] = -y[0] }
	y := RK4(f, 0, 1, []float64{1}, 100)
	if math.Abs(y[0]-math.Exp(-1)) > 1e-8 {
		t.Errorf("RK4 decay = %.12g, want %.12g", y[0], math.Exp(-1))
	}
}

func TestRK4Harmonic(t *testing.T) {
	// y'' = -y: state (y, y'), y(0)=1, y'(0)=0 -> y(pi) = -1.
	f := func(t float64, y, dy []float64) {
		dy[0] = y[1]
		dy[1] = -y[0]
	}
	y := RK4(f, 0, math.Pi, []float64{1, 0}, 1000)
	if math.Abs(y[0]+1) > 1e-8 || math.Abs(y[1]) > 1e-8 {
		t.Errorf("RK4 harmonic = %v, want [-1 0]", y)
	}
}

func TestRK4PathShape(t *testing.T) {
	f := func(t float64, y, dy []float64) { dy[0] = 1 }
	ts, path := RK4Path(f, 0, 2, []float64{0}, 4)
	if len(ts) != 5 || len(path) != 5 {
		t.Fatalf("path length %d/%d, want 5", len(ts), len(path))
	}
	if ts[0] != 0 || ts[4] != 2 {
		t.Errorf("time endpoints %g..%g", ts[0], ts[4])
	}
	if math.Abs(path[4][0]-2) > 1e-12 {
		t.Errorf("y(2) = %g, want 2", path[4][0])
	}
}

func TestRK4FourthOrderConvergence(t *testing.T) {
	// Halving the step size should shrink the error by about 2^4 = 16.
	f := func(t float64, y, dy []float64) { dy[0] = y[0] }
	exact := math.E
	err1 := math.Abs(RK4(f, 0, 1, []float64{1}, 10)[0] - exact)
	err2 := math.Abs(RK4(f, 0, 1, []float64{1}, 20)[0] - exact)
	ratio := err1 / err2
	if ratio < 12 || ratio > 20 {
		t.Errorf("RK4 convergence ratio %g, want ~16", ratio)
	}
}
