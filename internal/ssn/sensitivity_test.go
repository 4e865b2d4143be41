package ssn

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// vmaxComplex evaluates case cse's Table 1 maximum with the free variable
// v set to the complex value x, for complex-step differentiation. The
// ramp-end cases share one form, β(1 - e^{-στr}(cosh wτr + στr·sinh(wτr)/(wτr)))
// with w² = σ² - 1/(LC): a power series in w²τr² near critical damping,
// where it has no cancellation, the cos/sin form when under-damped, and
// the eigenvalue form when over-damped, with the slow root taken as
// (1/LC)/λ2 so it does not cancel either.
func vmaxComplex(p Params, v SolveVar, x complex128, cse Case) complex128 {
	n, l, c, s := complex(float64(p.N), 0), complex(p.L, 0), complex(p.C, 0), complex(p.Slope, 0)
	switch v {
	case SolveN:
		n = x
	case SolveL:
		l = x
	case SolveC:
		c = x
	case SolveSlope:
		s = x
	case SolveRiseTime:
		s = complex(p.Vdd, 0) / x
	}
	k, a := complex(p.Dev.K, 0), complex(p.Dev.A, 0)
	beta := n * l * k * s
	tau := complex(p.Vdd-p.Dev.V0, 0) / s
	if c == 0 {
		return beta * (1 - cmplx.Exp(-tau/(n*l*k*a)))
	}
	sigma := n * k * a / (2 * c)
	w2 := sigma*sigma - 1/(l*c)
	if cse == UnderDampedPeak {
		return beta * (1 + cmplx.Exp(-sigma*math.Pi/cmplx.Sqrt(-w2)))
	}
	if z := w2 * tau * tau; cmplx.Abs(z) < 1 {
		var sum complex128
		term := complex(1, 0) // z^k/(2k)!
		for j := 0; j < 20; j++ {
			sum += term * (1 + sigma*tau/complex(float64(2*j+1), 0))
			term *= z / complex(float64((2*j+1)*(2*j+2)), 0)
		}
		return beta * (1 - cmplx.Exp(-sigma*tau)*sum)
	}
	if real(w2) < 0 {
		// Real ω keeps every intermediate real at a real x, as the
		// complex step needs; the conjugate-eigenvalue form would not.
		omega := cmplx.Sqrt(-w2)
		return beta * (1 - cmplx.Exp(-sigma*tau)*(cmplx.Cos(omega*tau)+sigma/omega*cmplx.Sin(omega*tau)))
	}
	l2 := -sigma - cmplx.Sqrt(w2)
	l1 := 1 / (l * c * l2)
	return beta * (1 - (l2*cmplx.Exp(l1*tau)-l1*cmplx.Exp(l2*tau))/(l2-l1))
}

// complexStepDeriv is dVmax/dx at the real x by the complex step
// Im f(x + ih)/h, exact to rounding for the analytic closed forms.
func complexStepDeriv(p Params, v SolveVar, x float64, cse Case) float64 {
	h := 1e-30 * x
	return imag(vmaxComplex(p, v, complex(x, h), cse)) / h
}

func TestLSensitivityMatchesFiniteDifference(t *testing.T) {
	p := refParams()
	s, err := LSensitivity(p)
	if err != nil {
		t.Fatal(err)
	}
	lm, _ := NewLModel(p)
	if math.Abs(s.VMax-lm.VMax()) > 1e-15 {
		t.Errorf("operating point VMax %g vs model %g", s.VMax, lm.VMax())
	}
	// Finite-difference checks on L and s.
	const h = 1e-6
	numL := func() float64 {
		pl, _ := NewLModel(p.WithGround(p.L*(1+h), p.C))
		ml, _ := NewLModel(p.WithGround(p.L*(1-h), p.C))
		return (pl.VMax() - ml.VMax()) / (2 * h * p.L)
	}()
	if math.Abs(s.DVdL-numL) > 1e-4*math.Abs(numL) {
		t.Errorf("dV/dL analytic %g vs numeric %g", s.DVdL, numL)
	}
	numS := func() float64 {
		ps := p
		ps.Slope = p.Slope * (1 + h)
		ms := p
		ms.Slope = p.Slope * (1 - h)
		a, _ := NewLModel(ps)
		b, _ := NewLModel(ms)
		return (a.VMax() - b.VMax()) / (2 * h * p.Slope)
	}()
	if math.Abs(s.DVdS-numS) > 1e-4*math.Abs(numS) {
		t.Errorf("dV/ds analytic %g vs numeric %g", s.DVdS, numS)
	}
}

func TestLSensitivityEqualLevers(t *testing.T) {
	// The paper's Sec. 3 observation: the relative sensitivities of N, L
	// and s are identical in the L-only model.
	s, err := LSensitivity(refParams())
	if err != nil {
		t.Fatal(err)
	}
	if s.RelN != s.RelL || s.RelL != s.RelS {
		t.Errorf("relative sensitivities differ: N %g, L %g, s %g", s.RelN, s.RelL, s.RelS)
	}
	// They are positive (more drivers/inductance/slew -> more noise) and
	// below 1 (the exponential feedback saturates the growth).
	if s.RelN <= 0 || s.RelN >= 1 {
		t.Errorf("relative sensitivity %g outside (0, 1)", s.RelN)
	}
}

func TestLCSensitivityConsistentWithLModel(t *testing.T) {
	// With tiny C the LC sensitivities must approach the analytic L-only
	// ones.
	p := refParams().WithGround(5e-9, 1e-16)
	lc, err := LCSensitivity(p, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	l, err := LSensitivity(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]float64{
		{lc.RelN, l.RelN}, {lc.RelL, l.RelL}, {lc.RelS, l.RelS},
	} {
		if math.Abs(pair[0]-pair[1]) > 1e-3 {
			t.Errorf("LC rel sens %g vs L-only %g", pair[0], pair[1])
		}
	}
}

func TestLCSensitivitySigns(t *testing.T) {
	// In the under-damped peak regime, more capacitance means less damping
	// of the first ring: dV/dC > 0. In deep over-damped, C barely matters.
	pUnder := refParams().WithGround(5e-9, 4e-12)
	sUnder, err := LCSensitivity(pUnder, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := NewLCModel(pUnder); m.Case() != UnderDampedPeak {
		t.Fatalf("setup: expected under-damped peak, got %v", m.Case())
	}
	if sUnder.DVdC <= 0 {
		t.Errorf("under-damped dV/dC = %g, want > 0", sUnder.DVdC)
	}
	pOver := refParams().WithGround(5e-9, 0.2e-12)
	sOver, err := LCSensitivity(pOver, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sOver.RelC) > 0.1 {
		t.Errorf("deep over-damped |RelC| = %g, want small", math.Abs(sOver.RelC))
	}
	// Noise always grows with N, L, s in every regime.
	for _, s := range []Sensitivity{sUnder, sOver} {
		if s.DVdN <= 0 || s.DVdL <= 0 || s.DVdS <= 0 {
			t.Errorf("non-positive primary sensitivities: %+v", s)
		}
	}
}

func TestSensitivityValidation(t *testing.T) {
	bad := refParams()
	bad.N = 0
	if _, err := LSensitivity(bad); err == nil {
		t.Error("invalid params must error (L)")
	}
	if _, err := LCSensitivity(bad, 0); err == nil {
		t.Error("invalid params must error (LC)")
	}
}

func TestSensitivityString(t *testing.T) {
	s, err := LSensitivity(refParams())
	if err != nil {
		t.Fatal(err)
	}
	if s.String() == "" {
		t.Error("empty String")
	}
}

// scaledDerivErr is |got - want| in relative-sensitivity units, x/Vmax.
func scaledDerivErr(got, want, x, vmax float64) float64 {
	return math.Abs(got-want) * math.Abs(x) / vmax
}

// underDampedKink reports whether a central-difference stencil with case
// ends lo and hi straddles the under-damped peak/boundary switch, the one
// Table 1 boundary where Vmax has a kink: its second derivative jumps, so
// a stencil across it carries an O(h) error.
func underDampedKink(lo, hi Case) bool {
	return lo != hi && (lo == UnderDampedPeak || hi == UnderDampedPeak)
}

// TestVMaxDerivMatchesCentralDifference pins the analytic per-case
// dVmax/dx against a central difference at points spanning every Table 1
// case and every variable. Only stencils across the under-damped
// peak/boundary kink are skipped: Vmax is smooth through critical damping,
// so stencils across the critical band are checked.
func TestVMaxDerivMatchesCentralDifference(t *testing.T) {
	for name, p := range solveCasePoints(t) {
		for _, v := range solveVars {
			for _, scale := range []float64{0.5, 1, 1.7, 3.1} {
				x := nominalOf(p, v) * scale
				if x <= 0 {
					continue // C = 0 base: no interior capacitance to probe
				}
				// A wide stencil: the oscillatory forms cancel catastrophically
				// for small h, while truncation at 1e-4 stays below the 1e-3
				// gate (sign/term bugs in the analytic form are O(1)).
				h := 1e-4 * x
				_, cLo, err := MaxSSN(v.Apply(p, x-h))
				if err != nil {
					continue
				}
				_, cHi, err := MaxSSN(v.Apply(p, x+h))
				if err != nil || underDampedKink(cLo, cHi) {
					continue
				}
				got, ok := vmaxDeriv(p, v, x)
				if !ok {
					t.Errorf("%s/%s x=%g: derivative unavailable", name, v, x)
					continue
				}
				num := (vmaxAt(t, p, v, x+h) - vmaxAt(t, p, v, x-h)) / (2 * h)
				denom := math.Max(math.Abs(num), math.Abs(got))
				if denom == 0 {
					continue
				}
				if math.Abs(got-num)/denom > 1e-3 {
					t.Errorf("%s/%s x=%g: analytic %g vs central %g", name, v, x, got, num)
				}
			}
		}
	}
}

// TestVMaxDerivCriticalBand checks the critically damped branch, whose
// band (|Δ| <= 1e-9·(NLKa)²) no stencil of the test above lands in, on
// 2,000 C = Cm draws: against central differences at relative steps 1e-4
// and 1e-5 wherever those two agree to 1e-7, within 1e-6 in x/Vmax units.
// Moving N, L or C off critical damping moves w² = σ² - 1/(LC) to first
// order; a branch that differentiates only u = στr is off by O(1) here.
func TestVMaxDerivCriticalBand(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	checked := 0
	for i := 0; i < 2000; i++ {
		p := randPlanParams(rng, 0)
		vmax, cse, err := MaxSSN(p)
		if err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
		if cse != CriticallyDamped {
			t.Fatalf("draw %d classified %v, want critically damped", i, cse)
		}
		for _, v := range solveVars {
			x := nominalOf(p, v)
			central := func(rel float64) float64 {
				h := rel * x
				return (vmaxAt(t, p, v, x+h) - vmaxAt(t, p, v, x-h)) / (2 * h)
			}
			c4, c5 := central(1e-4), central(1e-5)
			if scaledDerivErr(c4, c5, x, vmax) > 1e-7 {
				continue // the stencil's own rounding or truncation shows
			}
			checked++
			got, _ := vmaxDeriv(p, v, x)
			if e := scaledDerivErr(got, c5, x, vmax); e > 1e-6 {
				t.Errorf("draw %d %s: analytic %g vs central %g (scaled error %.3g)", i, v, got, c5, e)
			}
		}
	}
	if checked < 9500 {
		t.Fatalf("only %d of 10000 derivatives had agreeing central differences", checked)
	}
}

// TestVMaxDerivMatchesComplexStep holds the analytic derivative to the
// complex-step reference on 8,000 seeded draws over every damping regime
// (the LCSensitivity surface), and on draws placed just outside the
// critical band, where the eigenvalue forms cancel.
func TestVMaxDerivMatchesComplexStep(t *testing.T) {
	check := func(label string, p Params) {
		vmax, cse, err := MaxSSN(p)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for _, v := range solveVars {
			x := nominalOf(p, v)
			if x == 0 {
				continue
			}
			got, _ := vmaxDeriv(p, v, x)
			want := complexStepDeriv(p, v, x, cse)
			if e := scaledDerivErr(got, want, x, vmax); !(e <= 1e-7) {
				t.Errorf("%s %s (%v): analytic %g vs complex step %g (scaled error %.3g)",
					label, v, cse, got, want, e)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8000; i++ {
		check(fmt.Sprintf("draw %d", i), randPlanParams(rng, i))
	}
	for _, q := range []float64{1.01, -1.01, 1e2, -1e2, 1e4, -1e4, 1e6, -1e6} {
		for i := 0; i < 250; i++ {
			check(fmt.Sprintf("q=%g draw %d", q, i), withDisc(randPlanParams(rng, 0), q))
		}
	}
}

// FuzzVMaxDeriv widens TestVMaxDerivMatchesComplexStep: any point in the
// randPlanParams domain, with C given as a multiple of the critical
// capacitance so the fuzzer can reach the critical band (ratio 1) and its
// edges, must give the complex-step derivative within 1e-7 in x/Vmax units.
// Points within 1e-9 of the under-damped peak/boundary kink are skipped.
func FuzzVMaxDeriv(f *testing.F) {
	f.Add(uint8(0), uint8(8), 0.5, 0.3, 0.4, 0.6, 0.5, 0.5, 1.0)
	f.Add(uint8(1), uint8(60), 0.2, 0.9, 0.7, 0.9, 0.1, 0.9, 1+2e-9)
	f.Add(uint8(2), uint8(100), 0.8, 0.1, 0.9, 0.2, 0.7, 0.3, 1-2e-9)
	f.Add(uint8(3), uint8(16), 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.2)
	f.Add(uint8(4), uint8(4), 0.1, 0.2, 0.3, 0.4, 0.9, 0.8, 50.0)
	f.Add(uint8(2), uint8(32), 0.3, 0.6, 0.2, 0.8, 0.4, 0.2, 0.0)
	f.Fuzz(func(t *testing.T, varSel, n uint8, fv, f0, fk, fa, fs, fl, cRatio float64) {
		frac := func(u float64) float64 { return math.Abs(u - math.Trunc(u)) }
		logSpan := func(u, lo, hi float64) float64 { return lo * math.Exp(frac(u)*math.Log(hi/lo)) }
		p := Params{N: 1 + int(n)%128, Vdd: 0.9 + 2.4*frac(fv),
			Slope: logSpan(fs, 1e8, 1e10), L: logSpan(fl, 5e-11, 1e-8)}
		p.Dev.K, p.Dev.V0, p.Dev.A = logSpan(fk, 1e-3, 2e-2), 0.2+0.5*frac(f0), 0.5+1.5*frac(fa)
		if cRatio != 0 && !(cRatio >= 1e-7 && cRatio <= 1e8) {
			return
		}
		p.C = cRatio * p.CriticalCapacitance()
		vmax, cse, err := MaxSSN(p)
		if err != nil || !(vmax > 0) {
			return
		}
		if m, _ := NewLCModel(p); m.Omega() > 0 && math.Abs(m.firstPeakTime()-p.TauRise()) <= 1e-9*p.TauRise() {
			return
		}
		v := solveVars[int(varSel)%len(solveVars)]
		x := nominalOf(p, v)
		if x == 0 {
			return
		}
		got, _ := vmaxDeriv(p, v, x)
		want := complexStepDeriv(p, v, x, cse)
		if e := scaledDerivErr(got, want, x, vmax); !(e <= 1e-7) {
			t.Fatalf("%s at %+v (%v): analytic %g vs complex step %g (scaled error %.3g)", v, p, cse, got, want, e)
		}
	})
}
