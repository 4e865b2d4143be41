package ssn

import (
	"fmt"
	"math"
)

// Sensitivity holds the first-order sensitivities of the maximum SSN with
// respect to the design variables, evaluated at the given operating point.
// They quantify the paper's Sec. 3 observation that N, L and s act through
// the single figure β = N·L·K·s: in the L-only model the three relative
// (logarithmic) sensitivities are *identical*, so trading one lever for
// another at constant β leaves the noise unchanged.
type Sensitivity struct {
	DVdN float64 // ∂Vmax/∂N (treating N as continuous), V per driver
	DVdL float64 // ∂Vmax/∂L, V/H
	DVdS float64 // ∂Vmax/∂s, V/(V/s)
	RelN float64 // (N/Vmax)·∂Vmax/∂N — relative sensitivity
	RelL float64 // (L/Vmax)·∂Vmax/∂L
	RelS float64 // (s/Vmax)·∂Vmax/∂s
	VMax float64 // the operating-point maximum
	DVdC float64 // ∂Vmax/∂C, V/F (0 for the L-only model)
	RelC float64 // (C/Vmax)·∂Vmax/∂C
}

// LSensitivity evaluates the L-only model's sensitivities analytically.
// Each of N, L, s scales β linearly, so the relative sensitivities of the
// three levers are all equal to β·(dVmax/dβ)/Vmax (lOnly).
func LSensitivity(p Params) (Sensitivity, error) {
	if err := p.Validate(); err != nil {
		return Sensitivity{}, err
	}
	beta := p.Beta()
	vmax, dVdBeta := lOnly(beta, p.Vdd, p.Dev.V0, p.Dev.A)
	s := Sensitivity{VMax: vmax}
	s.DVdN = dVdBeta * beta / float64(p.N)
	s.DVdL = dVdBeta * beta / p.L
	s.DVdS = dVdBeta * beta / p.Slope
	rel := beta * dVdBeta / vmax
	s.RelN, s.RelL, s.RelS = rel, rel, rel
	return s, nil
}

// lOnly returns the L-only maximum and its derivative in β. With
// u = (Vdd-V0)/(a·β) = τr/(N·L·K·a), Vmax = β·(1 - e^{-u}) depends on N, L,
// s and the rise time only through β, and
//
//	dVmax/dβ = (1 - e^{-u}) - u·e^{-u}.
func lOnly(beta, vdd, v0, a float64) (vmax, dVdBeta float64) {
	u := (vdd - v0) / (a * beta)
	e := math.Exp(-u)
	return beta * (1 - e), (1 - e) - u*e
}

// LCSensitivity evaluates the four-case model's sensitivities analytically:
// one MaxSSN plus vmaxDeriv for each of N (as a continuous count), L, s and,
// when C > 0, C. At the under-damped peak/boundary switch the value is the
// one-sided derivative of the case MaxSSN picked; the two sides meet there
// (V̇ = 0 at the first peak) and only the second derivative jumps. h, once
// a finite-difference step, is ignored and kept for compatibility.
func LCSensitivity(p Params, h float64) (Sensitivity, error) {
	vmax, _, err := MaxSSN(p)
	if err != nil {
		return Sensitivity{}, err
	}
	out := Sensitivity{VMax: vmax}
	out.DVdN, _ = vmaxDeriv(p, SolveN, float64(p.N))
	out.DVdL, _ = vmaxDeriv(p, SolveL, p.L)
	out.DVdS, _ = vmaxDeriv(p, SolveSlope, p.Slope)
	out.RelN = out.DVdN * float64(p.N) / vmax
	out.RelL = out.DVdL * p.L / vmax
	out.RelS = out.DVdS * p.Slope / vmax
	if p.C > 0 {
		out.DVdC, _ = vmaxDeriv(p, SolveC, p.C)
		out.RelC = out.DVdC * p.C / vmax
	}
	return out, nil
}

// nearCritTol bounds |Δ|/(N·L·K·a)² where vmaxDeriv's eigenvalue forms lose
// more digits than its critical-damping series.
const nearCritTol = 1e-3

// vmaxDeriv evaluates the analytic dVmax/dx of the active Table 1 case at
// x by the chain rule through the case's closed form. It is the one
// derivative of Vmax: LCSensitivity and SolveBracket's Newton step both
// call it. ok is false where the derivative is unavailable (C = 0 on a
// SolveC query). The regime split mirrors damping() and tableCase(), so at
// a case boundary the derivative of the local formula is returned.
func vmaxDeriv(p Params, v SolveVar, x float64) (float64, bool) {
	n := float64(p.N)
	K, a, v0 := p.Dev.K, p.Dev.A, p.Dev.V0
	vdd := p.Vdd
	s, l, c := p.Slope, p.L, p.C
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
		s = vdd / x
	}
	beta := n * l * K * s
	tauR := (vdd - v0) / s

	// Chain-rule inputs: how β and the ramp window move with x.
	var dbeta, dtau float64
	switch v {
	case SolveN, SolveL:
		dbeta = beta / x
	case SolveSlope:
		dbeta, dtau = beta/x, -tauR/x
	case SolveRiseTime:
		dbeta, dtau = -beta/x, tauR/x
	}

	if c == 0 {
		if v == SolveC {
			return 0, false // one-sided limit; let bisection move off zero
		}
		_, dVdBeta := lOnly(beta, vdd, v0, a)
		return dbeta * dVdBeta, true
	}

	nlka := n * l * K * a
	sigma := n * K * a / (2 * c) // σ scales as n/c, so dσ = ±σ/x
	var dnlka, dlc, dsigma float64
	switch v {
	case SolveN:
		dnlka, dsigma = nlka/x, sigma/x
	case SolveL:
		dnlka, dlc = nlka/x, c
	case SolveC:
		dlc, dsigma = l, -sigma/x
	}

	lc := l * c
	disc := nlka*nlka - 4*lc
	near := math.Abs(disc) <= nearCritTol*nlka*nlka
	var w2 float64 // σ² - 1/(LC); MaxSSN's critical formula is its 0 limit
	if near && math.Abs(disc) > critTol*nlka*nlka {
		w2 = disc / (4 * lc * lc)
	}
	z := w2 * tauR * tauR
	switch {
	case near && math.Abs(z) <= 1:
		// Near critical damping the eigenvalue forms cancel: λ1 - λ2 = 2w
		// is small. Both ramp-end forms are V(τr) = β(1 - e^{-u}·G) with
		// u = στr and the series G = Σ z^k/(2k)!·(1 + u/(2k+1)), z = w²τr²
		// (cosh and sinh, or cos and sin, of √z), which does not cancel.
		u := sigma * tauR
		du := dsigma*tauR + sigma*dtau
		dz := (2*sigma*dsigma+dlc/(lc*lc))*tauR*tauR + 2*w2*tauR*dtau
		var G, dG float64
		t, dt := 1.0, 0.0 // z^k/(2k)! and its derivative
		for k := 0; k < 12; k++ {
			f := 1 + u/float64(2*k+1)
			G += t * f
			dG += dt*f + t*du/float64(2*k+1)
			r := float64((2*k + 1) * (2*k + 2))
			t, dt = t*z/r, (dt*z+t*dz)/r
		}
		E := math.Exp(-u)
		return dbeta*(1-E*G) - beta*E*(dG-du*G), true
	case disc > 0:
		root := math.Sqrt(disc)
		l1 := (-nlka + root) / (2 * lc)
		l2 := (-nlka - root) / (2 * lc)
		// Implicit differentiation of lc·λ² + nlka·λ + 1 = 0:
		// dλ = -(dlc·λ² + dnlka·λ) / (2·lc·λ + nlka); the denominator is
		// ±√disc, nonzero off the critical band.
		d1 := -(dlc*l1*l1 + dnlka*l1) / (2*lc*l1 + nlka)
		d2 := -(dlc*l2*l2 + dnlka*l2) / (2*lc*l2 + nlka)
		E1, E2 := math.Exp(l1*tauR), math.Exp(l2*tauR)
		D := l2 - l1
		Nm := l2*E1 - l1*E2
		dNm := d2*E1 + l2*E1*(d1*tauR+l1*dtau) - d1*E2 - l1*E2*(d2*tauR+l2*dtau)
		dD := d2 - d1
		return dbeta*(1-Nm/D) - beta*(dNm*D-Nm*dD)/(D*D), true
	default:
		omega := math.Sqrt(1/lc - sigma*sigma)
		domega := (-dlc/(lc*lc) - 2*sigma*dsigma) / (2 * omega)
		dr := (dsigma*omega - sigma*domega) / (omega * omega) // d(σ/ω)
		if math.Pi/omega <= tauR {
			// First-peak maximum: β(1 + E), E = e^{-σπ/ω}.
			E := math.Exp(-sigma * math.Pi / omega)
			return dbeta*(1+E) - beta*E*math.Pi*dr, true
		}
		// Ramp-end value: β(1 - e^{-στ}(cos ωτ + (σ/ω) sin ωτ)).
		e := math.Exp(-sigma * tauR)
		cw, sw := math.Cos(omega*tauR), math.Sin(omega*tauR)
		r := sigma / omega
		A := cw + r*sw
		dphase := domega*tauR + omega*dtau
		dA := (r*cw-sw)*dphase + dr*sw
		dP := e*dA - e*A*(dsigma*tauR+sigma*dtau)
		return dbeta*(1-e*A) - beta*dP, true
	}
}

// String renders the sensitivities for reports.
func (s Sensitivity) String() string {
	return fmt.Sprintf("Vmax=%.4g V; rel sens: N %.3f, L %.3f, s %.3f, C %.3f",
		s.VMax, s.RelN, s.RelL, s.RelS, s.RelC)
}
