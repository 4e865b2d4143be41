package ssn

import (
	"fmt"
	"math"

	"ssnkit/internal/waveform"
)

// Case identifies which of the paper's Table 1 formulas applies.
type Case int

// The four operating cases of the LC model (Table 1).
const (
	OverDamped          Case = iota + 1 // Δ > 0: max at ramp end
	CriticallyDamped                    // Δ = 0: max at ramp end
	UnderDampedPeak                     // Δ < 0, first peak inside the ramp (slow input)
	UnderDampedBoundary                 // Δ < 0, ramp ends before the first peak (fast input)
)

func (c Case) String() string {
	switch c {
	case OverDamped:
		return "over-damped"
	case CriticallyDamped:
		return "critically damped"
	case UnderDampedPeak:
		return "under-damped (max at first peak)"
	case UnderDampedBoundary:
		return "under-damped (max at ramp end)"
	default:
		return fmt.Sprintf("case(%d)", int(c))
	}
}

// LCModel is the paper's Sec. 4 model: ground inductance L plus pad
// capacitance C. KCL at the bounce node and the inductor equation combine
// into the second-order ODE (Eq. 13)
//
//	L·C·V̈ + N·L·K·a·V̇ + V = β,   V(0) = V̇(0) = 0,
//
// whose maximum over the ramp window is given by one of four closed forms
// depending on the damping and the input speed (Table 1).
type LCModel struct {
	P Params

	// derived quantities, fixed at construction
	beta float64
	tauR float64
	d    dampState
	cse  Case
}

// critTol is the relative tolerance inside which the discriminant counts as
// critically damped; exact equality is measure-zero in floating point.
const critTol = 1e-9

// NewLCModel validates parameters, classifies the operating case and
// precomputes the eigenstructure. C = 0 is allowed and reduces to the
// over-damped formulas in the L-only limit (use LModel directly when no
// capacitance estimate exists at all).
func NewLCModel(p Params) (*LCModel, error) {
	m := &LCModel{}
	if err := m.Init(p); err != nil {
		return nil, err
	}
	return m, nil
}

// Init re-initializes m in place for p, overwriting any previous state.
// It is the allocation-free core of NewLCModel: hot loops that classify
// millions of parameter points (the sweep engine, Monte Carlo) keep one
// LCModel per worker and re-Init it instead of allocating per point.
func (m *LCModel) Init(p Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	*m = LCModel{P: p, beta: p.Beta(), tauR: p.TauRise()}
	m.d = damping(p)
	m.cse = tableCase(m.d, m.tauR)
	return nil
}

// dampKind is the input-independent half of the Table 1 classification:
// which damping regime the ground net sits in. The full Case additionally
// splits the under-damped regime by input speed (tableCase).
type dampKind uint8

const (
	dampOver  dampKind = iota // Δ > 0, or the C = 0 first-order limit
	dampCrit                  // |Δ| within the critical tolerance band
	dampUnder                 // Δ < 0
)

// dampState is the eigenstructure of the homogeneous ODE: every derived
// quantity of Table 1 that depends on (N, L, C, K, a) but not on the input
// edge. Plans hoist it across batch points whose damping inputs are fixed
// (e.g. a slope sweep); LCModel derives it once at Init. Both paths go
// through the same damping() function so their floating-point results are
// bitwise identical.
type dampState struct {
	sigma  float64 // decay rate N·K·a/(2C) (0 when C = 0)
	omega  float64 // ringing frequency (under-damped only)
	l1, l2 float64 // real eigenvalues (over-damped only)
	kind   dampKind
}

// damping classifies the damping regime and computes the eigenstructure.
func damping(p Params) dampState {
	var d dampState
	nlka := float64(p.N) * p.L * p.Dev.K * p.Dev.A
	if p.C == 0 {
		// Degenerate first-order system: one finite eigenvalue -1/(NLKa)
		// and one at -infinity. Treat as over-damped with the L-only
		// waveform; the formulas below special-case l2 = -Inf.
		d.kind = dampOver
		d.l1 = -1 / nlka
		d.l2 = math.Inf(-1)
		return d
	}
	disc := nlka*nlka - 4*p.L*p.C
	scale := nlka * nlka
	d.sigma = float64(p.N) * p.Dev.K * p.Dev.A / (2 * p.C)
	switch {
	case math.Abs(disc) <= critTol*scale:
		d.kind = dampCrit
	case disc > 0:
		d.kind = dampOver
		root := math.Sqrt(disc)
		d.l1 = (-nlka + root) / (2 * p.L * p.C) // slow (less negative) root
		d.l2 = (-nlka - root) / (2 * p.L * p.C)
	default:
		d.kind = dampUnder
		d.omega = math.Sqrt(1/(p.L*p.C) - d.sigma*d.sigma)
	}
	return d
}

// tableCase resolves the damping regime plus the input window into the
// final Table 1 case: an under-damped net peaks inside the ramp only when
// the first ring τp = π/ω fits before τr.
func tableCase(d dampState, tauR float64) Case {
	switch d.kind {
	case dampOver:
		return OverDamped
	case dampCrit:
		return CriticallyDamped
	default:
		if math.Pi/d.omega <= tauR {
			return UnderDampedPeak
		}
		return UnderDampedBoundary
	}
}

// vAtOver, vAtCrit and vAtUnder evaluate the per-regime closed forms on
// scalar arguments; the scalar path reaches them through the vAt
// dispatcher. The batch run kernels in plan.go do not call them: each
// kernel spells its regime's expression out again, term for term with the
// same operands in the same order, so the two paths stay bitwise
// identical. TestPlanBitwiseEqualsScalar and FuzzPlanBatch hold them to
// it; an edit here must be mirrored there.
func vAtOver(beta, l1, l2, tau float64) float64 {
	if math.IsInf(l2, -1) {
		// L-only limit.
		return beta * (1 - math.Exp(l1*tau))
	}
	num := l2*math.Exp(l1*tau) - l1*math.Exp(l2*tau)
	return beta * (1 - num/(l2-l1))
}

func vAtCrit(beta, sigma, tau float64) float64 {
	l := -sigma
	return beta * (1 - (1-l*tau)*math.Exp(l*tau))
}

func vAtUnder(beta, sigma, omega, tau float64) float64 {
	e := math.Exp(-sigma * tau)
	return beta * (1 - e*(math.Cos(omega*tau)+sigma/omega*math.Sin(omega*tau)))
}

// vAt evaluates the closed-form bounce voltage at model time tau (no
// window clamping — callers clamp).
func vAt(beta float64, d dampState, tau float64) float64 {
	switch d.kind {
	case dampOver:
		return vAtOver(beta, d.l1, d.l2, tau)
	case dampCrit:
		return vAtCrit(beta, d.sigma, tau)
	default: // under-damped
		return vAtUnder(beta, d.sigma, d.omega, tau)
	}
}

// vmaxPeak is the under-damped first-peak maximum β·(1 + e^(-σπ/ω))
// (Eq. 24), shared like the vAt helpers.
func vmaxPeak(beta, sigma, omega float64) float64 {
	return beta * (1 + math.Exp(-sigma*math.Pi/omega))
}

// vmaxOf evaluates the Table 1 maximum for an already-classified point.
func vmaxOf(beta, tauR float64, d dampState, cse Case) float64 {
	if cse == UnderDampedPeak {
		return vmaxPeak(beta, d.sigma, d.omega)
	}
	return vAt(beta, d, tauR)
}

// Case returns the operating case the model classified at construction.
func (m *LCModel) Case() Case { return m.cse }

// Sigma returns the exponential decay rate σ = N·K·a/(2C) (0 when C = 0).
func (m *LCModel) Sigma() float64 { return m.d.sigma }

// Omega returns the damped ringing frequency ω (0 unless under-damped).
func (m *LCModel) Omega() float64 { return m.d.omega }

// firstPeakTime returns τp = π/ω, the time of the first SSN peak in the
// under-damped regime (Eq. 25).
func (m *LCModel) firstPeakTime() float64 { return math.Pi / m.d.omega }

// FirstPeakTime exposes τp; it returns +Inf outside the under-damped
// regime, where the response has no interior peak.
func (m *LCModel) FirstPeakTime() float64 {
	if m.cse == UnderDampedPeak || m.cse == UnderDampedBoundary {
		return m.firstPeakTime()
	}
	return math.Inf(1)
}

// V returns the SSN voltage at model time τ (τ = 0 at device turn-on),
// clamped to the model window like LModel.V.
func (m *LCModel) V(tau float64) float64 {
	if tau <= 0 {
		return 0
	}
	if tau > m.tauR {
		tau = m.tauR
	}
	return vAt(m.beta, m.d, tau)
}

// VDot returns dV/dτ at model time τ within the window (0 outside).
func (m *LCModel) VDot(tau float64) float64 {
	if tau <= 0 || tau > m.tauR {
		return 0
	}
	switch m.d.kind {
	case dampOver:
		if math.IsInf(m.d.l2, -1) {
			return -m.beta * m.d.l1 * math.Exp(m.d.l1*tau)
		}
		num := m.d.l1*m.d.l2*math.Exp(m.d.l1*tau) - m.d.l2*m.d.l1*math.Exp(m.d.l2*tau)
		return -m.beta * num / (m.d.l2 - m.d.l1)
	case dampCrit:
		l := -m.d.sigma
		return m.beta * l * l * tau * math.Exp(l*tau)
	default:
		e := math.Exp(-m.d.sigma * tau)
		w, s := m.d.omega, m.d.sigma
		return m.beta * e * (s*s/w + w) * math.Sin(w*tau)
	}
}

// ITotal returns the total transistor current N·Id(τ) = N·K·(s·τ - a·V(τ)).
func (m *LCModel) ITotal(tau float64) float64 {
	if tau <= 0 {
		return 0
	}
	if tau > m.tauR {
		tau = m.tauR
	}
	p := m.P
	return float64(p.N) * p.Dev.K * (p.Slope*tau - p.Dev.A*m.V(tau))
}

// IInductor returns the inductor branch current I_L = N·Id - C·V̇.
func (m *LCModel) IInductor(tau float64) float64 {
	if tau <= 0 {
		return 0
	}
	return m.ITotal(tau) - m.P.C*m.VDot(tau)
}

// VMax evaluates the Table 1 formula for the operating case: the maximum
// over the input ramp, 0 ≤ τ ≤ τr. A ringing net can peak higher after the
// ramp ends; that peak is not this value.
//
//	over/critically damped, under-damped boundary: V(τr) (monotone rise,
//	    or the ramp ends before the first peak develops);
//	under-damped peak: β·(1 + exp(-σπ/ω)) at τp = π/ω (Eq. 24).
func (m *LCModel) VMax() float64 {
	return vmaxOf(m.beta, m.tauR, m.d, m.cse)
}

// VMaxTime returns the model time of the maximum.
func (m *LCModel) VMaxTime() float64 {
	if m.cse == UnderDampedPeak {
		return m.firstPeakTime()
	}
	return m.tauR
}

// Waveforms samples V and the inductor current in absolute circuit time
// (see LModel.Waveforms).
func (m *LCModel) Waveforms(rampStart float64, n int) (v, i *waveform.Waveform, err error) {
	if n < 2 {
		return nil, nil, fmt.Errorf("ssn: need at least 2 samples, got %d", n)
	}
	t0 := rampStart + m.P.TurnOnDelay()
	v, err = waveform.FromFunc("model:v(vssi)", func(t float64) float64 {
		return m.V(t - t0)
	}, rampStart, t0+m.tauR, n)
	if err != nil {
		return nil, nil, err
	}
	i, err = waveform.FromFunc("model:i(lgnd)", func(t float64) float64 {
		return m.IInductor(t - t0)
	}, rampStart, t0+m.tauR, n)
	if err != nil {
		return nil, nil, err
	}
	return v, i, nil
}

// MaxSSN is the one-call API most users need: classify the case and return
// the Table 1 maximum along with the case.
func MaxSSN(p Params) (float64, Case, error) {
	m, err := NewLCModel(p)
	if err != nil {
		return 0, 0, err
	}
	return m.VMax(), m.Case(), nil
}
