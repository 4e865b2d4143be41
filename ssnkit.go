// Package ssnkit is a Go library for analyzing simultaneous switching noise
// (SSN, "ground bounce") at chip I/O pads. It reproduces and packages the
// models of Ding & Mazumder, "Accurate Estimating Simultaneous Switching
// Noises by Using Application Specific Device Modeling" (DATE 2002):
//
//   - an application-specific MOSFET model (ASDM) fitted to the SSN
//     operating region, Id = K·(Vg − V0 − a·Vs);
//   - a closed-form SSN waveform and maximum for inductance-only ground
//     nets (paper Sec. 3);
//   - a four-case closed form covering ground inductance plus pad
//     capacitance (paper Sec. 4, Table 1), with the critical capacitance
//     separating the damped regimes;
//   - reconstructions of the prior-art estimates the paper compares with;
//   - everything needed to validate the above from scratch: a MOSFET
//     device-model library, a SPICE-like transient circuit simulator,
//     package parasitic models and a driver-array circuit generator.
//
// This root package re-exports the supported API surface — type aliases
// for data types, real wrapper functions for entry points (so every
// signature is locked at compile time and godoc shows it in place) — and
// downstream users never import ssnkit/internal/... directly:
//
//	asdm, _ := ssnkit.C018.ExtractASDM()
//	p := ssnkit.Params{N: 16, Dev: asdm, Vdd: 1.8, Slope: 1.8e9,
//	    L: 5e-9 / 4, C: 4e-12}
//	vmax, cse, _ := ssnkit.MaxSSN(p)
//
// The experiment harnesses that regenerate every figure and table of the
// paper live in cmd/ssnrepro; see EXPERIMENTS.md for the paper-vs-measured
// summary.
//
// For long-running consumption — batch evaluation, model waveforms over
// HTTP, asynchronous Monte Carlo jobs — cmd/ssnserve wraps these models in
// a concurrent evaluation service with an ASDM extraction cache and
// Prometheus metrics (see README "Running the service").
package ssnkit

import (
	"context"
	"io"

	"ssnkit/internal/circuit"
	"ssnkit/internal/device"
	"ssnkit/internal/driver"
	"ssnkit/internal/fit"
	"ssnkit/internal/pkgmodel"
	"ssnkit/internal/spice"
	"ssnkit/internal/ssn"
	"ssnkit/internal/waveform"
)

// Core SSN model API (internal/ssn).
type (
	// Params collects the inputs of the closed-form SSN models.
	Params = ssn.Params
	// LModel is the inductance-only closed form (paper Sec. 3).
	LModel = ssn.LModel
	// LCModel is the four-case inductance+capacitance model (Table 1).
	LCModel = ssn.LCModel
	// Case identifies which Table 1 formula applies.
	Case = ssn.Case
	// AlphaParams parameterize the prior-art baseline estimates.
	AlphaParams = ssn.AlphaParams
	// BaselineInput bundles circuit parameters for the baselines.
	BaselineInput = ssn.BaselineInput
	// Staggered integrates the ASDM system for drivers that do not switch
	// simultaneously (the paper's Sec. 3 design knob).
	Staggered = ssn.Staggered
	// Sensitivity holds first-order dVmax/d{N,L,s,C} at an operating
	// point.
	Sensitivity = ssn.Sensitivity
	// Victim models the glitch coupled onto a quiet-low output.
	Victim = ssn.Victim
	// Variation and MCResult drive Monte Carlo analysis over MaxSSN.
	Variation = ssn.Variation
	MCResult  = ssn.MCResult
	// ValidationError is the structured error every input check returns:
	// field, value and violated constraint, with the legacy message as
	// Error(). Services map it onto HTTP 400 bodies.
	ValidationError = ssn.ValidationError
)

// The four operating cases of the LC model.
const (
	OverDamped          = ssn.OverDamped
	CriticallyDamped    = ssn.CriticallyDamped
	UnderDampedPeak     = ssn.UnderDampedPeak
	UnderDampedBoundary = ssn.UnderDampedBoundary
)

// MaxSSN classifies the operating case and evaluates the Table 1
// maximum-noise formula.
func MaxSSN(p Params) (float64, Case, error) { return ssn.MaxSSN(p) }

// NewLModel builds the Sec. 3 inductance-only model.
func NewLModel(p Params) (*LModel, error) { return ssn.NewLModel(p) }

// NewLCModel builds the Sec. 4 four-case model.
func NewLCModel(p Params) (*LCModel, error) { return ssn.NewLCModel(p) }

// MaxDriversForBudget sizes the largest simultaneously switching bus that
// meets a noise budget.
func MaxDriversForBudget(p Params, budget float64, limit int) (int, error) {
	return ssn.MaxDriversForBudget(p, budget, limit)
}

// MinRiseTimeForBudget finds the fastest edge meeting a noise budget.
func MinRiseTimeForBudget(p Params, budget, trFast, trSlow float64) (float64, error) {
	return ssn.MinRiseTimeForBudget(p, budget, trFast, trSlow)
}

// InductanceBudget finds the largest ground inductance meeting a noise
// budget.
func InductanceBudget(p Params, budget, lMin, lMax float64) (float64, error) {
	return ssn.InductanceBudget(p, budget, lMin, lMax)
}

// SquareLawMax is the classic square-law prior-art baseline.
func SquareLawMax(in BaselineInput, kp, vt float64) (float64, error) {
	return ssn.SquareLawMax(in, kp, vt)
}

// VemuruMax is the Vemuru alpha-power prior-art baseline.
func VemuruMax(in BaselineInput, ap AlphaParams) (float64, error) {
	return ssn.VemuruMax(in, ap)
}

// SongMax is the Song et al. prior-art baseline.
func SongMax(in BaselineInput, ap AlphaParams) (float64, error) {
	return ssn.SongMax(in, ap)
}

// NewStaggered analyzes drivers that do not switch simultaneously.
func NewStaggered(p Params, offsets []float64) (*Staggered, error) {
	return ssn.NewStaggered(p, offsets)
}

// UniformStagger builds n switching offsets spaced dt apart.
func UniformStagger(n int, dt float64) []float64 { return ssn.UniformStagger(n, dt) }

// LSensitivity evaluates design sensitivities of the L-only model.
func LSensitivity(p Params) (Sensitivity, error) { return ssn.LSensitivity(p) }

// LCSensitivity evaluates design sensitivities of the LC model
// analytically, per Table 1 case; at the under-damped peak/boundary switch
// they are one-sided, from the case MaxSSN picks. h is ignored and kept
// for compatibility.
func LCSensitivity(p Params, h float64) (Sensitivity, error) {
	return ssn.LCSensitivity(p, h)
}

// NewVictim analyzes quiet-output glitches and noise margins.
func NewVictim(p Params, ron, cl float64) (*Victim, error) {
	return ssn.NewVictim(p, ron, cl)
}

// MonteCarlo draws process/environment variations over MaxSSN on a
// GOMAXPROCS worker pool.
func MonteCarlo(p Params, v Variation, n int, seed int64) (*MCResult, error) {
	return ssn.MonteCarlo(p, v, n, seed)
}

// MonteCarloCtx is MonteCarlo with cancellation and an explicit worker
// count (deterministic per seed and worker count).
func MonteCarloCtx(ctx context.Context, p Params, v Variation, n int, seed int64, workers int) (*MCResult, error) {
	return ssn.MonteCarloCtx(ctx, p, v, n, seed, workers)
}

// DelayPushout estimates the switching-delay cost of the bounce.
func DelayPushout(p Params) (float64, error) { return ssn.DelayPushout(p) }

// Inverse design and yield API (internal/ssn).
type (
	// SolveVar names the free variable of an inverse query.
	SolveVar = ssn.SolveVar
	// Solution is a solved inverse query: the boundary value of the free
	// variable and the operating point it lands on.
	Solution = ssn.Solution
	// SolveError reports an inverse query with no boundary inside the
	// search bracket (the budget is met everywhere, or nowhere).
	SolveError = ssn.SolveError
	// YieldResult is a Monte Carlo pass-probability estimate against a
	// noise budget, with a 95% Wilson score interval.
	YieldResult = ssn.YieldResult
)

// The free variables an inverse query may solve for.
const (
	SolveN        = ssn.SolveN
	SolveL        = ssn.SolveL
	SolveC        = ssn.SolveC
	SolveSlope    = ssn.SolveSlope
	SolveRiseTime = ssn.SolveRiseTime
)

// ParseSolveVar resolves "n", "l", "c", "slope", "rise_time" (alias "tr").
func ParseSolveVar(name string) (SolveVar, error) { return ssn.ParseSolveVar(name) }

// Solve finds the boundary value of the free variable at which the Table 1
// maximum meets the budget, over the variable's default bracket: Newton on
// the analytic per-case derivative, safeguarded by bisection across case
// boundaries. The returned point satisfies budget-1e-9 <= Vmax <= budget.
func Solve(p Params, v SolveVar, budget float64) (Solution, error) {
	return ssn.Solve(p, v, budget)
}

// SolveBracket is Solve over an explicit search bracket [lo, hi].
func SolveBracket(p Params, v SolveVar, budget, lo, hi float64) (Solution, error) {
	return ssn.SolveBracket(p, v, budget, lo, hi)
}

// Yield estimates the probability that a design meets a noise budget under
// process variation: n Monte Carlo draws through the deterministic
// parallel campaign, returning the pass fraction with a 95% Wilson score
// interval.
func Yield(p Params, v Variation, budget float64, n int, seed int64) (*YieldResult, error) {
	return ssn.Yield(p, v, budget, n, seed)
}

// YieldCtx is Yield with cancellation and an explicit worker count
// (deterministic per seed and worker count).
func YieldCtx(ctx context.Context, p Params, v Variation, budget float64, n int, seed int64, workers int) (*YieldResult, error) {
	return ssn.YieldCtx(ctx, p, v, budget, n, seed, workers)
}

// Device modeling API (internal/device).
type (
	// ASDM is the paper's application-specific device model.
	ASDM = device.ASDM
	// ExtractRegion describes the (Vg, Vs) region an ASDM is fitted over.
	ExtractRegion = device.ExtractRegion
	// DeviceModel is the large-signal MOSFET interface the simulator uses.
	DeviceModel = device.Model
	// Reference is the golden short-channel device (BSIM3 stand-in).
	Reference = device.Reference
	// AlphaPower is the Sakurai-Newton device model.
	AlphaPower = device.AlphaPower
	// SquareLaw is the classic long-channel device model.
	SquareLaw = device.SquareLaw
	// Process bundles a technology kit (supply + golden driver).
	Process = device.Process
	// Corner names a process corner (TT/SS/FF) for Process.At.
	Corner = device.Corner
	// ExtractSpec names one ASDM extraction (process, corner, polarity,
	// width); its Normalized() value is the cache key batch consumers
	// reuse extractions under.
	ExtractSpec = device.ExtractSpec
	// FitStats reports goodness-of-fit of a device extraction.
	FitStats = fit.Stats
)

// Process corners.
const (
	TT = device.TT
	SS = device.SS
	FF = device.FF
)

// Process kits.
var (
	C018 = device.C018
	C025 = device.C025
	C035 = device.C035
)

// Processes lists the built-in technology kits.
func Processes() []Process { return device.Processes() }

// ProcessByName resolves a kit by name ("c018", "c025", "c035").
func ProcessByName(name string) (Process, error) { return device.ProcessByName(name) }

// ExtractASDM fits the paper's application-specific device model to a
// golden device over the SSN operating region.
func ExtractASDM(golden DeviceModel, region ExtractRegion) (ASDM, FitStats, error) {
	return device.ExtractASDM(golden, region)
}

// ExtractAlphaPowerSat fits the Sakurai-Newton saturation model to a
// golden device (the baselines' parameter source).
func ExtractAlphaPowerSat(golden DeviceModel, vdd float64) (b, vt, alpha float64, stats FitStats, err error) {
	return device.ExtractAlphaPowerSat(golden, vdd)
}

// TriodeResistance returns a quiet driver's channel resistance, the Ron
// input of the victim-glitch model.
func TriodeResistance(m DeviceModel, vgs, vbs float64) float64 {
	return device.TriodeResistance(m, vgs, vbs)
}

// CornerByName parses "tt"/"ss"/"ff".
func CornerByName(name string) (Corner, error) { return device.CornerByName(name) }

// Circuit and simulation API (internal/circuit, internal/spice).
type (
	// Circuit is a flat netlist.
	Circuit = circuit.Circuit
	// Deck is a parsed netlist plus requested analyses.
	Deck = circuit.Deck
	// TranSpec and DCSpec request analyses.
	TranSpec = circuit.TranSpec
	DCSpec   = circuit.DCSpec
	// Engine is the MNA/Newton-Raphson simulator.
	Engine = spice.Engine
	// SimOptions tune solver tolerances.
	SimOptions = spice.Options
	// DCSweepResult carries the operating points of a .dc analysis.
	DCSweepResult = spice.DCSweepResult
	// Source is a time-dependent stimulus.
	Source = circuit.Source
	// Ramp is the SSN input stimulus.
	Ramp = circuit.Ramp
)

// NewCircuit starts an empty netlist with the given title.
func NewCircuit(title string) *Circuit { return circuit.New(title) }

// ParseNetlist reads a SPICE-like deck: netlist plus analysis cards.
func ParseNetlist(r io.Reader) (*Deck, error) { return circuit.Parse(r) }

// NewEngine builds the MNA/Newton-Raphson simulator over a circuit.
func NewEngine(ckt *Circuit, opts SimOptions) (*Engine, error) { return spice.New(ckt, opts) }

// RunDeck executes every analysis a parsed deck requests.
func RunDeck(deck *Deck, opts SimOptions) (*WaveformSet, *DCSweepResult, error) {
	return spice.Run(deck, opts)
}

// Scenario generation API (internal/driver, internal/pkgmodel).
type (
	// ArrayConfig describes a driver-array SSN scenario.
	ArrayConfig = driver.ArrayConfig
	// SimResult packages the observables of one scenario run.
	SimResult = driver.SimResult
	// PullKind selects ground bounce (pull-down) or power-rail droop
	// (pull-up) scenarios.
	PullKind = driver.Pull
	// Package is a package parasitic class; GroundNet the paralleled
	// ground pins seen by the chip.
	Package   = pkgmodel.Package
	GroundNet = pkgmodel.GroundNet
)

// Driver polarities for ArrayConfig.Pull.
const (
	PullDown = driver.PullDown
	PullUp   = driver.PullUp
)

// Package parasitic classes.
var (
	PGA = pkgmodel.PGA
	QFP = pkgmodel.QFP
	BGA = pkgmodel.BGA
	COB = pkgmodel.COB
)

// PackageCatalog lists the built-in package classes.
func PackageCatalog() []Package { return pkgmodel.Catalog() }

// PackageByName resolves a package class by name ("pga", "qfp", ...).
func PackageByName(name string) (Package, error) { return pkgmodel.ByName(name) }

// Simulate generates and runs one driver-array SSN scenario at the
// transistor level (step/stop 0 pick defaults from the rise time).
func Simulate(cfg ArrayConfig, opts SimOptions, step, stop float64) (*SimResult, error) {
	return driver.Simulate(cfg, opts, step, stop)
}

// Waveform API (internal/waveform).
type (
	// Waveform is a sampled signal; WaveformSet a named collection.
	Waveform    = waveform.Waveform
	WaveformSet = waveform.Set
)
