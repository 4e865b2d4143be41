// Package oracle is ssnkit's differential-verification subsystem: it
// cross-checks the paper's closed-form SSN maxima (internal/ssn, Table 1)
// against the transistor-level transient engine (internal/spice) on
// randomized-but-seeded design points.
//
// The trick that makes the check tight is device.ASDMDevice: the netlist
// uses the *exact* device the closed forms assume, so the analytic maximum
// and the simulated bounce must agree to numerical-integration accuracy —
// fractions of a percent, not the ~10% device-modeling error the paper's
// Fig. 3 comparison absorbs. Per-case tolerance bands (Tolerance) encode
// the expected discretization error of the trapezoidal integrator plus
// peak-sampling error; any point outside its band is a genuine
// disagreement between the two implementations, is shrunk to a minimal
// repro (Shrink) and dumped as a .cir deck plus JSON design point
// (DumpRepro) for regression.
//
// The package runs four such differential checks: closed form vs
// transient (Check), AC adjoint vs finite differences (CheckAC), AC sweep
// reuse (CheckACSweepReuse) and the rank-1 update (CheckRank1). Each plugs
// its generator, per-worker checker and shrink schedule into one campaign
// (campaign.go), which checks seeded points in parallel, tallies them in
// index order into one report type, shrinks disagreements with one shrink
// driver and dumps them in one JSON repro format (shrink.go).
//
// Three layers consume the checks:
//
//   - native Go fuzz targets (FuzzMaxSSNvsSpice, FuzzLCLimitToL,
//     FuzzCaseBoundaryContinuity, FuzzACAdjointVsFD, FuzzACSweepReuse,
//     FuzzRank1Update) plus metamorphic invariants;
//   - seeded campaigns: Run behind cmd/ssnoracle and the tier-1
//     TestCampaign, and the AC, sweep-reuse and rank-1 campaigns behind
//     their tier-1 tests;
//   - curated hard points under testdata/repros replayed as table-driven
//     regression tests.
package oracle

import (
	"fmt"
	"math"

	"ssnkit/internal/device"
	"ssnkit/internal/driver"
	"ssnkit/internal/spice"
	"ssnkit/internal/ssn"
)

// DesignPoint is one randomized configuration of the paper's design space:
// the driver array (N, ASDM parameters), the ground net (L, C) and the
// input edge (Slope, Vdd). It is the JSON shape of repro dumps.
type DesignPoint struct {
	N     int     `json:"n"`     // simultaneously switching drivers
	L     float64 `json:"l"`     // ground inductance, H
	C     float64 `json:"c"`     // ground (pad) capacitance, F
	K     float64 `json:"k"`     // ASDM transconductance, A/V
	V0    float64 `json:"v0"`    // ASDM displacement voltage, V
	A     float64 `json:"a"`     // ASDM source sensitivity
	Slope float64 `json:"slope"` // input ramp slope, V/s
	Vdd   float64 `json:"vdd"`   // input ramp top, V
}

// Params maps the design point onto the closed-form parameter struct.
func (pt DesignPoint) Params() ssn.Params {
	return ssn.Params{
		N:     pt.N,
		Dev:   device.ASDM{K: pt.K, V0: pt.V0, A: pt.A},
		Vdd:   pt.Vdd,
		Slope: pt.Slope,
		L:     pt.L,
		C:     pt.C,
	}
}

// Rise returns the input edge rise time Vdd/Slope.
func (pt DesignPoint) Rise() float64 { return pt.Vdd / pt.Slope }

func (pt DesignPoint) String() string {
	return fmt.Sprintf("N=%d L=%.4g C=%.4g K=%.4g V0=%.4g a=%.4g slope=%.4g Vdd=%.4g",
		pt.N, pt.L, pt.C, pt.K, pt.V0, pt.A, pt.Slope, pt.Vdd)
}

// Tolerance returns the per-case relative tolerance band of the
// differential check. The bands bound the *numerical* disagreement of two
// correct implementations:
//
//   - cases measured at the ramp end (over-damped, critically damped,
//     under-damped boundary) see only the integrator's global O(h²)
//     truncation error; at the TranSpec step densities the worst observed
//     error over 20k generated points is ~1.3e-6. The band is 5e-4.
//   - the under-damped peak case adds peak-sampling error (the discrete
//     time grid straddles the analytic peak, O((ωh)²/8) relative) and
//     error accumulated over the ringing cycles; worst observed ~1.3e-5.
//     The band is 2e-3.
//
// Both bands sit two orders of magnitude above the measured numerical
// noise floor, so a point outside its band is a real divergence between
// the closed forms and the transient engine, not integration noise — while
// still flagging sub-percent modeling bugs. DESIGN.md §11 derives the
// numbers.
func Tolerance(c ssn.Case) float64 {
	if c == ssn.UnderDampedPeak {
		return 2e-3
	}
	return 5e-4
}

// vmaxFloor is the relative-error denominator floor, as a fraction of Vdd:
// points whose analytic maximum is tiny compare against this instead, so
// the relative error stays meaningful. The generator rejects points this
// small anyway; the floor guards hand-written and fuzzed points.
const vmaxFloor = 1e-3

// Result is the outcome of one differential check.
type Result struct {
	verdict
	Point    DesignPoint `json:"-"` // a repro file's own "point" field
	Case     ssn.Case    `json:"case"`
	CaseName string      `json:"case_name"`
	Analytic float64     `json:"analytic"` // Table 1 closed form, V
	Sim      float64     `json:"sim"`      // transient-engine maximum in the ramp window, V
	RelErr   float64     `json:"rel_err"`  // |sim-analytic| / max(analytic, floor)
	Tol      float64     `json:"tol"`      // band the point was judged against
	SimSteps int         `json:"sim_steps,omitempty"`
}

func (r Result) String() string {
	return fmt.Sprintf("%s [%s] analytic=%.6g sim=%.6g rel=%.3g tol=%.3g %s",
		r.status(), r.CaseName, r.Analytic, r.Sim, r.RelErr, r.Tol, r.Point)
}

func (r Result) tally() (string, float64) { return r.CaseName, r.RelErr }

// Check runs the full differential comparison for one design point:
// classify and evaluate the closed form, synthesize the equivalent
// driver-array netlist, simulate it, and compare the in-ramp maxima
// against the per-case tolerance band. A zero opts uses the engine
// defaults (fixed-step trapezoidal integration).
func Check(pt DesignPoint, opts spice.Options) Result {
	var pl ssn.Plan
	return checkWith(&pl, pt, opts)
}

// checkWith is Check with a caller-owned Plan for the analytic side.
// Compile with PlanFixed validates exactly like the model constructor and
// produces bitwise-identical Table 1 answers, so campaign workers reuse
// one Plan across their stripe of points instead of allocating a model
// per check — the analytic half of the comparison stays off the heap.
func checkWith(pl *ssn.Plan, pt DesignPoint, opts spice.Options) Result {
	res := Result{Point: pt}
	if err := pl.Compile(pt.Params(), ssn.PlanFixed); err != nil {
		res.Err = err
		return res
	}
	res.Case = pl.Case()
	res.CaseName = pl.Case().String()
	res.Analytic = pl.VMax()
	res.Tol = Tolerance(pl.Case())

	sim, steps, err := Simulate(pt, opts)
	if err != nil {
		res.Err = err
		return res
	}
	res.Sim = sim
	res.SimSteps = steps
	res.RelErr = math.Abs(sim-res.Analytic) / math.Max(res.Analytic, vmaxFloor*pt.Vdd)
	res.Pass = res.RelErr <= res.Tol
	return res
}

// stiffLTETol is the local-truncation-error target of a pole-bound
// point's adaptive run. Over the bench suite's 103 pole-bound points it
// keeps every peak within 1.5e-7 relative of the fixed pole-step run;
// 1e-4 lets one point drift 6.3e-5.
const stiffLTETol = 1e-5

// Simulate synthesizes the netlist for the point and runs the transient
// engine, returning the peak bounce voltage inside the ramp window (the
// quantity Table 1 models) and the number of samples the run took: the
// accepted time steps plus the initial point. Only the peak is kept, not
// the waveforms.
//
// A PoleBound point runs instead from the window/cycle step under the
// engine's LTE control at stiffLTETol, whatever opts says about
// adaptivity: its pole matters only around device turn-on, where the
// control shrinks the step. Every other point runs on BuildDeck's fixed
// grid with opts as given.
func Simulate(pt DesignPoint, opts spice.Options) (vmax float64, steps int, err error) {
	ckt, tran, err := BuildDeck(pt)
	if err != nil {
		return 0, 0, err
	}
	if _, base, pole, _ := stepGrid(pt); pole < base {
		tran.Step = base
		opts.Adaptive, opts.LTETol = true, stiffLTETol
	}
	eng, err := spice.New(ckt, opts)
	if err != nil {
		return 0, 0, err
	}
	_, vmax, steps, err = eng.TransientPeak(tran, driver.BounceNode)
	return vmax, steps, err
}
