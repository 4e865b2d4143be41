package oracle

import (
	"fmt"
	"math"

	"ssnkit/internal/circuit"
	"ssnkit/internal/device"
	"ssnkit/internal/ssn"
)

// mergedThreshold is the driver count above which Build collapses the
// array into one N-times-wider device. With zero skew the collapse is
// exact by symmetry (TestMergedMatchesExplicit pins it), and it keeps the
// campaign's per-point simulation cost independent of N.
const mergedThreshold = 8

// simStepsPerWindow sets the fixed-step resolution: steps across the model
// window τr, and (for ringing points) steps per damped period. 600 points
// per window keeps the trapezoidal integrator's global O(h²) error near
// 1e-5 relative; see the Tolerance doc for how the bands budget it.
const (
	simStepsPerWindow = 600
	simStepsPerCycle  = 300
	simStepsPerTau    = 6
	simMaxSteps       = 120000
)

// Build synthesizes the driver-array circuit for a design point: N
// identical ASDMDevice pull-downs discharging their loads into the shared
// ground net, gates driven by one common ramp. merged collapses the array
// into a single N-times-wider device.
//
// The device bulks are wired to the true ground node "0" — NOT the bounce
// rail like driver.ArrayConfig does — because ASDMDevice recovers the
// ground-referenced source voltage through vbs (see its doc). The load
// capacitance only has to absorb the drain charge (the ASDM has no drain
// feedback), so it is sized to keep the output swing near Vdd/2.
func Build(pt DesignPoint, merged bool) (*circuit.Circuit, error) {
	p := pt.Params()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rise := pt.Rise()
	delay := rise / 10
	tauR := p.TauRise()

	ckt := circuit.New(fmt.Sprintf("oracle %s", pt))
	ckt.AddV("vin", "g", "0", circuit.Ramp{V0: 0, V1: pt.Vdd, Delay: delay, Rise: rise})

	// Per-driver load: absorbs at most K*(Vdd-V0)*tauR of charge during
	// the window; 2x headroom keeps the (inert) output node well-behaved.
	cload := 2 * pt.K * (pt.Vdd - pt.V0) * tauR / pt.Vdd
	n := pt.N
	width := 1.0
	if merged {
		width = float64(pt.N)
		n = 1
	}
	// One shared device instance: Format dedupes .MODEL cards by identity,
	// so the dumped deck carries a single card for the whole array.
	dev := &device.ASDMDevice{
		ModelName: fmt.Sprintf("asdm-%gx", width),
		M:         device.ASDM{K: pt.K * width, V0: pt.V0, A: pt.A},
	}
	for i := 1; i <= n; i++ {
		out := fmt.Sprintf("out%d", i)
		ckt.AddM(fmt.Sprintf("m%d", i), out, "g", "vssi", "0", dev, circuit.NChannel)
		cl := ckt.AddC(fmt.Sprintf("cl%d", i), out, "0", cload*width)
		cl.IC = pt.Vdd
	}
	ckt.AddL("lgnd", "vssi", "0", pt.L)
	if pt.C > 0 {
		ckt.AddC("cnet", "vssi", "0", pt.C)
	}
	return ckt, nil
}

// TranSpec picks the fixed-step transient grid for a point: the run covers
// the input ramp (delay + rise, the window Table 1 models), resolved to
// simStepsPerWindow points per τr, simStepsPerCycle points per damped
// period when the point rings, and simStepsPerTau points per fastest
// natural time constant. The last one matters for stiff over/critically
// damped points (C far below critical): a step that only resolves the ramp
// leaves σ·h ≳ 1 and the trapezoidal rule smears the start-up transient
// into a percent-level error at the ramp end.
//
// This fixed grid is the reference. The simMaxSteps screen counts its
// steps, and a dumped deck replays it. Simulate steps a PoleBound point
// differently: from the window/cycle step, under the engine's LTE control.
func TranSpec(pt DesignPoint) (circuit.TranSpec, error) {
	stop, base, pole, err := stepGrid(pt)
	if err != nil {
		return circuit.TranSpec{}, err
	}
	step := math.Min(base, pole)
	if stop/step > simMaxSteps {
		return circuit.TranSpec{}, fmt.Errorf("oracle: point needs %.0f steps (cap %d): %s",
			stop/step, simMaxSteps, pt)
	}
	return circuit.TranSpec{Step: step, Stop: stop, UseIC: true}, nil
}

// stepGrid returns a point's run length and its two step bounds: base
// resolves the ramp window (and the damped period of a ringing point), pole
// the fastest natural time constant (+Inf when there is none). The point is
// pole-bound when pole < base.
func stepGrid(pt DesignPoint) (stop, base, pole float64, err error) {
	m, err := ssn.NewLCModel(pt.Params())
	if err != nil {
		return 0, 0, 0, err
	}
	rise := pt.Rise()
	stop = rise/10 + rise
	base = m.P.TauRise() / simStepsPerWindow
	if w := m.Omega(); w > 0 {
		base = math.Min(base, 2*math.Pi/w/simStepsPerCycle)
	}
	pole = math.Inf(1)
	if rate := fastRate(m.P); rate > 0 {
		pole = 1 / (simStepsPerTau * rate)
	}
	return stop, base, pole, nil
}

// PoleBound reports whether the point's fixed step is set by its fastest
// natural pole rather than by the ramp window or the ringing cycle: the
// points Simulate steps under LTE control. It is false for a point
// TranSpec cannot grid.
func PoleBound(pt DesignPoint) bool {
	_, base, pole, err := stepGrid(pt)
	return err == nil && pole < base
}

// fastRate returns the fastest natural decay rate of the bounce ODE: |l2|
// for over-damped points, σ otherwise, and the first-order pole 1/(N·K·a·L)
// in the C = 0 limit.
func fastRate(p ssn.Params) float64 {
	nka := float64(p.N) * p.Dev.K * p.Dev.A
	if p.C == 0 {
		return 1 / (nka * p.L)
	}
	sigma := nka / (2 * p.C)
	if disc := sigma*sigma - 1/(p.L*p.C); disc > 0 {
		return sigma + math.Sqrt(disc)
	}
	return sigma
}

// BuildDeck assembles the circuit and its reference fixed-step transient
// spec (TranSpec), choosing merged synthesis above mergedThreshold
// drivers. Simulate runs this spec as given, except for a PoleBound point,
// which it runs from the window/cycle step under LTE control instead.
func BuildDeck(pt DesignPoint) (*circuit.Circuit, circuit.TranSpec, error) {
	tran, err := TranSpec(pt)
	if err != nil {
		return nil, circuit.TranSpec{}, err
	}
	ckt, err := Build(pt, pt.N > mergedThreshold)
	if err != nil {
		return nil, circuit.TranSpec{}, err
	}
	return ckt, tran, nil
}

// Deck packages the point as a parseable netlist deck (the .cir shape of
// repro dumps): BuildDeck's circuit and its reference .tran card. A
// PoleBound point's deck therefore carries the fixed pole-step card, not
// the adaptive run Simulate makes. Replayed without options it reproduces
// the fixed-step reference, which TestStiffMatchesFixedStep holds within
// 1e-6 of Simulate's peak over the bench suite.
func Deck(pt DesignPoint) (*circuit.Deck, error) {
	ckt, tran, err := BuildDeck(pt)
	if err != nil {
		return nil, err
	}
	return &circuit.Deck{Circuit: ckt, Tran: &tran}, nil
}
