package spice

import (
	"math"
	"strings"
	"testing"

	"ssnkit/internal/circuit"
)

// stiffPulldown is an ASDM pull-down (the oracle's device) discharging
// its load into a 2 nH ground inductor shunted by 3 fF: the bounce node's
// fast pole (σ = k·a/2C = 4e12/s) is five times faster than the 1.3 ps
// step. The gate ramp's breakpoints sit at 0.1 ns and 1.1 ns; the device
// turns on between them, at vgs = v0, which is no breakpoint, and excites
// the fast pole there. The bounce settles near L·k·slope = 72 mV.
const stiffPulldown = `stiff asdm pulldown
vin g 0 ramp(0 1.8 0.1n 1n)
m1 out g vssi 0 mod1
cl out 0 24p ic=1.8
lgnd vssi 0 2n
cnet vssi 0 3f
.model mod1 nmos (level=4 k=20m v0=0.4 a=1.2)
.tran 1.3p 1.1n uic
.end
`

// TestLTERejectsOffBreakpoint runs the stiff pull-down from its 1.3 ps
// step under LTE control. The turn-on must trigger rejections, and every
// sample must stay within 1e-4 of the bounce (72 mV) of a 0.01 ps
// fixed-step reference, in fewer samples than the reference takes. The
// same step without control misses that bound (it deviates 1.6e-3).
func TestLTERejectsOffBreakpoint(t *testing.T) {
	const bound = 1e-4 * 0.072
	deck, err := circuit.Parse(strings.NewReader(stiffPulldown))
	if err != nil {
		t.Fatal(err)
	}
	ref := *deck.Tran
	ref.Step = 0.01e-12
	refSet, err := newDeckEngine(t, deck, Options{}).Transient(ref)
	if err != nil {
		t.Fatal(err)
	}
	want := refSet.Get("v(vssi)")
	run := func(opts Options) (dev float64, samples, rejects int) {
		eng := newDeckEngine(t, deck, opts)
		set, err := eng.Transient(*deck.Tran)
		if err != nil {
			t.Fatal(err)
		}
		w := set.Get("v(vssi)")
		for i, tm := range w.Times {
			dev = math.Max(dev, math.Abs(w.Values[i]-want.At(tm)))
		}
		return dev, w.Len(), eng.rejects
	}
	dev, n, rejects := run(Options{Adaptive: true, LTETol: 1e-6})
	if rejects == 0 {
		t.Error("device turn-on triggered no LTE rejection")
	}
	if dev > bound {
		t.Errorf("adaptive run deviates %.3g V from the fixed-step reference, bound %.3g", dev, bound)
	}
	if n >= want.Len() {
		t.Errorf("adaptive run took %d samples, the fixed-step reference %d", n, want.Len())
	}
	if fixed, _, _ := run(Options{}); fixed <= bound {
		t.Errorf("the uncontrolled %g s step deviates only %.3g V: the deck is not stiff", deck.Tran.Step, fixed)
	}
	t.Logf("deviation %.3g V in %d samples (%d rejected) against %d", dev, n, rejects, want.Len())
}

// TestLTEHistoryRestartsAtBreakpoint drives a resistive divider with a
// trapezoid pulse: every unknown is linear in time between the source's
// breakpoints, so the third divided difference vanishes unless the
// estimate straddles a corner. The history restarts at each breakpoint, so
// no step may be rejected.
func TestLTEHistoryRestartsAtBreakpoint(t *testing.T) {
	ckt := circuit.New("divider")
	ckt.AddV("v1", "in", "0", circuit.Pulse{V1: 0, V2: 1, Delay: 1e-9, Rise: 2e-9, Fall: 2e-9, Width: 3e-9})
	ckt.AddR("r1", "in", "out", 1e3)
	ckt.AddR("r2", "out", "0", 1e3)
	e, err := New(ckt, Options{Adaptive: true, LTETol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Transient(circuit.TranSpec{Step: 0.1e-9, Stop: 10e-9}); err != nil {
		t.Fatal(err)
	}
	if e.rejects != 0 {
		t.Errorf("%d steps rejected on a piecewise-linear solution", e.rejects)
	}
}

// TestTransientPeakAdaptiveAllocsFlat checks that LTE control keeps
// nothing per step: from a 50 ps base step, where the control sets every
// step, tightening the tolerance multiplies the accepted and rejected
// steps but leaves TransientPeak's allocations unchanged.
func TestTransientPeakAdaptiveAllocsFlat(t *testing.T) {
	deck, err := circuit.Parse(strings.NewReader(stiffPulldown))
	if err != nil {
		t.Fatal(err)
	}
	spec := *deck.Tran
	spec.Step = 50e-12
	run := func(tol float64) (allocs float64, samples int) {
		allocs = testing.AllocsPerRun(3, func() {
			eng, err := New(deck.Circuit, Options{Adaptive: true, LTETol: tol})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, samples, err = eng.TransientPeak(spec, "vssi"); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, samples
	}
	coarse, nCoarse := run(1e-3)
	fine, nFine := run(1e-9)
	if nFine < 4*nCoarse {
		t.Fatalf("LTETol 1e-9 took %d samples against %d at 1e-3; the run did not grow", nFine, nCoarse)
	}
	if fine > coarse {
		t.Fatalf("adaptive TransientPeak allocs grew from %v to %v with the step count (%d to %d samples)",
			coarse, fine, nCoarse, nFine)
	}
}
