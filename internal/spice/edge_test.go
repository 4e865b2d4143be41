package spice

import (
	"fmt"
	"math"
	"testing"

	"ssnkit/internal/circuit"
	"ssnkit/internal/device"
	"ssnkit/internal/ssn"
	"ssnkit/internal/waveform"
)

// Edge-of-envelope decks: the degenerate shapes the oracle generator can
// emit (one driver, no pad capacitance, a ramp faster than the time grid)
// must go through the optimized engine exactly like the reference path.

// edgeDriverDeck builds an n-driver ASDM array bouncing a ground net:
// L to ground always, pad capacitance only when c > 0 — the same topology
// internal/oracle synthesizes.
func edgeDriverDeck(n int, l, c float64) *circuit.Circuit {
	const (
		vdd  = 2.5
		v0   = 0.6
		k    = 4e-3
		a    = 1.3
		rise = 1e-9
	)
	ckt := circuit.New(fmt.Sprintf("edge %d-driver", n))
	ckt.AddV("vin", "g", "0", circuit.Ramp{V0: 0, V1: vdd, Delay: rise / 10, Rise: rise})
	dev := &device.ASDMDevice{
		ModelName: "asdm",
		M:         device.ASDM{K: k, V0: v0, A: a},
	}
	for i := 1; i <= n; i++ {
		out := fmt.Sprintf("out%d", i)
		ckt.AddM(fmt.Sprintf("m%d", i), out, "g", "vssi", "0", dev, circuit.NChannel)
		cl := ckt.AddC(fmt.Sprintf("cl%d", i), out, "0", 4e-12)
		cl.IC = vdd
	}
	ckt.AddL("lgnd", "vssi", "0", l)
	if c > 0 {
		ckt.AddC("cnet", "vssi", "0", c)
	}
	return ckt
}

func runEdge(t *testing.T, ckt *circuit.Circuit, spec circuit.TranSpec, ref bool) *waveform.Set {
	t.Helper()
	eng, err := New(ckt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng.refMode = ref
	set, err := eng.Transient(spec)
	if err != nil {
		t.Fatalf("transient (ref=%v): %v", ref, err)
	}
	return set
}

// TestEdgeSingleDriver pins the N=1 corner: one device, no array symmetry
// for the caches to lean on.
func TestEdgeSingleDriver(t *testing.T) {
	spec := circuit.TranSpec{Step: 2e-12, Stop: 2.2e-9, UseIC: true}
	ref := runEdge(t, edgeDriverDeck(1, 5e-9, 8e-12), spec, true)
	opt := runEdge(t, edgeDriverDeck(1, 5e-9, 8e-12), spec, false)
	diffSets(t, "single-driver", ref, opt)

	_, peak := ref.Get("v(vssi)").Max()
	if peak <= 0 || peak >= 2.5 {
		t.Fatalf("single-driver bounce peak %g outside (0, Vdd)", peak)
	}
}

// TestEdgeZeroCapacitance drops the pad capacitor entirely: the bounce node
// is held only by the inductor branch, and the response collapses to the
// first-order L-only model, which it must match analytically too.
func TestEdgeZeroCapacitance(t *testing.T) {
	spec := circuit.TranSpec{Step: 1e-12, Stop: 2.2e-9, UseIC: true}
	ref := runEdge(t, edgeDriverDeck(4, 5e-9, 0), spec, true)
	opt := runEdge(t, edgeDriverDeck(4, 5e-9, 0), spec, false)
	diffSets(t, "zero-capacitance", ref, opt)

	p := ssn.Params{
		N: 4, L: 5e-9,
		Dev:   device.ASDM{K: 4e-3, V0: 0.6, A: 1.3},
		Vdd:   2.5,
		Slope: 2.5 / 1e-9, // Vdd / rise, matching the deck's ramp
	}
	m, err := ssn.NewLModel(p)
	if err != nil {
		t.Fatal(err)
	}
	_, peak := ref.Get("v(vssi)").Max()
	if rel := math.Abs(peak-m.VMax()) / m.VMax(); rel > 1e-3 {
		t.Fatalf("C=0 deck deviates from L-only closed form: sim %g analytic %g (rel %.3g)",
			peak, m.VMax(), rel)
	}
}

// TestEdgeRiseShorterThanStep makes the input ramp finish inside the first
// time step: the source is quiescent at every grid point after t=0, but the
// companion-model history still has to start from the correct initial state
// instead of folding the whole edge into one inconsistent step.
func TestEdgeRiseShorterThanStep(t *testing.T) {
	ckt := edgeDriverDeck(2, 5e-9, 8e-12)
	// Step 10x the total delay+rise window of 1.1ns.
	spec := circuit.TranSpec{Step: 1.1e-8, Stop: 4.4e-7, UseIC: true}
	ref := runEdge(t, ckt, spec, true)
	opt := runEdge(t, edgeDriverDeck(2, 5e-9, 8e-12), spec, false)
	diffSets(t, "subsampled-rise", ref, opt)

	w := ref.Get("v(vssi)")
	if w == nil {
		t.Fatal("missing v(vssi)")
	}
	// The under-resolved LC tank keeps ringing (trapezoidal is A-stable,
	// not L-stable, so the unresolved mode is not damped out) — the edge
	// guarantee is boundedness and finiteness, not settling.
	for i, v := range w.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite bounce at sample %d", i)
		}
		if math.Abs(v) > 2.5 {
			t.Fatalf("bounce |%g| exceeds Vdd at sample %d after subsampled edge", v, i)
		}
	}
}

// TestFactorReuseKeyedOnConductances pins the factorization-reuse rule on
// the oracle topology. The ASDM's partials are constant while it conducts,
// so the fast path factors once per (h, mode, conduction state), a handful
// of times per run, while the reference path factors on every Newton
// iteration; the waveforms must still match bit for bit.
func TestFactorReuseKeyedOnConductances(t *testing.T) {
	const maxFastFactors = 16
	spec := circuit.TranSpec{Step: 2e-12, Stop: 2.2e-9, UseIC: true}
	run := func(ref bool) (*waveform.Set, int) {
		eng, err := New(edgeDriverDeck(4, 5e-9, 8e-12), Options{})
		if err != nil {
			t.Fatal(err)
		}
		eng.refMode = ref
		set, err := eng.Transient(spec)
		if err != nil {
			t.Fatalf("transient (ref=%v): %v", ref, err)
		}
		return set, eng.factors
	}
	ref, refFactors := run(true)
	opt, optFactors := run(false)
	diffSets(t, "factor-reuse", ref, opt)
	for _, w := range ref.Waves {
		g := opt.Get(w.Name)
		for i := range w.Values {
			if math.Float64bits(g.Values[i]) != math.Float64bits(w.Values[i]) {
				t.Fatalf("%s sample %d: fast %v, reference %v", w.Name, i, g.Values[i], w.Values[i])
			}
		}
	}
	if optFactors > maxFastFactors {
		t.Errorf("fast path factored %d times, want <= %d", optFactors, maxFastFactors)
	}
	if steps := ref.Waves[0].Len() - 1; refFactors < steps {
		t.Errorf("reference path factored %d times over %d accepted steps, want at least one per step",
			refFactors, steps)
	}
	t.Logf("factorizations: fast %d, reference %d", optFactors, refFactors)
}
