package oracle

import (
	"context"
	"fmt"
	"math"
	"testing"

	"ssnkit/internal/circuit"
	"ssnkit/internal/device"
	"ssnkit/internal/spice"
	"ssnkit/internal/ssn"
)

// basePoint is a hand-picked mid-envelope design point used by the
// metamorphic tests: moderately under-damped, comfortably conducting.
func basePoint() DesignPoint {
	return DesignPoint{
		N: 4, L: 5e-9, C: 8e-12, K: 4e-3, V0: 0.6, A: 1.3,
		Slope: 2.5e9, Vdd: 2.5,
	}
}

func TestCampaign(t *testing.T) {
	rep, err := Run(context.Background(), Config{Points: 600, Seed: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	t.Logf("\n%s", rep)
	if !rep.OK() {
		t.Fatalf("campaign found disagreements:\n%s", rep)
	}
	if rep.Passed != 600 {
		t.Fatalf("passed %d of %d", rep.Passed, rep.Points)
	}
	// The regime steering must exercise every Table 1 closed form.
	for _, cse := range []ssn.Case{
		ssn.OverDamped, ssn.CriticallyDamped, ssn.UnderDampedPeak, ssn.UnderDampedBoundary,
	} {
		if rep.CaseCounts[cse.String()] == 0 {
			t.Errorf("campaign never hit case %q: %v", cse, rep.CaseCounts)
		}
	}
}

func TestCampaignDeterministicAcrossWorkerCounts(t *testing.T) {
	campaigns := map[string]func(workers int) (fmt.Stringer, error){
		"transient": func(workers int) (fmt.Stringer, error) {
			return Run(context.Background(), Config{Points: 40, Seed: 7, Workers: workers})
		},
		"ac": func(workers int) (fmt.Stringer, error) {
			return acCampaign.run(context.Background(), Config{Points: 40, Seed: 7, Workers: workers})
		},
	}
	for name, run := range campaigns {
		report := func(workers int) string {
			t.Helper()
			rep, err := run(workers)
			if err != nil {
				t.Fatalf("%s campaign at %d workers: %v", name, workers, err)
			}
			return rep.String()
		}
		serial := report(1)
		for _, workers := range []int{3, 8} {
			if got := report(workers); got != serial {
				t.Errorf("%s reports differ between 1 and %d workers:\n%s\n---\n%s", name, workers, serial, got)
			}
		}
	}
}

func TestCampaignCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Config{Points: 50, Seed: 1}); err == nil {
		t.Fatal("Run with canceled context returned nil error")
	}
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	for i := 0; i < 60; i++ {
		pt, ok := Generate(3, i)
		if !ok {
			t.Fatalf("Generate(3, %d) exhausted retries", i)
		}
		again, _ := Generate(3, i)
		if pt != again {
			t.Fatalf("Generate(3, %d) not deterministic: %v vs %v", i, pt, again)
		}
		if err := pt.Params().Validate(); err != nil {
			t.Fatalf("Generate(3, %d) produced invalid params: %v", i, err)
		}
		if _, err := TranSpec(pt); err != nil {
			t.Fatalf("Generate(3, %d) produced unsimulatable point: %v", i, err)
		}
	}
}

// TestMergedMatchesExplicit pins the symmetry argument behind the merged
// synthesis: N identical zero-skew drivers are electrically one device of
// N-fold width, so both netlists must produce the same bounce to solver
// precision.
func TestMergedMatchesExplicit(t *testing.T) {
	pt := basePoint()
	pt.N = 12
	tran, err := TranSpec(pt)
	if err != nil {
		t.Fatalf("TranSpec: %v", err)
	}
	sim := func(merged bool) float64 {
		t.Helper()
		ckt, err := Build(pt, merged)
		if err != nil {
			t.Fatalf("Build(merged=%v): %v", merged, err)
		}
		eng, err := spice.New(ckt, spice.Options{})
		if err != nil {
			t.Fatalf("spice.New: %v", err)
		}
		set, err := eng.Transient(tran)
		if err != nil {
			t.Fatalf("Transient(merged=%v): %v", merged, err)
		}
		_, vmax := set.Get("v(vssi)").Max()
		return vmax
	}
	explicit, merged := sim(false), sim(true)
	if rel := math.Abs(explicit-merged) / explicit; rel > 1e-9 {
		t.Fatalf("merged %.12g vs explicit %.12g differ by %.3g", merged, explicit, rel)
	}
}

// simVmax runs the differential simulation and returns the in-window
// bounce maximum, failing the test on infrastructure errors.
func simVmax(t *testing.T, pt DesignPoint) float64 {
	t.Helper()
	vmax, _, err := Simulate(pt, spice.Options{})
	if err != nil {
		t.Fatalf("Simulate(%s): %v", pt, err)
	}
	return vmax
}

// monotoneSlack absorbs integration noise in the monotonicity assertions:
// the sim is accurate to ~1e-5 relative, so a genuine ordering violation
// dwarfs it.
const monotoneSlack = 1e-4

func TestSimVmaxMonotoneInN(t *testing.T) {
	pt := basePoint()
	prev := 0.0
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		pt.N = n
		v := simVmax(t, pt)
		if v < prev*(1-monotoneSlack) {
			t.Fatalf("vmax decreased with N: N=%d gives %.6g after %.6g", n, v, prev)
		}
		prev = v
	}
}

func TestSimVmaxMonotoneInL(t *testing.T) {
	pt := basePoint()
	prev := 0.0
	for _, l := range []float64{1e-9, 2e-9, 4e-9, 8e-9, 16e-9} {
		pt.L = l
		v := simVmax(t, pt)
		if v < prev*(1-monotoneSlack) {
			t.Fatalf("vmax decreased with L: L=%.3g gives %.6g after %.6g", l, v, prev)
		}
		prev = v
	}
}

func TestSimVmaxMonotoneInSlope(t *testing.T) {
	// Slope monotonicity only holds in the damped regimes: under-damped
	// points measure V at the ramp end, and a faster edge shrinks that
	// window quicker than β grows, so Vmax can genuinely fall with s (the
	// closed form agrees — verified in DESIGN.md §11). Pin the invariant
	// where the paper states it, on a damped configuration.
	pt := basePoint()
	pt.C = 2e-13 // well below critical: over-damped at every slope below
	prev := 0.0
	for _, s := range []float64{1e9, 2e9, 4e9, 8e9} {
		pt.Slope = s
		v := simVmax(t, pt)
		if v < prev*(1-monotoneSlack) {
			t.Fatalf("vmax decreased with slope: s=%.3g gives %.6g after %.6g", s, v, prev)
		}
		prev = v
	}
}

// TestSimBetaBound pins the paper's envelope: the bounce never exceeds β
// for damped points nor the ringing bound β·(1+e^{−στp}) when under-damped.
func TestSimBetaBound(t *testing.T) {
	for i := 0; i < 40; i++ {
		pt, ok := Generate(11, i)
		if !ok {
			t.Fatalf("Generate(11, %d) exhausted retries", i)
		}
		m, err := ssn.NewLCModel(pt.Params())
		if err != nil {
			t.Fatalf("NewLCModel: %v", err)
		}
		bound := m.P.Beta()
		if w := m.Omega(); w > 0 {
			bound *= 1 + math.Exp(-m.Sigma()*math.Pi/w)
		}
		if v := simVmax(t, pt); v > bound*(1+monotoneSlack) {
			t.Fatalf("point %d: sim vmax %.6g exceeds bound %.6g (%s)", i, v, bound, pt)
		}
	}
}

// TestStaggeredAtMostSimultaneous checks the design rule the paper closes
// on at transistor level: spreading the switching instants can only lower
// the peak bounce.
func TestStaggeredAtMostSimultaneous(t *testing.T) {
	pt := basePoint()
	simultaneous := simVmax(t, pt)

	rise := pt.Rise()
	offsets := []float64{0, rise / 2, rise, 3 * rise / 2}
	stag := simStaggered(t, pt, offsets)
	if stag > simultaneous*(1+monotoneSlack) {
		t.Fatalf("staggered bounce %.6g exceeds simultaneous %.6g", stag, simultaneous)
	}
}

// simStaggered simulates pt's driver array with per-driver ramp offsets
// (the oracle netlist shares one gate; staggering needs one ramp each).
func simStaggered(t *testing.T, pt DesignPoint, offsets []float64) float64 {
	t.Helper()
	if len(offsets) != pt.N {
		t.Fatalf("need %d offsets, got %d", pt.N, len(offsets))
	}
	p := pt.Params()
	rise := pt.Rise()
	delay := rise / 10
	cload := 2 * pt.K * (pt.Vdd - pt.V0) * p.TauRise() / pt.Vdd

	ckt := circuit.New("staggered " + pt.String())
	maxOff := 0.0
	for i, off := range offsets {
		if off > maxOff {
			maxOff = off
		}
		g := fmt.Sprintf("g%d", i+1)
		out := fmt.Sprintf("out%d", i+1)
		ckt.AddV(fmt.Sprintf("vin%d", i+1), g, "0",
			circuit.Ramp{V0: 0, V1: pt.Vdd, Delay: delay + off, Rise: rise})
		dev := &device.ASDMDevice{ModelName: "asdm", M: device.ASDM{K: pt.K, V0: pt.V0, A: pt.A}}
		ckt.AddM(fmt.Sprintf("m%d", i+1), out, g, "vssi", "0", dev, circuit.NChannel)
		cl := ckt.AddC(fmt.Sprintf("cl%d", i+1), out, "0", cload)
		cl.IC = pt.Vdd
	}
	ckt.AddL("lgnd", "vssi", "0", pt.L)
	if pt.C > 0 {
		ckt.AddC("cnet", "vssi", "0", pt.C)
	}

	tran, err := TranSpec(pt)
	if err != nil {
		t.Fatalf("TranSpec: %v", err)
	}
	tran.Stop += maxOff // cover the last driver's full ramp
	eng, err := spice.New(ckt, spice.Options{})
	if err != nil {
		t.Fatalf("spice.New: %v", err)
	}
	set, err := eng.Transient(tran)
	if err != nil {
		t.Fatalf("Transient: %v", err)
	}
	_, vmax := set.Get("v(vssi)").Max()
	return vmax
}

func TestCheckReportsFailuresWithLooseAnalytic(t *testing.T) {
	// A point outside the validity envelope (device cuts off mid-window)
	// must still produce a well-formed Result; we only require it not to
	// be an infrastructure error.
	pt := basePoint()
	pt.A = 5 // ferocious feedback: conduction margin goes negative
	res := Check(pt, spice.Options{})
	if res.Err != nil {
		t.Fatalf("Check errored: %v", res.Err)
	}
	if res.Analytic <= 0 || res.Sim <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
}

func TestToleranceBands(t *testing.T) {
	if Tolerance(ssn.UnderDampedPeak) <= Tolerance(ssn.OverDamped) {
		t.Fatal("peak band should be looser than ramp-end band")
	}
}

func TestShrinkPreservesFailure(t *testing.T) {
	// Manufacture a genuine disagreement: a 1 mS Gmin on every node leaks
	// bounce current the closed forms know nothing of, pulling the
	// simulated peak about 1% under the analytic one.
	opts := spice.Options{Gmin: 1e-3}
	pt := basePoint()
	if res := Check(pt, opts); res.Err != nil || res.Pass {
		t.Fatalf("leaky check does not disagree: %s", res)
	}
	small := Shrink(pt, opts)
	sres := Check(small, opts)
	if sres.Err != nil {
		t.Fatalf("shrunk point errors: %v", sres.Err)
	}
	if sres.Pass {
		t.Fatalf("shrink lost the failure: %s -> %s", pt, small)
	}
	if small.N != 1 || small.A != 1 || small.C >= pt.C {
		t.Fatalf("shrink left %s from %s", small, pt)
	}
}

func TestDumpAndLoadRepro(t *testing.T) {
	dir := t.TempDir()
	pt := basePoint()
	if err := DumpRepro(dir, "case", pt, spice.Options{}); err != nil {
		t.Fatalf("DumpRepro: %v", err)
	}
	back, err := LoadRepro[DesignPoint](dir + "/case.json")
	if err != nil {
		t.Fatalf("LoadRepro: %v", err)
	}
	if back != pt {
		t.Fatalf("round trip changed the point: %v vs %v", back, pt)
	}
}
