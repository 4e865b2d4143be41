package spice

import (
	"fmt"
	"math"
	"math/cmplx"
	"slices"
	"testing"

	"ssnkit/internal/circuit"
	"ssnkit/internal/linalg"
	"ssnkit/internal/pkgmodel"
)

// relErrC is the relative complex error with a unit floor.
func relErrC(got, want complex128) float64 {
	scale := cmplx.Abs(want)
	if scale < 1e-30 {
		scale = 1e-30
	}
	return cmplx.Abs(got-want) / scale
}

func acFreqs() []float64 {
	fs, err := FreqGrid(1e3, 1e10, 61, true)
	if err != nil {
		panic(err)
	}
	return fs
}

// TestACSeriesRLC: Z = R + jωL + 1/(jωC) of a series branch to ground must
// match the analytic formula to 1e-10 across seven decades.
func TestACSeriesRLC(t *testing.T) {
	const (
		R = 0.5
		L = 2e-9
		C = 50e-12
	)
	ckt := circuit.New("series-rlc")
	ckt.AddR("r1", "in", "a", R)
	ckt.AddL("l1", "a", "b", L)
	ckt.AddC("c1", "b", "0", C)
	eng, err := NewAC(ckt, ACOptions{})
	if err != nil {
		t.Fatal(err)
	}
	obs := ckt.LookupNode("in")
	for _, f := range acFreqs() {
		w := 2 * math.Pi * f
		want := complex(R, 0) + complex(0, w*L) + 1/complex(0, w*C)
		got, err := eng.Impedance(w, obs)
		if err != nil {
			t.Fatalf("f=%g: %v", f, err)
		}
		if e := relErrC(got, want); e > 1e-10 {
			t.Errorf("f=%g: Z=%v want %v rel err %.3e > 1e-10", f, got, want, e)
		}
	}
}

// TestACParallelRLC: a parallel R‖L‖C tank must match
// 1/(1/R + 1/(jωL) + jωC) to 1e-10, and its resonance must sit at
// f0 = 1/(2π√(LC)) with |Z(f0)| == R (the tank looks purely resistive at
// resonance) and the half-power bandwidth implied by Q = R√(C/L).
func TestACParallelRLC(t *testing.T) {
	const (
		R = 200.0
		L = 5e-9
		C = 2e-12
	)
	ckt := circuit.New("parallel-rlc")
	ckt.AddR("r1", "in", "0", R)
	ckt.AddL("l1", "in", "0", L)
	ckt.AddC("c1", "in", "0", C)
	eng, err := NewAC(ckt, ACOptions{})
	if err != nil {
		t.Fatal(err)
	}
	obs := ckt.LookupNode("in")
	for _, f := range acFreqs() {
		w := 2 * math.Pi * f
		want := 1 / (complex(1/R, 0) + 1/complex(0, w*L) + complex(0, w*C))
		got, err := eng.Impedance(w, obs)
		if err != nil {
			t.Fatalf("f=%g: %v", f, err)
		}
		if e := relErrC(got, want); e > 1e-10 {
			t.Errorf("f=%g: Z=%v want %v rel err %.3e > 1e-10", f, got, want, e)
		}
	}
	// Resonance: exactly resistive, |Z| = R, and the peak of |Z|.
	w0 := 1 / math.Sqrt(L*C)
	z0, err := eng.Impedance(w0, obs)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErrC(z0, complex(R, 0)); e > 1e-10 {
		t.Errorf("Z(f0)=%v want %g (rel err %.3e)", z0, R, e)
	}
	// Half-power points: at w0·(1 ± 1/(2Q)) to first order, |Z| = R/√2.
	q := R * math.Sqrt(C/L)
	dw := w0 / q
	wLo := w0*math.Sqrt(1+1/(4*q*q)) - dw/2 // exact half-power frequencies
	wHi := w0*math.Sqrt(1+1/(4*q*q)) + dw/2
	for _, w := range []float64{wLo, wHi} {
		z, err := eng.Impedance(w, obs)
		if err != nil {
			t.Fatal(err)
		}
		if e := math.Abs(cmplx.Abs(z)-R/math.Sqrt2) / R; e > 1e-10 {
			t.Errorf("half-power |Z(%g)| = %g want %g (rel err %.3e)", w, cmplx.Abs(z), R/math.Sqrt2, e)
		}
	}
	// The resonance is a local max: neighbors a relative 1e-6 away are lower.
	for _, w := range []float64{w0 * (1 - 1e-6), w0 * (1 + 1e-6)} {
		z, err := eng.Impedance(w, obs)
		if err != nil {
			t.Fatal(err)
		}
		if cmplx.Abs(z) >= R {
			t.Errorf("|Z(%g)| = %g >= R: resonance is not a peak", w, cmplx.Abs(z))
		}
	}
}

// TestACLumpedPackage: the paper-style lumped package model — pin L and R
// in series from the pad, die capacitance C to ground — is the impedance
// the SSN flow cares about. Z = R + jωL in series with the rest... here we
// build exactly L‖C with series R and check the analytic form.
func TestACLumpedPackage(t *testing.T) {
	// PGA-class parasitics: 5 nH, 1 pF, 10 mΩ, n=8 drivers sharing the pin:
	// L/n, R/n, C·n (the pkgmodel Ground() scaling).
	const (
		n = 8.0
		L = 5e-9 / n
		C = 1e-12 * n
		R = 10e-3 / n
	)
	ckt := circuit.New("lumped-pkg")
	ckt.AddR("rpin", "die", "mid", R)
	ckt.AddL("lpin", "mid", "0", L)
	ckt.AddC("cdie", "die", "0", C)
	eng, err := NewAC(ckt, ACOptions{})
	if err != nil {
		t.Fatal(err)
	}
	obs := ckt.LookupNode("die")
	for _, f := range acFreqs() {
		w := 2 * math.Pi * f
		zrl := complex(R, 0) + complex(0, w*L)
		want := 1 / (1/zrl + complex(0, w*C))
		got, err := eng.Impedance(w, obs)
		if err != nil {
			t.Fatalf("f=%g: %v", f, err)
		}
		if e := relErrC(got, want); e > 1e-10 {
			t.Errorf("f=%g: Z=%v want %v rel err %.3e > 1e-10", f, got, want, e)
		}
	}
	// Peak location: for this low-loss tank the parallel resonance sits at
	// w0·√(1 - R²C/L) ≈ w0; assert the analytic peak against a fine scan.
	w0 := 1 / math.Sqrt(L*C)
	zPeak, err := eng.Impedance(w0, obs)
	if err != nil {
		t.Fatal(err)
	}
	// |Z(w0)| = L/(R·C)·1/√(1+(w0 L/R)⁻²)... with Q = w0L/R >> 1 the peak
	// magnitude approaches L/(RC). Assert within Q⁻² of that.
	q := w0 * L / R
	lrc := L / (R * C)
	if e := math.Abs(cmplx.Abs(zPeak)-lrc) / lrc; e > 2/(q*q) {
		t.Errorf("|Z(w0)| = %g want ~%g within %.1e, err %.3e", cmplx.Abs(zPeak), lrc, 2/(q*q), e)
	}
}

// TestACLadder: a 4-section RLC ladder (transmission-line prototype) has a
// continued-fraction closed form; the MNA result must match to 1e-10.
func TestACLadder(t *testing.T) {
	const (
		Rs = 0.05  // series resistance per section
		Ls = 1e-9  // series inductance per section
		Cp = 2e-12 // shunt capacitance per section
		N  = 4
	)
	ckt := circuit.New("ladder")
	prev := "in"
	for i := 0; i < N; i++ {
		mid := "m" + string(rune('0'+i))
		next := "n" + string(rune('0'+i))
		ckt.AddR("r"+string(rune('0'+i)), prev, mid, Rs)
		ckt.AddL("l"+string(rune('0'+i)), mid, next, Ls)
		ckt.AddC("c"+string(rune('0'+i)), next, "0", Cp)
		prev = next
	}
	eng, err := NewAC(ckt, ACOptions{})
	if err != nil {
		t.Fatal(err)
	}
	obs := ckt.LookupNode("in")
	for _, f := range acFreqs() {
		w := 2 * math.Pi * f
		// Continued fraction from the far end back to the port.
		var z complex128 = cmplx.Inf() // open end
		for i := 0; i < N; i++ {
			zc := 1 / complex(0, w*Cp)
			if cmplx.IsInf(z) {
				z = zc
			} else {
				z = z * zc / (z + zc)
			}
			z += complex(Rs, 0) + complex(0, w*Ls)
		}
		got, err := eng.Impedance(w, obs)
		if err != nil {
			t.Fatalf("f=%g: %v", f, err)
		}
		// |Z| to 1e-10; the full complex value only to 1e-8 — at the low-
		// frequency end the milliohm real part rides on tens of megohms of
		// capacitive reactance, so both the MNA solve and the continued-
		// fraction reference lose it to cancellation at the same rate.
		if e := math.Abs(cmplx.Abs(got)-cmplx.Abs(z)) / cmplx.Abs(z); e > 1e-10 {
			t.Errorf("f=%g: |Z|=%g want %g rel err %.3e > 1e-10", f, cmplx.Abs(got), cmplx.Abs(z), e)
		}
		if e := relErrC(got, z); e > 1e-8 {
			t.Errorf("f=%g: Z=%v want %v rel err %.3e > 1e-8", f, got, z, e)
		}
	}
}

// TestACMutualCoupling: two coupled inductors in series-aiding connection
// have effective inductance L1 + L2 + 2M.
func TestACMutualCoupling(t *testing.T) {
	const (
		L1 = 3e-9
		L2 = 5e-9
		K  = 0.4
	)
	m := K * math.Sqrt(L1*L2)
	ckt := circuit.New("coupled")
	// Series aiding: current enters both dotted (N1) terminals.
	ckt.AddL("la", "in", "mid", L1)
	ckt.AddL("lb", "mid", "0", L2)
	ckt.AddMutual("k1", "la", "lb", K)
	ckt.AddR("rload", "in", "0", 1e6) // keeps the DC-ish low end well-posed
	eng, err := NewAC(ckt, ACOptions{})
	if err != nil {
		t.Fatal(err)
	}
	obs := ckt.LookupNode("in")
	leff := L1 + L2 + 2*m
	for _, f := range []float64{1e6, 1e8, 1e9} {
		w := 2 * math.Pi * f
		zl := complex(0, w*leff)
		want := zl * complex(1e6, 0) / (zl + complex(1e6, 0))
		got, err := eng.Impedance(w, obs)
		if err != nil {
			t.Fatalf("f=%g: %v", f, err)
		}
		if e := relErrC(got, want); e > 1e-10 {
			t.Errorf("f=%g: Z=%v want %v rel err %.3e", f, got, want, e)
		}
	}
}

// TestACVSourceShort: an AC voltage source must behave as a short — a
// series R to a V-source looks like plain R from the node.
func TestACVSourceShort(t *testing.T) {
	ckt := circuit.New("vsrc-short")
	ckt.AddR("r1", "in", "vdd", 3.5)
	ckt.AddV("vdd", "vdd", "0", circuit.DC(1.8))
	eng, err := NewAC(ckt, ACOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Impedance(2*math.Pi*1e6, ckt.LookupNode("in"))
	if err != nil {
		t.Fatal(err)
	}
	if e := relErrC(got, 3.5); e > 1e-12 {
		t.Errorf("Z=%v want 3.5 (rel err %.3e)", got, e)
	}
}

// TestACMatrixSymmetry: the assembled AC MNA matrix must be complex-
// symmetric (A^T == A), the property that makes the adjoint solve equal a
// plain solve and that ShuntRC and SymInvDiag rely on. Checked directly on
// the merged stamp list — the same g and c bits at (i,j) and (j,i) — for
// the deck below and every catalog package's 4x4 and 8x8 mesh, and
// indirectly on the deck: SolveT and Solve must agree on the same
// right-hand side.
func TestACMatrixSymmetry(t *testing.T) {
	ckt := circuit.New("sym")
	ckt.AddR("r1", "a", "b", 2)
	ckt.AddL("l1", "b", "c", 1e-9)
	ckt.AddL("l2", "c", "0", 2e-9)
	ckt.AddMutual("k", "l1", "l2", 0.3)
	ckt.AddC("c1", "a", "0", 1e-12)
	ckt.AddC("c2", "c", "a", 3e-12)
	ckt.AddV("v1", "b", "0", circuit.DC(0))
	eng, err := NewAC(ckt, ACOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkStampSymmetry(t, "deck", eng)
	for _, pkg := range pkgmodel.Catalog() {
		for _, rc := range []int{4, 8} {
			mesh, _, err := pkgmodel.DefaultPDN(pkg, rc, rc, 4).Build()
			if err != nil {
				t.Fatal(err)
			}
			meshEng, err := NewAC(mesh, ACOptions{Gmin: 1e-9})
			if err != nil {
				t.Fatal(err)
			}
			checkStampSymmetry(t, fmt.Sprintf("%s %dx%d", pkg.Name, rc, rc), meshEng)
		}
	}
	obs := ckt.LookupNode("a")
	w := 2 * math.Pi * 5e8
	z, sens, err := eng.ImpedanceSens(w, obs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sens) != 5 { // r1, l1, l2, c1, c2 — nothing for v1
		t.Fatalf("got %d sensitivity entries, want 5", len(sens))
	}
	// λ must equal x for self-impedance on a symmetric system.
	for i := range eng.x {
		if d := cmplx.Abs(eng.lam[i] - eng.x[i]); d > 1e-12*(1+cmplx.Abs(eng.x[i])) {
			t.Errorf("adjoint[%d] = %v differs from forward %v: matrix not symmetric?", i, eng.lam[i], eng.x[i])
		}
	}
	_ = z
}

// checkStampSymmetry fails t unless every entry of eng's merged stamp
// list has a transpose entry with the same g and c bits.
func checkStampSymmetry(t *testing.T, name string, eng *ACEngine) {
	t.Helper()
	tr := eng.stamps()
	rowPtr, colIdx, slot := mergeStamps(tr, eng.n)
	g, c := make([]float64, len(colIdx)), make([]float64, len(colIdx))
	for k, x := range tr {
		g[slot[k]] += x.g
		c[slot[k]] += x.c
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := 0; i < eng.n; i++ {
		for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
			j := colIdx[p]
			q, ok := slices.BinarySearch(colIdx[rowPtr[j]:rowPtr[j+1]], i)
			if !ok {
				t.Fatalf("%s: entry (%d,%d) has no transpose entry", name, i, j)
			}
			q += rowPtr[j]
			if !same(g[p], g[q]) || !same(c[p], c[q]) {
				t.Fatalf("%s: (%d,%d) = %g%+gω, (%d,%d) = %g%+gω", name, i, j, g[p], c[p], j, i, g[q], c[q])
			}
		}
	}
}

// TestACAdjointVsFDSpot: spot-check adjoint d|Z|/dp against central finite
// differences on a small mixed circuit (the full campaign lives in
// internal/oracle).
func TestACAdjointVsFDSpot(t *testing.T) {
	build := func(r1, l1, c1 float64) *circuit.Circuit {
		ckt := circuit.New("spot")
		ckt.AddR("r1", "in", "mid", r1)
		ckt.AddL("l1", "mid", "0", l1)
		ckt.AddC("c1", "in", "0", c1)
		ckt.AddR("r2", "in", "0", 50)
		return ckt
	}
	const (
		r1 = 0.8
		l1 = 4e-9
		c1 = 3e-12
	)
	absZ := func(r, l, c, w float64) float64 {
		ckt := build(r, l, c)
		eng, err := NewAC(ckt, ACOptions{})
		if err != nil {
			t.Fatal(err)
		}
		z, err := eng.Impedance(w, ckt.LookupNode("in"))
		if err != nil {
			t.Fatal(err)
		}
		return cmplx.Abs(z)
	}
	for _, f := range []float64{1e6, 1e8, 1.3e9, 8e9} {
		w := 2 * math.Pi * f
		ckt := build(r1, l1, c1)
		eng, err := NewAC(ckt, ACOptions{})
		if err != nil {
			t.Fatal(err)
		}
		_, sens, err := eng.ImpedanceSens(w, ckt.LookupNode("in"), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sens {
			if s.Name == "r2" {
				continue
			}
			h := 1e-4 * s.Value
			var fd float64
			switch s.Name {
			case "r1":
				fd = (absZ(r1+h, l1, c1, w) - absZ(r1-h, l1, c1, w)) / (2 * h)
			case "l1":
				fd = (absZ(r1, l1+h, c1, w) - absZ(r1, l1-h, c1, w)) / (2 * h)
			case "c1":
				fd = (absZ(r1, l1, c1+h, w) - absZ(r1, l1, c1-h, w)) / (2 * h)
			}
			scale := math.Max(math.Abs(fd), math.Abs(s.DAbs))
			if scale < 1e-12 {
				continue
			}
			if e := math.Abs(s.DAbs-fd) / scale; e > 1e-5 {
				t.Errorf("f=%g %s: adjoint %.6e vs FD %.6e rel err %.3e", f, s.Name, s.DAbs, fd, e)
			}
		}
	}
}

// TestACSparseMatchesDense: forcing the pivoted sparse and the symbolic
// backends must reproduce the dense results to 1e-12 (Solve and adjoint
// both), and the auto selection must pick the symbolic plan above the
// threshold and dense below it.
func TestACSparseMatchesDense(t *testing.T) {
	old := sparseThreshold
	defer func() { sparseThreshold = old }()

	build := func() *circuit.Circuit {
		ckt := circuit.New("backend")
		prev := "in"
		for i := 0; i < 6; i++ {
			n := "n" + string(rune('0'+i))
			ckt.AddR("r"+string(rune('0'+i)), prev, n, 0.1+0.05*float64(i))
			ckt.AddL("l"+string(rune('0'+i)), n, "0", 1e-9*(1+float64(i)))
			ckt.AddC("c"+string(rune('0'+i)), n, "0", 1e-12*(1+float64(i)))
			prev = n
		}
		return ckt
	}
	w := 2 * math.Pi * 7e8

	sparseThreshold = 1 << 30 // force dense
	cktD := build()
	engD, err := NewAC(cktD, ACOptions{})
	if err != nil {
		t.Fatal(err)
	}
	zD, sensD, err := engD.ImpedanceSens(w, cktD.LookupNode("in"), nil)
	if err != nil {
		t.Fatal(err)
	}

	if _, dense := engD.legacy.(*linalg.DenseLU[complex128]); !dense || engD.plan != nil {
		t.Fatal("dense selection did not respect threshold override")
	}

	compare := func(label string, opts ACOptions, wantPlan bool) {
		t.Helper()
		ckt := build()
		eng, err := NewAC(ckt, opts)
		if err != nil {
			t.Fatal(err)
		}
		if (eng.plan != nil) != wantPlan {
			t.Fatalf("%s: plan presence %v, want %v", label, eng.plan != nil, wantPlan)
		}
		z, sens, err := eng.ImpedanceSens(w, ckt.LookupNode("in"), nil)
		if err != nil {
			t.Fatal(err)
		}
		if e := relErrC(z, zD); e > 1e-12 {
			t.Errorf("%s: Z dense %v vs %v rel err %.3e > 1e-12", label, zD, z, e)
		}
		if len(sensD) != len(sens) {
			t.Fatalf("%s: sensitivity count %d vs %d", label, len(sensD), len(sens))
		}
		for i := range sensD {
			scale := math.Max(math.Abs(sensD[i].DAbs), 1e-30)
			if e := math.Abs(sensD[i].DAbs-sens[i].DAbs) / scale; e > 1e-11 {
				t.Errorf("%s %s: dense %.6e vs %.6e rel err %.3e", label, sensD[i].Name, sensD[i].DAbs, sens[i].DAbs, e)
			}
		}
	}
	sparseThreshold = 1 // auto now prefers the symbolic plan
	compare("auto/symbolic", ACOptions{}, true)
	compare("forced sparse", ACOptions{Backend: ACSparse}, false)
	compare("forced symbolic", ACOptions{Backend: ACSymbolic}, true)
	sparseThreshold = old
	compare("forced dense large", ACOptions{Backend: ACDense}, false)
}

// TestACErrors: unsupported elements, bad nodes, bad frequencies.
func TestACErrors(t *testing.T) {
	ckt := circuit.New("unsupported")
	ckt.AddR("r1", "a", "0", 1)
	ckt.AddT("t1", "a", "0", "b", "0", 50, 1e-9)
	if _, err := NewAC(ckt, ACOptions{}); err == nil {
		t.Error("NewAC accepted a transmission line")
	}

	ok := circuit.New("ok")
	ok.AddR("r1", "a", "0", 1)
	eng, err := NewAC(ok, ACOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Impedance(1e6, 0); err == nil {
		t.Error("Impedance accepted ground as observation node")
	}
	if _, err := eng.Impedance(1e6, 99); err == nil {
		t.Error("Impedance accepted out-of-range node")
	}
	if _, err := eng.Impedance(math.NaN(), 1); err == nil {
		t.Error("Impedance accepted NaN frequency")
	}
	if _, err := eng.Impedance(-1, 1); err == nil {
		t.Error("Impedance accepted negative frequency")
	}
	if _, err := eng.CapSens(1, 0); err == nil {
		t.Error("CapSens without ImpedanceSens should error")
	}

	neg := circuit.New("neg")
	neg.AddR("r1", "a", "0", -1)
	if _, err := NewAC(neg, ACOptions{}); err == nil {
		t.Error("NewAC accepted negative resistance")
	}
	if _, err := NewAC(ok, ACOptions{Gmin: -1}); err == nil {
		t.Error("NewAC accepted negative Gmin")
	}

	// A floating node makes the matrix singular without Gmin...
	fl := circuit.New("floating")
	fl.AddC("c1", "a", "b", 1e-12) // a-b island floats relative to ground
	fl.AddR("r1", "c", "0", 1)
	if _, err := NewAC(fl, ACOptions{}); err != nil {
		t.Fatal(err)
	}
	engF, _ := NewAC(fl, ACOptions{})
	if _, err := engF.Impedance(2*math.Pi*1e6, fl.LookupNode("a")); err == nil {
		t.Error("floating island should be singular without Gmin")
	}
	// ...and Gmin rescues it.
	engG, _ := NewAC(fl, ACOptions{Gmin: 1e-9})
	if _, err := engG.Impedance(2*math.Pi*1e6, fl.LookupNode("a")); err != nil {
		t.Errorf("Gmin-shunted floating island should solve: %v", err)
	}
}

// TestACFactorizationReuse: repeated queries at one frequency must not
// restamp (observable through the cached-omega fast path returning
// identical results), and changing frequency must invalidate.
func TestACFactorizationReuse(t *testing.T) {
	ckt := circuit.New("reuse")
	ckt.AddR("r1", "in", "0", 7)
	ckt.AddC("c1", "in", "0", 1e-12)
	eng, err := NewAC(ckt, ACOptions{})
	if err != nil {
		t.Fatal(err)
	}
	obs := ckt.LookupNode("in")
	w1 := 2 * math.Pi * 1e6
	z1, err := eng.Impedance(w1, obs)
	if err != nil {
		t.Fatal(err)
	}
	z1b, err := eng.Impedance(w1, obs)
	if err != nil {
		t.Fatal(err)
	}
	if z1 != z1b {
		t.Errorf("same-frequency re-query differs: %v vs %v", z1, z1b)
	}
	w2 := 2 * math.Pi * 1e9
	z2, err := eng.Impedance(w2, obs)
	if err != nil {
		t.Fatal(err)
	}
	if z2 == z1 {
		t.Error("frequency change did not invalidate the factorization")
	}
}

// TestACSolveEntryBits: on the catalog packages' meshes the plan's
// single-entry solve returns the bits of a full solve's diagonal entry at
// every unknown (at one frequency per mesh, cycling through the band),
// and Impedance (single entry) and ImpedanceSens (full solve) return the
// same z bits at every frequency.
func TestACSolveEntryBits(t *testing.T) {
	freqs, err := FreqGrid(1e6, 1e10, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b complex128) bool {
		return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
			math.Float64bits(imag(a)) == math.Float64bits(imag(b))
	}
	cfg := 0
	for _, pkg := range pkgmodel.Catalog() {
		for _, rc := range []int{4, 8, 12} {
			ckt, obs, err := pkgmodel.DefaultPDN(pkg, rc, rc, 4).Build()
			if err != nil {
				t.Fatal(err)
			}
			for _, gmin := range []float64{0, 1e-9} {
				eng, err := NewAC(ckt, ACOptions{Gmin: gmin, Backend: ACSymbolic})
				if err != nil {
					t.Fatal(err)
				}
				lu := eng.plan.lu
				e := make([]complex128, lu.N())
				x := make([]complex128, lu.N())
				var sens []SensEntry
				full := cfg % len(freqs)
				cfg++
				for k, f := range freqs {
					w := 2 * math.Pi * f
					z, err := eng.Impedance(w, obs)
					if err != nil {
						t.Fatal(err)
					}
					var zs complex128
					if zs, sens, err = eng.ImpedanceSens(w, obs, sens); err != nil {
						t.Fatal(err)
					}
					if !same(z, zs) {
						t.Fatalf("%s %dx%d gmin=%g f=%g: Impedance %v, ImpedanceSens %v", pkg.Name, rc, rc, gmin, f, z, zs)
					}
					if k != full {
						continue
					}
					for i := range e {
						e[i] = 1
						if err := lu.Solve(e, x); err != nil {
							t.Fatal(err)
						}
						e[i] = 0
						got, err := lu.SolveEntry(i)
						if err != nil {
							t.Fatal(err)
						}
						if !same(got, x[i]) {
							t.Fatalf("%s %dx%d gmin=%g f=%g: SolveEntry(%d) %v, Solve(e_i)[i] %v",
								pkg.Name, rc, rc, gmin, f, i, got, x[i])
						}
					}
				}
			}
		}
	}
}
