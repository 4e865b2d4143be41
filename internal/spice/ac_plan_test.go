package spice

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"ssnkit/internal/circuit"
	"ssnkit/internal/linalg"
	"ssnkit/internal/pkgmodel"
)

// planMesh builds an AC engine for a rows x cols PGA power mesh — the
// workload the symbolic backend exists for — and returns it with the
// observation node.
//
// The dense-agreement bands below (1e-10 on Z, 1e-9 on sensitivities)
// absorb the conditioning-amplified rounding of a different elimination
// order near high-Q resonances; see DESIGN.md §17.
func planMesh(t *testing.T, rows, cols int) (*ACEngine, int) {
	t.Helper()
	grid := pkgmodel.DefaultPDN(pkgmodel.PGA, rows, cols, 4)
	ckt, obs, err := grid.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewAC(ckt, ACOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return eng, obs
}

// TestACPlanMatchesDenseOnMesh: the symbolic fast path on a full PDN mesh
// must agree with the dense bit-reference across the sweep band — Z to
// 1e-10 relative and every adjoint sensitivity to 1e-9 of its scale. The
// ≤1-ULP-per-operation differences documented in DESIGN.md §17 (ordering
// changes the elimination sequence; ω·C is accumulated before widening)
// stay far inside these bands.
func TestACPlanMatchesDenseOnMesh(t *testing.T) {
	grid := pkgmodel.DefaultPDN(pkgmodel.PGA, 4, 4, 4)
	cktP, obsP, err := grid.Build()
	if err != nil {
		t.Fatal(err)
	}
	engP, err := NewAC(cktP, ACOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if engP.plan == nil {
		t.Fatal("auto backend did not pick the symbolic plan for the mesh")
	}
	cktD, obsD, err := grid.Build()
	if err != nil {
		t.Fatal(err)
	}
	engD, err := NewAC(cktD, ACOptions{Backend: ACDense})
	if err != nil {
		t.Fatal(err)
	}
	freqs, err := FreqGrid(1e6, 1e10, 25, true)
	if err != nil {
		t.Fatal(err)
	}
	var sensP, sensD []SensEntry
	for _, f := range freqs {
		w := 2 * math.Pi * f
		var zP, zD complex128
		zP, sensP, err = engP.ImpedanceSens(w, obsP, sensP[:0])
		if err != nil {
			t.Fatalf("f=%g symbolic: %v", f, err)
		}
		zD, sensD, err = engD.ImpedanceSens(w, obsD, sensD[:0])
		if err != nil {
			t.Fatalf("f=%g dense: %v", f, err)
		}
		if e := relErrC(zP, zD); e > 1e-10 {
			t.Errorf("f=%g: Z symbolic %v vs dense %v rel err %.3e", f, zP, zD, e)
		}
		if len(sensP) != len(sensD) {
			t.Fatalf("f=%g: sensitivity count %d vs %d", f, len(sensP), len(sensD))
		}
		scale := 0.0
		for i := range sensD {
			if a := math.Abs(sensD[i].DAbs); a > scale {
				scale = a
			}
		}
		for i := range sensD {
			if d := math.Abs(sensP[i].DAbs - sensD[i].DAbs); d > 1e-9*scale {
				t.Errorf("f=%g %s: symbolic %.6e vs dense %.6e (Δ %.3e, scale %.3e)",
					f, sensD[i].Name, sensP[i].DAbs, sensD[i].DAbs, d, scale)
			}
		}
	}
}

// TestACSweepReuseBitIdentical: sweeping a reused engine must reproduce a
// fresh engine per frequency bit for bit — the deterministic refactor
// contract the pdn sweep context relies on.
func TestACSweepReuseBitIdentical(t *testing.T) {
	reused, obs := planMesh(t, 4, 4)
	freqs, err := FreqGrid(1e6, 1e10, 16, true)
	if err != nil {
		t.Fatal(err)
	}
	var sensR, sensF []SensEntry
	for _, f := range freqs {
		w := 2 * math.Pi * f
		var zR, zF complex128
		zR, sensR, err = reused.ImpedanceSens(w, obs, sensR[:0])
		if err != nil {
			t.Fatal(err)
		}
		fresh, fobs := planMesh(t, 4, 4)
		zF, sensF, err = fresh.ImpedanceSens(w, fobs, sensF[:0])
		if err != nil {
			t.Fatal(err)
		}
		if zR != zF {
			t.Fatalf("f=%g: reused Z %v != fresh Z %v", f, zR, zF)
		}
		for i := range sensF {
			if sensR[i].DZ != sensF[i].DZ || sensR[i].DAbs != sensF[i].DAbs {
				t.Fatalf("f=%g %s: reused sens %v/%v != fresh %v/%v",
					f, sensF[i].Name, sensR[i].DZ, sensR[i].DAbs, sensF[i].DZ, sensF[i].DAbs)
			}
		}
	}
}

// TestACSweepZeroAlloc is the hot-loop guard from the issue: once warm,
// the per-frequency restamp+refactor+solve loop — with and without the
// adjoint pass — must not allocate at all.
func TestACSweepZeroAlloc(t *testing.T) {
	eng, obs := planMesh(t, 8, 8)
	if eng.plan == nil {
		t.Fatal("8x8 mesh did not select the symbolic plan")
	}
	freqs, err := FreqGrid(1e6, 1e10, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	sens := make([]SensEntry, 0, 4096)
	warm := func() {
		for _, f := range freqs {
			w := 2 * math.Pi * f
			if _, err := eng.Impedance(w, obs); err != nil {
				t.Error(err)
			}
		}
	}
	warm()
	if a := testing.AllocsPerRun(5, warm); a != 0 {
		t.Errorf("restamp+refactor sweep loop allocates %v per run, want 0", a)
	}
	warmSens := func() {
		for _, f := range freqs {
			w := 2 * math.Pi * f
			var err error
			_, sens, err = eng.ImpedanceSens(w, obs, sens[:0])
			if err != nil {
				t.Error(err)
			}
		}
	}
	warmSens()
	if a := testing.AllocsPerRun(5, warmSens); a != 0 {
		t.Errorf("adjoint sweep loop allocates %v per run, want 0", a)
	}
}

// TestACPlanVsrcFallback: a circuit with a voltage source has structurally
// zero branch diagonals, so auto selection must reject the symbolic plan,
// run on the pivoted path, and still match the dense reference; forcing
// ACSymbolic must fail loudly.
func TestACPlanVsrcFallback(t *testing.T) {
	old := sparseThreshold
	defer func() { sparseThreshold = old }()
	sparseThreshold = 1

	build := func() *circuit.Circuit {
		ckt := circuit.New("vsrc-fallback")
		ckt.AddV("v1", "s", "0", circuit.DC(0))
		prev := "s"
		for i := 0; i < 5; i++ {
			n := "n" + string(rune('0'+i))
			ckt.AddR("r"+string(rune('0'+i)), prev, n, 0.2+0.1*float64(i))
			ckt.AddC("c"+string(rune('0'+i)), n, "0", 1e-12*(1+float64(i)))
			prev = n
		}
		return ckt
	}
	ckt := build()
	if _, err := NewAC(ckt, ACOptions{Backend: ACSymbolic}); err == nil {
		t.Fatal("forced symbolic backend accepted a voltage-source pattern")
	}
	eng, err := NewAC(build(), ACOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, sparse := eng.legacy.(*linalg.SparseLU[complex128]); eng.plan != nil || !sparse {
		t.Fatal("auto selection did not fall back to the pivoted sparse path")
	}
	sparseThreshold = 1 << 30
	cktD := build()
	engD, err := NewAC(cktD, ACOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w := 2 * math.Pi * 3e8
	zS, err := eng.Impedance(w, eng.NodeIndex("n4"))
	if err != nil {
		t.Fatal(err)
	}
	zD, err := engD.Impedance(w, cktD.LookupNode("n4"))
	if err != nil {
		t.Fatal(err)
	}
	if e := relErrC(zS, zD); e > 1e-12 {
		t.Errorf("vsrc fallback: Z sparse %v vs dense %v rel err %.3e", zS, zD, e)
	}
}

// TestACFactorShuntRC: a snapshot keeps the engine's Z bits after the
// engine moves on, and its Sherman–Morrison shunt update matches a fresh
// engine on the netlist with the series R–C branch actually added, with
// and without Gmin. Dense engines take no snapshot.
func TestACFactorShuntRC(t *testing.T) {
	grid := pkgmodel.DefaultPDN(pkgmodel.PGA, 5, 5, 4)
	freqs, err := FreqGrid(1e6, 1e10, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	const r, c = 5e-3, 2e-9
	for _, gmin := range []float64{0, 1e-9} {
		ckt, obs, err := grid.Build()
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewAC(ckt, ACOptions{Gmin: gmin})
		if err != nil {
			t.Fatal(err)
		}
		node := ckt.LookupNode(grid.NodeName(12))
		mod, _, err := grid.Build()
		if err != nil {
			t.Fatal(err)
		}
		mod.AddR("rtrial", grid.NodeName(12), "mtrial", r)
		mod.AddC("ctrial", "mtrial", "0", c)
		fresh, err := NewAC(mod, ACOptions{Gmin: gmin})
		if err != nil {
			t.Fatal(err)
		}
		facs := make([]ACFactor, len(freqs))
		for i, f := range freqs {
			ok, err := eng.Snapshot(2*math.Pi*f, obs, &facs[i])
			if err != nil || !ok {
				t.Fatalf("gmin=%g f=%g: snapshot ok=%v err=%v", gmin, f, ok, err)
			}
		}
		for i, f := range freqs {
			w := 2 * math.Pi * f
			z, err := eng.Impedance(w, obs)
			if err != nil {
				t.Fatal(err)
			}
			if facs[i].Z() != z {
				t.Errorf("gmin=%g f=%g: snapshot Z %v != engine Z %v", gmin, f, facs[i].Z(), z)
			}
			got, err := facs[i].ShuntRC(node, r, c)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Impedance(w, obs)
			if err != nil {
				t.Fatal(err)
			}
			if e := relErrC(got, want); e > 1e-10 {
				t.Errorf("gmin=%g f=%g: shunt update %v vs fresh %v rel err %.3e", gmin, f, got, want, e)
			}
		}
		if _, err := facs[0].ShuntRC(0, r, c); err == nil {
			t.Error("ShuntRC accepted the ground node")
		}
		if _, err := facs[0].ShuntRC(node, r, 0); err == nil {
			t.Error("ShuntRC accepted a zero capacitance")
		}
	}
	ckt, obs, err := grid.Build()
	if err != nil {
		t.Fatal(err)
	}
	dense, err := NewAC(ckt, ACOptions{Backend: ACDense})
	if err != nil {
		t.Fatal(err)
	}
	var f ACFactor
	if ok, err := dense.Snapshot(2*math.Pi*1e8, obs, &f); ok || err != nil {
		t.Errorf("dense engine snapshot: ok=%v err=%v, want false, nil", ok, err)
	}
}

// TestACPlanSignedZeroLoad: at ω = 0 every inductor's −L·ω is −0. An RL
// ladder there still factors on the plan (each branch row follows a node
// row that fills its diagonal in), and the factors the plan loads and
// refactors carry the bits of clearing the storage to +0 and adding
// G + jωC slot by slot.
func TestACPlanSignedZeroLoad(t *testing.T) {
	ckt := circuit.New("rl-ladder")
	prev := "in"
	for i := 0; i < 6; i++ {
		next := "n" + string(rune('0'+i))
		ckt.AddR("rs"+string(rune('0'+i)), prev, "0", 50)
		ckt.AddL("l"+string(rune('0'+i)), prev, next, 1e-9*float64(i+1))
		prev = next
	}
	ckt.AddR("rend", prev, "0", 10)
	eng, err := NewAC(ckt, ACOptions{Backend: ACSymbolic})
	if err != nil {
		t.Fatal(err)
	}
	p := eng.plan
	negZeros := 0
	for _, c := range p.c {
		if x := 0 * c; x == 0 && math.Signbit(x) {
			negZeros++
		}
	}
	if negZeros == 0 {
		t.Fatal("no slot carries −0 at ω = 0; the test lost its subject")
	}
	ref := p.lu.Clone(nil)
	vals := ref.Values()
	clear(vals)
	for k := range vals {
		vals[k] += complex(p.g[k], 0*p.c[k])
	}
	if err := ref.Refactor(); err != nil {
		t.Fatalf("clear-then-add factor at ω = 0: %v", err)
	}
	z, err := eng.Impedance(0, ckt.LookupNode("in"))
	if err != nil {
		t.Fatal(err)
	}
	if eng.active != acViaPlan {
		t.Fatal("ω = 0 fell off the plan")
	}
	for k, v := range p.lu.Values() {
		w := ref.Values()[k]
		if math.Float64bits(real(v)) != math.Float64bits(real(w)) || math.Float64bits(imag(v)) != math.Float64bits(imag(w)) {
			t.Fatalf("factor slot %d: plan load %v, clear-then-add %v", k, v, w)
		}
	}
	// Every shunt is in parallel at DC: 50/6 ohm against 10 ohm.
	want := 1 / (6.0/50 + 1.0/10)
	if e := math.Abs(real(z)-want) / want; e > 1e-12 || imag(z) != 0 {
		t.Errorf("Z(0) = %v, want %g", z, want)
	}
}

// TestSortTripletsStable: the counting sort in stampOrder orders
// triplets by (row, column) exactly as a stable comparison sort does, so
// duplicates keep their stamp order.
func TestSortTripletsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(30)
		tr := make([]triplet, rng.Intn(8*n))
		for k := range tr {
			tr[k] = triplet{i: int32(rng.Intn(n)), j: int32(rng.Intn(n)), g: float64(k)}
		}
		want := slices.Clone(tr)
		slices.SortStableFunc(want, func(a, b triplet) int {
			if a.i != b.i {
				return cmp.Compare(a.i, b.i)
			}
			return cmp.Compare(a.j, b.j)
		})
		got := make([]triplet, len(tr))
		for t, k := range stampOrder(tr, n) {
			got[t] = tr[k]
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d): counting sort %v, stable sort %v", trial, n, got, want)
		}
	}
}

// TestACPlanMergesInStampOrder: three resistors on one node whose
// conductances round differently in different orders; the plan's
// diagonal holds the sum in stamp order, (1 + 1e-16) + 1e-16 = 1, not
// (1e-16 + 1e-16) + 1.
func TestACPlanMergesInStampOrder(t *testing.T) {
	ckt := circuit.New("order")
	ckt.AddR("r1", "a", "0", 1)
	ckt.AddR("r2", "a", "0", 1e16)
	ckt.AddR("r3", "a", "0", 1e16)
	ckt.AddC("c1", "a", "0", 1e-12)
	eng, err := NewAC(ckt, ACOptions{Backend: ACSymbolic})
	if err != nil {
		t.Fatal(err)
	}
	if g := eng.plan.g; len(g) != 1 || g[0] != 1 {
		t.Fatalf("plan diagonal %v, want exactly 1 (the sum in stamp order)", g)
	}
}

// TestACPivotedFootprint: the pivoted sparse backend loads its matrix
// from the stamp list into the merged pattern, never into an n×n array.
// On a 24x24 PGA mesh (n = 3,368) compiling must allocate under 1% of
// the 16·n² bytes a dense complex matrix takes, and compiling plus one
// factor and solve under 16·n² in total.
func TestACPivotedFootprint(t *testing.T) {
	ckt, obs, err := pkgmodel.DefaultPDN(pkgmodel.PGA, 24, 24, 4).Build()
	if err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	allocated := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	start := allocated()
	eng, err := NewAC(ckt, ACOptions{Backend: ACSparse})
	if err != nil {
		t.Fatal(err)
	}
	compiled := allocated()
	if _, err := eng.Impedance(2*math.Pi*1e8, obs); err != nil {
		t.Fatal(err)
	}
	solved := allocated()
	n := uint64(eng.NumUnknowns())
	if n != 3368 {
		t.Fatalf("24x24 PGA mesh has %d unknowns, want 3368", n)
	}
	dense := 16 * n * n
	if got := compiled - start; got >= dense/100 {
		t.Errorf("NewAC allocated %d B, want under 1%% of 16·n² = %d B", got, dense/100)
	}
	if got := solved - start; got >= dense {
		t.Errorf("NewAC plus one Impedance allocated %d B, want under 16·n² = %d B", got, dense)
	}
}
