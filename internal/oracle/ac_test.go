package oracle

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// seriesRLCPoint is a hand-written series RLC at a frequency below
// resonance, where every analytic derivative of |Z| is known in closed
// form — the independent anchor for both sides of the differential check.
func seriesRLCPoint() ACPoint {
	return ACPoint{
		Nodes: 3, Obs: 1, Freq: 50e6,
		Elems: []ACElem{
			{Kind: "R", N1: 1, N2: 2, Value: 2.0},
			{Kind: "L", N1: 2, N2: 3, Value: 5e-9},
			{Kind: "C", N1: 3, N2: 0, Value: 20e-12},
		},
	}
}

// TestACOracleAnalyticAnchor pins both the adjoint and the FD reference
// against hand closed forms for the series RLC: |Z| = sqrt(R² + X²) with
// X = ωL − 1/(ωC), so d|Z|/dR = R/|Z|, d|Z|/dL = ωX/|Z|,
// d|Z|/dC = X/(ωC²|Z|).
func TestACOracleAnalyticAnchor(t *testing.T) {
	pt := seriesRLCPoint()
	res := CheckAC(pt)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Pass {
		t.Fatalf("series RLC disagrees: %s", res)
	}
	w := 2 * math.Pi * pt.Freq
	R, L, C := pt.Elems[0].Value, pt.Elems[1].Value, pt.Elems[2].Value
	X := w*L - 1/(w*C)
	absZ := math.Hypot(R, X)
	want := []float64{R / absZ, w * X / absZ, X / (w * C * C * absZ)}
	if math.Abs(res.AbsZ-absZ) > 1e-12*absZ {
		t.Errorf("|Z| = %g, want %g", res.AbsZ, absZ)
	}
	for i, s := range res.Sens {
		// The adjoint must hit the closed form to solver precision; the FD
		// must hit it within its truncation budget.
		if rel := math.Abs(s.Adjoint-want[i]) / math.Abs(want[i]); rel > 1e-10 {
			t.Errorf("%s adjoint %g vs analytic %g (rel %g)", s.Name, s.Adjoint, want[i], rel)
		}
		if rel := math.Abs(s.FD-want[i]) / math.Abs(want[i]); rel > 1e-8 {
			t.Errorf("%s FD %g vs analytic %g (rel %g)", s.Name, s.FD, want[i], rel)
		}
	}
}

// TestGenerateACDeterministic: the same (seed, index) must reproduce the
// same point bit for bit, and distinct indices must differ.
func TestGenerateACDeterministic(t *testing.T) {
	a, ok1 := GenerateAC(42, 7)
	b, ok2 := GenerateAC(42, 7)
	if !ok1 || !ok2 {
		t.Fatal("generator exhausted retries")
	}
	if a.String() != b.String() || a.Freq != b.Freq || len(a.Elems) != len(b.Elems) {
		t.Fatalf("non-deterministic generation: %v vs %v", a, b)
	}
	for i := range a.Elems {
		if a.Elems[i] != b.Elems[i] {
			t.Fatalf("element %d differs: %v vs %v", i, a.Elems[i], b.Elems[i])
		}
	}
	c, ok := GenerateAC(42, 8)
	if !ok {
		t.Fatal("generator exhausted retries")
	}
	same := a.Freq == c.Freq && len(a.Elems) == len(c.Elems)
	if same {
		for i := range a.Elems {
			if a.Elems[i] != c.Elems[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("indices 7 and 8 generated identical points")
	}
}

// TestACCampaign is the tier-1 sweep: a seeded campaign across randomized
// RLC grids must find zero adjoint-vs-FD disagreements, its report bytes
// are pinned by testdata/ac-campaign-seed1.golden, and its worst relative
// error must sit well inside the band (headroom check). Regenerate the
// golden on purpose only, from the report this test prints on a mismatch.
func TestACCampaign(t *testing.T) {
	rep, err := acCampaign.run(context.Background(), Config{Points: 120, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("campaign found disagreements:\n%s", rep)
	}
	want, err := os.ReadFile("testdata/ac-campaign-seed1.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.String() + "\n"; got != string(want) {
		t.Errorf("report differs from the golden:\n%s\nwant:\n%s", got, want)
	}
	if worst := rep.WorstRel[""]; worst > acTol/2 {
		t.Errorf("worst rel err %.3g has <2x headroom against the %.0e band", worst, acTol)
	}
}

// TestACShrinkAndRepro: shrinking keeps only failure-preserving
// transformations, and repro dumps round-trip through JSON.
func TestACShrinkAndRepro(t *testing.T) {
	pt := seriesRLCPoint()
	// A passing point must come back unchanged from the shrinker.
	if got := acCampaign.shrink(pt); len(got.Elems) != len(pt.Elems) {
		t.Errorf("Shrink altered a passing point: %v", got)
	}
	dir := t.TempDir()
	if err := acCampaign.dump(dir, "anchor", pt); err != nil {
		t.Fatal(err)
	}
	back, err := LoadRepro[ACPoint](filepath.Join(dir, "anchor.json"))
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != pt.String() || back.Freq != pt.Freq {
		t.Errorf("repro round-trip mismatch: %v vs %v", back, pt)
	}
	res := CheckAC(back)
	if res.Err != nil || !res.Pass {
		t.Errorf("replayed repro does not pass: %s", res)
	}
}

// TestACPointErrors: malformed points must error, not panic or mis-report.
func TestACPointErrors(t *testing.T) {
	bad := []ACPoint{
		{Nodes: 0, Obs: 1, Freq: 1e6},
		{Nodes: 2, Obs: 3, Freq: 1e6, Elems: []ACElem{{Kind: "R", N1: 1, N2: 2, Value: 1}}},
		{Nodes: 2, Obs: 1, Freq: 1e6, Elems: []ACElem{{Kind: "X", N1: 1, N2: 2, Value: 1}}},
		{Nodes: 2, Obs: 1, Freq: 1e6, Elems: []ACElem{{Kind: "R", N1: 1, N2: 9, Value: 1}}},
	}
	for i, pt := range bad {
		if res := CheckAC(pt); res.Err == nil {
			t.Errorf("case %d: malformed point produced no error", i)
		}
	}
}

// FuzzACAdjointVsFD is the AC differential fuzz target: any (seed, index)
// the fuzzer invents becomes a valid screened RLC grid whose adjoint
// sensitivities must match the FD reference inside the band. Wired into
// the nightly fuzz job next to FuzzMaxSSNvsSpice.
func FuzzACAdjointVsFD(f *testing.F) {
	f.Add(int64(1), uint16(0))
	f.Add(int64(42), uint16(7))
	f.Add(int64(-3), uint16(999))
	f.Fuzz(func(t *testing.T, seed int64, idx uint16) {
		pt, ok := GenerateAC(seed, int(idx))
		if !ok {
			t.Skip("generator exhausted retries")
		}
		res := CheckAC(pt)
		if res.Err != nil {
			t.Fatalf("infrastructure error for %s: %v", pt, res.Err)
		}
		if !res.Pass {
			t.Errorf("adjoint vs FD disagreement: %s", res)
		}
	})
}
