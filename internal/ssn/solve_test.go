package ssn

import (
	"math"
	"math/rand"
	"testing"
)

// solveCasePoints returns named parameter points spanning all four Table 1
// cases (plus the C = 0 L-only limit), each verified to classify as
// labelled.
func solveCasePoints(t *testing.T) map[string]Params {
	t.Helper()
	base := refParams() // C = 0: over-damped L-only limit
	cc := base.CriticalCapacitance()

	over := base
	over.C = 0.2 * cc

	crit := withDisc(base, 0)

	peak := base
	peak.C = 50 * cc
	peak.Slope = base.Slope / 20 // slow edge: first ring fits the window

	bnd := base
	bnd.C = 50 * cc
	bnd.Slope = base.Slope * 20 // fast edge: ramp ends first

	pts := map[string]Params{
		"l-only": base, "over": over, "crit": crit, "under-peak": peak, "under-boundary": bnd,
	}
	want := map[string]Case{
		"l-only": OverDamped, "over": OverDamped, "crit": CriticallyDamped,
		"under-peak": UnderDampedPeak, "under-boundary": UnderDampedBoundary,
	}
	for name, p := range pts {
		_, cse, err := MaxSSN(p)
		if err != nil {
			t.Fatalf("%s: MaxSSN: %v", name, err)
		}
		if cse != want[name] {
			t.Fatalf("%s classified %v, want %v", name, cse, want[name])
		}
	}
	return pts
}

// vmaxAt evaluates the free variable the way the solver does: Apply + the
// scalar closed form.
func vmaxAt(t *testing.T, p Params, v SolveVar, x float64) float64 {
	t.Helper()
	vm, _, err := MaxSSN(v.Apply(p, x))
	if err != nil {
		t.Fatalf("MaxSSN(%s = %g): %v", v, x, err)
	}
	return vm
}

// nominalOf returns the base point's value of the free variable.
func nominalOf(p Params, v SolveVar) float64 {
	switch v {
	case SolveN:
		return float64(p.N)
	case SolveL:
		return p.L
	case SolveC:
		return p.C
	case SolveSlope:
		return p.Slope
	default:
		return p.Vdd / p.Slope
	}
}

var solveVars = []SolveVar{SolveN, SolveL, SolveC, SolveSlope, SolveRiseTime}

// TestSolveRoundTripProperty is the PR's core invariant: for every
// solvable variable, feeding Solve's output back through VMax lands within
// [budget-1e-9, budget]. Budgets are drawn as achieved maxima at random
// values of the free variable, so every monotone query is solvable by
// construction.
func TestSolveRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ranges := map[SolveVar][2]float64{
		SolveN:        {0.1, 1e6},
		SolveL:        {1e-12, 1e-7},
		SolveC:        {1e-14, 1e-7},
		SolveSlope:    {1e6, 1e12},
		SolveRiseTime: {1e-12, 1e-6},
	}
	logUniform := func(lo, hi float64) float64 {
		return lo * math.Exp(rng.Float64()*math.Log(hi/lo))
	}
	solved := map[SolveVar]int{}
	attempted := map[SolveVar]int{}
	for trial := 0; trial < 400; trial++ {
		p := refParams()
		p.N = 1 + rng.Intn(64)
		p.Dev.K *= 0.5 + rng.Float64()
		p.Dev.A *= 0.5 + rng.Float64()
		p.L *= logUniform(0.1, 10)
		p.Slope *= logUniform(0.1, 10)
		// Spread C across the damping regimes, including the critical band.
		switch trial % 5 {
		case 0:
			p.C = 0
		case 1:
			p.C = 0.3 * p.CriticalCapacitance()
		case 2:
			p = withDisc(p, 0) // bit-centered in the critical band
		case 3:
			p.C = 8 * p.CriticalCapacitance()
		default:
			p.C = 200 * p.CriticalCapacitance()
		}
		v := solveVars[trial%len(solveVars)]
		r := ranges[v]
		xStar := logUniform(r[0], r[1])
		budget, _, err := MaxSSN(v.Apply(p, xStar))
		if err != nil || !(budget > 0) {
			continue
		}
		attempted[v]++
		sol, err := Solve(p, v, budget)
		if err != nil {
			// Vmax is non-monotone in c (and, through the under-damped
			// boundary case, in the edge rate and even l), so a budget near
			// an interior hump's supremum can have a crossing window too
			// narrow for the scan. Those misses are tolerated individually;
			// the success-rate floors below keep the solver honest.
			if _, ok := err.(*SolveError); !ok {
				t.Fatalf("trial %d: Solve(%s, budget=%g): %v", trial, v, budget, err)
			}
			continue
		}
		solved[v]++
		if sol.VMax < budget-1e-9 || sol.VMax > budget {
			t.Fatalf("trial %d: %s=%g gives vmax %.17g outside [budget-1e-9, budget], budget %.17g",
				trial, v, sol.Value, sol.VMax, budget)
		}
		// The solution must verify through the caller-visible scalar path.
		check, _, err := MaxSSN(sol.Params)
		if err != nil {
			t.Fatalf("trial %d: MaxSSN(sol.Params): %v", trial, err)
		}
		if check != sol.VMax {
			t.Fatalf("trial %d: sol.VMax %.17g != MaxSSN(sol.Params) %.17g", trial, sol.VMax, check)
		}
	}
	for _, v := range solveVars {
		if attempted[v] == 0 {
			t.Fatalf("%s: no solvable draws attempted", v)
		}
		rate := float64(solved[v]) / float64(attempted[v])
		min := 0.9
		if v == SolveC {
			min = 0.5 // most draws sit on the non-monotone sweep
		}
		if rate < min {
			t.Errorf("%s: solved only %d of %d draws (%.0f%%)", v, solved[v], attempted[v], 100*rate)
		}
	}
}

// TestSolveAtCaseBoundaries places the solution exactly at Table 1 case
// switches: the under-damped peak/boundary split (τp = τr) via the slope,
// and the critical-damping band via the capacitance — centered in the band
// and just outside both edges.
func TestSolveAtCaseBoundaries(t *testing.T) {
	base := refParams()
	base.C = 25 * base.CriticalCapacitance()

	t.Run("peak-boundary-switch", func(t *testing.T) {
		m, err := NewLCModel(base)
		if err != nil {
			t.Fatal(err)
		}
		// ω is slope-free, so s* = (Vdd-V0)·ω/π puts τp exactly at τr.
		sStar := (base.Vdd - base.Dev.V0) * m.Omega() / math.Pi
		budget := vmaxAt(t, base, SolveSlope, sStar)
		sol, err := SolveBracket(base, SolveSlope, budget, sStar/1e4, sStar*1e4)
		if err != nil {
			t.Fatalf("solve at the peak/boundary switch: %v", err)
		}
		if sol.VMax < budget-1e-9 || sol.VMax > budget {
			t.Fatalf("vmax %.17g outside [budget-1e-9, budget], budget %.17g", sol.VMax, budget)
		}
		if rel := math.Abs(sol.Value-sStar) / sStar; rel > 1e-6 {
			t.Errorf("solved slope %g differs from the switch point %g by %g", sol.Value, sStar, rel)
		}
	})

	for _, tc := range []struct {
		name string
		q    float64
	}{
		{"critical-band-center", 0},
		{"over-damped-edge", 1.01},
		{"under-damped-edge", -1.01},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := withDisc(refParams(), tc.q)
			cStar := p.C
			budget := vmaxAt(t, p, SolveC, cStar)
			sol, err := Solve(p, SolveC, budget)
			if err != nil {
				t.Fatalf("solve astride the critical band: %v", err)
			}
			if sol.VMax < budget-1e-9 || sol.VMax > budget {
				t.Fatalf("vmax %.17g outside [budget-1e-9, budget], budget %.17g", sol.VMax, budget)
			}
		})
	}

	t.Run("critical-band-via-inductance", func(t *testing.T) {
		// Place the critical discriminant on the L axis: disc = 0 at
		// L* = 4C/(NKa)².
		p := refParams()
		nka := float64(p.N) * p.Dev.K * p.Dev.A
		p.C = 0.5e-12
		lStar := 4 * p.C / (nka * nka)
		budget := vmaxAt(t, p, SolveL, lStar)
		sol, err := Solve(p, SolveL, budget)
		if err != nil {
			t.Fatalf("solve at the critical inductance: %v", err)
		}
		if sol.VMax < budget-1e-9 || sol.VMax > budget {
			t.Fatalf("vmax %.17g outside [budget-1e-9, budget], budget %.17g", sol.VMax, budget)
		}
	})
}

// TestSolveDriversMatchesBinarySearch: the continuous SolveN boundary,
// floored, must agree with MaxDriversForBudget's integer answer.
func TestSolveDriversMatchesBinarySearch(t *testing.T) {
	p := refParams()
	for _, budget := range []float64{0.2, 0.35, 0.5, 0.8} {
		want, err := MaxDriversForBudget(p, budget, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := Solve(p, SolveN, budget)
		if err != nil {
			t.Fatalf("Solve(n, %g): %v", budget, err)
		}
		if got := sol.MaxDrivers(); got != want {
			t.Errorf("budget %g: MaxDrivers %d, MaxDriversForBudget %d (boundary %g)",
				budget, got, want, sol.Value)
		}
	}
}

// TestSolveUnsolvable pins the structured SolveError on budgets with no
// boundary in the bracket.
func TestSolveUnsolvable(t *testing.T) {
	p := refParams()
	if _, err := SolveBracket(p, SolveL, 1e-12, 1e-12, 1e-11); err == nil {
		t.Error("tiny budget over a tiny-L bracket: want unreachable error")
	} else if _, ok := err.(*SolveError); !ok {
		t.Errorf("want *SolveError, got %T: %v", err, err)
	}
	// Saturation: vmax < (Vdd-V0)/a for every n, so a budget above that is
	// unreachable no matter the driver count.
	sat := (p.Vdd - p.Dev.V0) / p.Dev.A
	if _, err := Solve(p, SolveN, sat*1.01); err == nil {
		t.Error("budget above the saturation limit: want error")
	}
	var se *SolveError
	_, err := Solve(p, SolveN, sat*1.01)
	if se, _ = err.(*SolveError); se == nil || se.Var != SolveN || se.Budget != sat*1.01 {
		t.Errorf("structured fields not populated: %+v", err)
	}
}

// TestSolveValidation covers argument checking.
func TestSolveValidation(t *testing.T) {
	p := refParams()
	if _, err := Solve(p, SolveL, -1); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := Solve(p, SolveL, math.Inf(1)); err == nil {
		t.Error("infinite budget accepted")
	}
	if _, err := SolveBracket(p, SolveL, 0.3, 1e-9, 1e-9); err == nil {
		t.Error("empty bracket accepted")
	}
	if _, err := SolveBracket(p, SolveL, 0.3, 0, 1e-3); err == nil {
		t.Error("zero lower bound accepted for l")
	}
	bad := p
	bad.Vdd = 0
	if _, err := Solve(bad, SolveL, 0.3); err == nil {
		t.Error("invalid base params accepted")
	}
	if _, err := ParseSolveVar("zz"); err == nil {
		t.Error("unknown variable name accepted")
	}
	for _, name := range []string{"n", "l", "c", "slope", "rise_time"} {
		v, err := ParseSolveVar(name)
		if err != nil {
			t.Fatalf("ParseSolveVar(%q): %v", name, err)
		}
		if v.String() != name {
			t.Errorf("round trip %q -> %v -> %q", name, v, v.String())
		}
	}
}

// TestSolveBracketAllocs: the served inverse solver, MaxDriversForBudget
// seed included, allocates nothing on solvable budgets.
func TestSolveBracketAllocs(t *testing.T) {
	p := refParams()
	p.C = 10 * p.CriticalCapacitance()
	lo, hi := SolveN.DefaultBracket(p)
	allocs := testing.AllocsPerRun(50, func() {
		for _, budget := range []float64{0.2, 0.35, 0.5, 0.65} {
			if _, err := SolveBracket(p, SolveN, budget, lo, hi); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("SolveBracket allocated %.1f per run, want 0", allocs)
	}
}

// BenchmarkSolve solves n for four budgets through SolveBracket, the path
// /v1/solve runs.
func BenchmarkSolve(b *testing.B) {
	p := refParams()
	p.C = 10 * p.CriticalCapacitance()
	budgets := []float64{0.2, 0.35, 0.5, 0.65}
	lo, hi := SolveN.DefaultBracket(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, budget := range budgets {
			if _, err := SolveBracket(p, SolveN, budget, lo, hi); err != nil {
				b.Fatal(err)
			}
		}
	}
}
