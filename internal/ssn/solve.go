package ssn

import (
	"fmt"
	"math"
)

// The inverse solvers answer the design questions the forward closed forms
// only hint at: given a noise budget, what is the boundary value of one free
// variable — the largest driver count, the largest ground inductance, the
// fastest edge — at which Vmax meets the budget exactly? The solver runs a
// safeguarded Newton iteration on the analytic dVmax/dx of the active
// Table 1 case, falling back to bisection whenever a step leaves the
// bracket or stalls across a case boundary (where the local formula
// changes); the bracket endpoint that satisfies the budget is never
// surrendered, so the returned point always lands within
// [budget-solveTol, budget].

// SolveVar names the free variable an inverse query solves for.
type SolveVar uint8

// The solvable free variables. SolveN treats the driver count as
// continuous (it only ever enters the closed forms through N·K products);
// SolveRiseTime solves for the 0→Vdd rise time tr = Vdd/s.
const (
	SolveN SolveVar = iota
	SolveL
	SolveC
	SolveSlope
	SolveRiseTime
)

// String returns the wire name of the variable.
func (v SolveVar) String() string {
	switch v {
	case SolveN:
		return "n"
	case SolveL:
		return "l"
	case SolveC:
		return "c"
	case SolveSlope:
		return "slope"
	case SolveRiseTime:
		return "rise_time"
	default:
		return fmt.Sprintf("solvevar(%d)", int(v))
	}
}

// ParseSolveVar maps a wire name onto a SolveVar.
func ParseSolveVar(name string) (SolveVar, error) {
	switch name {
	case "n":
		return SolveN, nil
	case "l":
		return SolveL, nil
	case "c":
		return SolveC, nil
	case "slope":
		return SolveSlope, nil
	case "rise_time", "tr":
		return SolveRiseTime, nil
	}
	return 0, invalidf("Var", name, `must be one of "n", "l", "c", "slope", "rise_time"`,
		"ssn: unknown solve variable %q", name)
}

// Apply returns p with the free variable set to x. A continuous driver
// count folds into K (q.N = 1, q.Dev.K = K·x): N only ever appears in the
// closed forms as N·K products, and the fold keeps the point evaluable by
// the integer-N machinery for any positive x.
func (v SolveVar) Apply(p Params, x float64) Params {
	switch v {
	case SolveN:
		p.Dev.K *= x
		p.N = 1
	case SolveL:
		p.L = x
	case SolveC:
		p.C = x
	case SolveSlope:
		p.Slope = x
	case SolveRiseTime:
		p.Slope = p.Vdd / x
	}
	return p
}

// monotone reports the dominant direction Vmax moves with the variable:
// +1 increasing, -1 decreasing, 0 non-monotone (C: falling through the
// over-damped regime, rising toward 2β once the net rings, vanishing again
// as C → ∞). The sign orients bracketing and seeding; solveCore still
// falls back to an interior scan when endpoint signs contradict it (the
// under-damped boundary case is not globally monotone in the edge rate).
func (v SolveVar) monotone() int {
	switch v {
	case SolveRiseTime:
		return -1
	case SolveC:
		return 0
	default:
		return +1
	}
}

// DefaultBracket is the search range Solve uses when the caller supplies
// none. The ranges cover every physically plausible value by several
// decades on each side.
func (v SolveVar) DefaultBracket(p Params) (lo, hi float64) {
	switch v {
	case SolveN:
		return 1e-3, 1e9
	case SolveL:
		return 1e-15, 1e-3
	case SolveC:
		return 0, 1e-6
	case SolveSlope:
		return 1e3, 1e15
	default: // SolveRiseTime
		return 1e-15, 1e-3
	}
}

// Solution is a solved inverse query: the boundary value of the free
// variable and the operating point it lands on.
type Solution struct {
	Var    SolveVar
	Value  float64 // boundary value of the free variable
	VMax   float64 // achieved maximum at Value, within [budget-solveTol, budget]
	Case   Case    // Table 1 case at the solution
	Params Params  // the solved point (continuous N folded into K, see Apply)
	Evals  int     // closed-form evaluations spent
	Newton int     // accepted Newton steps
	Bisect int     // bisection fallbacks
}

// MaxDrivers returns the integer driver count a SolveN solution supports:
// the floor of the continuous boundary (0 when even one driver exceeds the
// budget). It returns 0 for other variables.
func (s Solution) MaxDrivers() int {
	if s.Var != SolveN {
		return 0
	}
	n := int(math.Floor(s.Value + 1e-9))
	if n < 0 {
		n = 0
	}
	return n
}

// SolveError reports an inverse query with no boundary inside the bracket:
// the budget is either met everywhere (not binding) or met nowhere
// (unreachable), or the iteration failed to converge.
type SolveError struct {
	Var      SolveVar
	Budget   float64
	Lo, Hi   float64 // the search bracket
	VLo, VHi float64 // achieved maxima at the bracket ends
	Reason   string
}

func (e *SolveError) Error() string {
	return fmt.Sprintf("ssn: solve %s for budget %g V over [%g, %g] (vmax %g .. %g): %s",
		e.Var, e.Budget, e.Lo, e.Hi, e.VLo, e.VHi, e.Reason)
}

// solveTol is the convergence tolerance on the budget residual: the
// returned point satisfies budget - solveTol <= Vmax <= budget.
const solveTol = 1e-9

// solveMaxIter bounds the refinement loop. Forced bisection guarantees at
// least one bracket halving per two iterations, so 256 iterations resolve
// any bracket to ulp width with a wide margin.
const solveMaxIter = 256

// solveScanPoints is the geometric grid density of the first-crossing scan
// used for the non-monotone variable (C).
const solveScanPoints = 64

// solveSeedLimit caps the MaxDriversForBudget binary search that seeds a
// SolveN query.
const solveSeedLimit = 1 << 30

// Solve finds the boundary value of the free variable v at which the
// Table 1 maximum meets the budget, searching the variable's default
// bracket. See SolveBracket.
func Solve(p Params, v SolveVar, budget float64) (Solution, error) {
	lo, hi := v.DefaultBracket(p)
	return SolveBracket(p, v, budget, lo, hi)
}

// SolveBracket is Solve over an explicit bracket [lo, hi]. The solution is
// the crossing of Vmax(x) = budget nearest lo, refined until the returned
// point's maximum lies within [budget-solveTol, budget]; for the monotone
// variables (n, l, slope, rise_time) the crossing is unique, for c — where
// Vmax is not monotone — the nearest-lo crossing is the smallest
// capacitance at which the budget becomes binding. The iteration is
// Newton on the analytic per-case dVmax/dx, safeguarded by the bracket:
// steps that leave it, or stall (e.g. astride the under-damped
// peak/boundary switch, where the second derivative jumps), fall back to
// bisection.
func SolveBracket(p Params, v SolveVar, budget, lo, hi float64) (Solution, error) {
	if !(budget > 0) || math.IsInf(budget, 0) {
		return Solution{Var: v}, invalidf("Budget", budget, "must be positive and finite",
			"ssn: solve budget %g must be positive and finite", budget)
	}
	minLo := 0.0
	if v != SolveC {
		minLo = math.SmallestNonzeroFloat64
	}
	if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(hi, 0) || lo < minLo || hi <= lo {
		return Solution{Var: v}, invalidf("Bracket", [2]float64{lo, hi}, "must satisfy 0 <= lo < hi (lo > 0 except for c)",
			"ssn: bad solve bracket [%g, %g] for %s", lo, hi, v)
	}
	ev := solveEval{p: p, v: v, budget: budget}
	return solveCore(&ev, lo, hi)
}

// solveCore runs the bracketing + refinement pipeline.
func solveCore(ev *solveEval, lo, hi float64) (Solution, error) {
	sol := Solution{Var: ev.v}
	glo, err := ev.g(lo)
	if err != nil {
		return sol, err
	}
	ghi, err := ev.g(hi)
	if err != nil {
		return sol, err
	}
	var a, b, ga, gb float64
	if ev.v.monotone() != 0 && (glo <= 0) != (ghi <= 0) {
		if glo <= 0 {
			a, ga, b, gb = lo, glo, hi, ghi
		} else {
			a, ga, b, gb = hi, ghi, lo, glo
		}
		a, ga, b, gb = seedBracket(ev, a, ga, b, gb)
	} else if ev.v.monotone() != 0 {
		// Same-sign endpoints on a nominally monotone variable. Usually the
		// boundary lies outside the bracket, but the under-damped boundary
		// case hides interior humps — V(τr) → 0 for ever-faster edges while
		// β grows, so slope/rise-time (and deep-ringing l) queries can meet
		// the budget only mid-bracket. Scan before giving up.
		var ok bool
		a, ga, b, gb, ok = scanFirstCrossing(ev, lo, hi, glo, ghi)
		if !ok {
			reason := "budget unreachable anywhere in the bracket"
			if glo <= 0 {
				reason = "vmax stays within the budget across the whole bracket; the boundary lies outside it"
			}
			return sol, &SolveError{Var: ev.v, Budget: ev.budget, Lo: lo, Hi: hi,
				VLo: glo + ev.budget, VHi: ghi + ev.budget, Reason: reason}
		}
	} else {
		var ok bool
		a, ga, b, gb, ok = scanFirstCrossing(ev, lo, hi, glo, ghi)
		if !ok {
			reason := "no budget crossing in the bracket (vmax is not monotone in c; try a wider bracket)"
			if glo <= 0 && ghi <= 0 {
				reason = "vmax stays within the budget at both bracket ends and no interior crossing was found"
			}
			return sol, &SolveError{Var: ev.v, Budget: ev.budget, Lo: lo, Hi: hi,
				VLo: glo + ev.budget, VHi: ghi + ev.budget, Reason: reason}
		}
	}
	if err := refineRoot(ev, &sol, a, ga, b, gb); err != nil {
		return sol, err
	}
	// Re-evaluate through the exact external verification path (Apply +
	// PlanFixed compile) so Solution reports the same bits a caller's own
	// round-trip check computes.
	q := ev.v.Apply(ev.p, sol.Value)
	if err := ev.pl.Compile(q, PlanFixed); err != nil {
		return sol, err
	}
	sol.VMax = ev.pl.VMax()
	sol.Case = ev.pl.Case()
	sol.Params = q
	sol.Evals = ev.evals
	return sol, nil
}

// solveEval evaluates the budget residual g(x) = Vmax(x) - budget through
// a reusable compiled plan: the exact value path callers verify against.
type solveEval struct {
	p      Params
	v      SolveVar
	budget float64
	pl     Plan
	evals  int
}

func (e *solveEval) g(x float64) (float64, error) {
	q := e.v.Apply(e.p, x)
	if err := e.pl.Compile(q, PlanFixed); err != nil {
		return 0, err
	}
	e.evals++
	return e.pl.VMax() - e.budget, nil
}

// seedBracket narrows a monotone bracket with the analytic seeds before
// the Newton loop: MaxDriversForBudget's integer bisection for SolveN
// (giving the one-driver-wide bracket [N0, N0+1]), the L-only
// LSensitivity linearization for l, slope and rise_time. Seeding is
// best-effort — any failure keeps the full bracket, which refineRoot
// resolves regardless.
func seedBracket(ev *solveEval, a, ga, b, gb float64) (float64, float64, float64, float64) {
	switch ev.v {
	case SolveN:
		return seedDrivers(ev, a, ga, b, gb)
	case SolveL, SolveSlope, SolveRiseTime:
		return seedLinear(ev, a, ga, b, gb)
	}
	return a, ga, b, gb
}

// seedDrivers brackets a SolveN query one driver wide with
// MaxDriversForBudget.
func seedDrivers(ev *solveEval, a, ga, b, gb float64) (float64, float64, float64, float64) {
	lo, hi := math.Min(a, b), math.Max(a, b)
	pp := ev.p
	pp.N = 1
	n0, err := MaxDriversForBudget(pp, ev.budget, solveSeedLimit)
	if err != nil || n0 < 1 || n0 >= solveSeedLimit {
		return a, ga, b, gb
	}
	x0, x1 := float64(n0), float64(n0+1)
	if x0 < lo || x1 > hi {
		return a, ga, b, gb
	}
	g0, err := ev.g(x0)
	if err != nil || g0 > 0 {
		return a, ga, b, gb
	}
	g1, err := ev.g(x1)
	if err != nil || g1 <= 0 {
		return a, ga, b, gb
	}
	return x0, g0, x1, g1
}

// seedLinear narrows the bracket with one probe at the L-only linear
// estimate x1 = x0 + (budget - Vmax_L(x0)) / (dVmax_L/dx)(x0), the
// LSensitivity analytic derivative evaluated at the nominal operating
// point (or the geometric bracket midpoint when no nominal exists).
func seedLinear(ev *solveEval, a, ga, b, gb float64) (float64, float64, float64, float64) {
	lo, hi := math.Min(a, b), math.Max(a, b)
	p := ev.p
	var x0 float64
	switch ev.v {
	case SolveL:
		x0 = p.L
	case SolveSlope:
		x0 = p.Slope
	case SolveRiseTime:
		if p.Slope > 0 {
			x0 = p.Vdd / p.Slope
		}
	}
	if !(x0 > lo && x0 < hi) {
		x0 = math.Sqrt(lo * hi)
	}
	q := ev.v.Apply(p, x0)
	sens, err := LSensitivity(q)
	if err != nil {
		return a, ga, b, gb
	}
	var dv float64
	switch ev.v {
	case SolveL:
		dv = sens.DVdL
	case SolveSlope:
		dv = sens.DVdS
	case SolveRiseTime:
		dv = -sens.DVdS * q.Slope / x0 // dV/dtr = dV/ds · ds/dtr, ds/dtr = -s/tr
	}
	if dv == 0 || math.IsNaN(dv) || math.IsInf(dv, 0) {
		return a, ga, b, gb
	}
	x1 := x0 + (ev.budget-sens.VMax)/dv
	if !(x1 > lo && x1 < hi) {
		return a, ga, b, gb
	}
	g1, err := ev.g(x1)
	if err != nil {
		return a, ga, b, gb
	}
	// Monotone bracket: the probe replaces whichever endpoint shares its
	// side of the budget.
	if g1 <= 0 {
		return x1, g1, b, gb
	}
	return a, ga, x1, g1
}

// scanFirstCrossing walks a geometric grid from lo to hi and returns the
// first segment whose endpoints straddle the budget, oriented as
// (within-budget endpoint a, over-budget endpoint b). Used for the
// non-monotone variable, where endpoint signs alone cannot bracket.
func scanFirstCrossing(ev *solveEval, lo, hi, glo, ghi float64) (a, ga, b, gb float64, ok bool) {
	// Geometric grid; a zero lower endpoint (C) contributes itself plus a
	// geometric ladder starting many decades below hi.
	start := lo
	if start == 0 {
		start = hi * 1e-12
	}
	ratio := math.Pow(hi/start, 1/float64(solveScanPoints-1))
	xPrev, gPrev := lo, glo
	x := start
	for i := 0; i < solveScanPoints; i++ {
		if i == solveScanPoints-1 {
			x = hi
		}
		var gx float64
		if x == hi {
			gx = ghi
		} else if x <= xPrev {
			x *= ratio
			continue
		} else {
			var err error
			gx, err = ev.g(x)
			if err != nil {
				return 0, 0, 0, 0, false
			}
		}
		if (gPrev <= 0) != (gx <= 0) {
			if gPrev <= 0 {
				return xPrev, gPrev, x, gx, true
			}
			return x, gx, xPrev, gPrev, true
		}
		xPrev, gPrev = x, gx
		x *= ratio
	}
	return 0, 0, 0, 0, false
}

// refineRoot drives the bracket [a, b] (g(a) <= 0 < g(b)) to the budget:
// Newton steps on the analytic derivative from the endpoint with the
// smaller residual, bisection whenever a step leaves the bracket, the
// derivative is unavailable, or the bracket stalls (it must halve every
// two iterations). Termination is on the residual of the within-budget
// endpoint, so the answer never overshoots the budget.
func refineRoot(ev *solveEval, sol *Solution, a, ga, b, gb float64) error {
	width2 := math.Abs(b - a) // bracket width two iterations ago
	forceBisect := false
	for iter := 0; iter < solveMaxIter; iter++ {
		if -ga <= solveTol {
			sol.Value = a
			return nil
		}
		x0, g0 := a, ga
		if math.Abs(gb) < math.Abs(ga) {
			x0, g0 = b, gb
		}
		var xn float64
		newton := false
		if !forceBisect {
			if dv, ok := vmaxDeriv(ev.p, ev.v, x0); ok && dv != 0 {
				cand := x0 - g0/dv
				if !math.IsNaN(cand) && !math.IsInf(cand, 0) && (cand-a)*(cand-b) < 0 {
					xn, newton = cand, true
				}
			}
		}
		if !newton {
			xn = bisect(a, b)
			if xn == a || xn == b {
				// Bracket exhausted at adjacent floats without meeting the
				// tolerance: a genuine value gap (e.g. the critical-damping
				// band's formula switch) straddles the budget.
				break
			}
		}
		gx, err := ev.g(xn)
		if err != nil {
			return err
		}
		if newton {
			sol.Newton++
		} else {
			sol.Bisect++
		}
		if gx <= 0 {
			a, ga = xn, gx
		} else {
			b, gb = xn, gx
		}
		if iter%2 == 1 {
			w := math.Abs(b - a)
			forceBisect = w > 0.5*width2
			width2 = w
		}
	}
	if -ga <= solveTol {
		sol.Value = a
		return nil
	}
	lo, hi := math.Min(a, b), math.Max(a, b)
	return &SolveError{Var: ev.v, Budget: ev.budget, Lo: lo, Hi: hi,
		VLo: ga + ev.budget, VHi: gb + ev.budget,
		Reason: fmt.Sprintf("did not converge to %g V of the budget", solveTol)}
}

// bisect halves the bracket: geometrically when both ends are positive and
// far apart (the brackets span decades), arithmetically otherwise.
func bisect(a, b float64) float64 {
	lo, hi := math.Min(a, b), math.Max(a, b)
	if lo > 0 && hi > 4*lo {
		return math.Sqrt(lo * hi)
	}
	return lo + (hi-lo)/2
}
