package ssn

import (
	"fmt"
	"math"
)

// The design helpers implement the paper's Sec. 3 "design implications":
// for a fixed process, β = N·L·K·s is the only lever, so a noise budget
// translates interchangeably into a driver-count limit, an inductance
// budget, or an input-slope limit.
//
// MinRiseTimeForBudget and InductanceBudget settle the window ends
// themselves and hand the interior search to SolveBracket, so they share
// its contract: the returned value's maximum SSN lies within
// [budget-solveTol, budget], never above the budget. MaxDriversForBudget
// keeps its own integer bisection, which also seeds SolveN.

// MaxDriversForBudget returns the largest driver count N for which the
// four-case maximum SSN stays at or below the budget voltage, scanning up
// to limit drivers. It returns 0 if even one driver exceeds the budget.
func MaxDriversForBudget(p Params, budget float64, limit int) (int, error) {
	if budget <= 0 {
		return 0, fmt.Errorf("ssn: budget %g must be positive", budget)
	}
	if limit < 1 {
		limit = 1024
	}
	// VMax is monotone in N (it is monotone in β, and the under-damped
	// first-peak factor grows with N too), so binary search applies.
	exceeds := func(n int) (bool, error) {
		v, _, err := MaxSSN(p.WithN(n))
		if err != nil {
			return false, err
		}
		return v > budget, nil
	}
	if over, err := exceeds(1); err != nil {
		return 0, err
	} else if over {
		return 0, nil
	}
	lo, hi := 1, limit // lo is always within budget
	if over, err := exceeds(limit); err != nil {
		return 0, err
	} else if !over {
		return limit, nil
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		over, err := exceeds(mid)
		if err != nil {
			return 0, err
		}
		if over {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo, nil
}

// MinRiseTimeForBudget returns the fastest input rise time (smallest tr,
// i.e. largest slope) that keeps the maximum SSN at or below the budget.
// The search window is [trFast, trSlow]: trFast is returned when it
// already meets the budget, and an error when even trSlow does not;
// otherwise the SolveBracket crossing inside the window.
func MinRiseTimeForBudget(p Params, budget, trFast, trSlow float64) (float64, error) {
	return budgetSearch(p, SolveRiseTime, budget, trFast, trSlow, "rise-time", "tr", "s")
}

// DelayPushout estimates how much the ground bounce slows the switching
// drivers themselves — the paper's "decreases the effective driving
// strength of the circuits". The bounce steals gate drive worth a·V(τ), so
// each driver delivers K·a·∫V dτ less charge than with an ideal ground;
// repaying it at the full-drive current K·(Vdd − V0) costs
//
//	Δt ≈ a·∫₀^∞ V dτ / (Vdd − V0).
//
// The integral splits into the ramp window, where the L-only closed form
// gives ∫₀^τr V = β·(τr − τc·(1 − e^{-τr/τc})), and the post-ramp decay
// tail, where the bounce relaxes with the circuit time constant τc and
// contributes ≈ V(τr)·τc. The estimate tracks transistor-level simulation
// within ~25% across the ext-delay sweep.
func DelayPushout(p Params) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	beta := p.Beta()
	tauC := p.TimeConstant()
	tauR := p.TauRise()
	e := math.Exp(-tauR / tauC)
	rampIntegral := beta * (tauR - tauC*(1-e))
	tailIntegral := beta * (1 - e) * tauC // V(τr)·τc
	return p.Dev.A * (rampIntegral + tailIntegral) / (p.Vdd - p.Dev.V0), nil
}

// InductanceBudget returns the largest effective ground inductance that
// keeps the maximum SSN at or below the budget, searched over
// [lMin, lMax]: lMax is returned when it already meets the budget, and an
// error when even lMin does not; otherwise the SolveBracket crossing
// inside the window. Use it to size the number of ground pads:
// n >= Lpin/L.
func InductanceBudget(p Params, budget, lMin, lMax float64) (float64, error) {
	return budgetSearch(p, SolveL, budget, lMin, lMax, "inductance", "L", "H")
}

// budgetSearch is the body of the window-searching budget helpers. It
// checks the budget and the window [lo, hi], returns the window's noisy
// end (the one with the larger maximum SSN) when that end already meets
// the budget, refuses when even the quiet end does not, and otherwise
// hands the interior search to SolveBracket. name, sym and unit label the
// errors.
func budgetSearch(p Params, v SolveVar, budget, lo, hi float64, name, sym, unit string) (float64, error) {
	if budget <= 0 {
		return 0, fmt.Errorf("ssn: budget %g must be positive", budget)
	}
	if lo <= 0 || hi <= lo {
		return 0, fmt.Errorf("ssn: bad %s window [%g, %g]", name, lo, hi)
	}
	excess := func(x float64) float64 {
		vm, _, err := MaxSSN(v.Apply(p, x))
		if err != nil {
			return 1e9 // an invalid point counts as over budget
		}
		return vm - budget
	}
	noisy, quiet := hi, lo
	if v.monotone() < 0 {
		noisy, quiet = lo, hi
	}
	if excess(noisy) <= 0 {
		return noisy, nil
	}
	if excess(quiet) > 0 {
		return 0, fmt.Errorf("ssn: budget %g V unreachable even at %s = %g %s", budget, sym, quiet, unit)
	}
	sol, err := SolveBracket(p, v, budget, lo, hi)
	if err != nil {
		return 0, fmt.Errorf("ssn: %s search: %w", name, err)
	}
	return sol.Value, nil
}
