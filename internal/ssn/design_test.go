package ssn

import (
	"math"
	"math/rand"
	"testing"
)

func TestDelayPushoutBasics(t *testing.T) {
	p := refParams()
	dt, err := DelayPushout(p)
	if err != nil {
		t.Fatal(err)
	}
	if dt <= 0 {
		t.Fatalf("pushout = %g, want positive", dt)
	}
	// Pushout is bounded by the charge argument: the lost drive is at most
	// a * beta over (window + tail).
	bound := p.Dev.A * p.Beta() * (p.TauRise() + p.TimeConstant()) / (p.Vdd - p.Dev.V0)
	if dt >= bound {
		t.Errorf("pushout %g above the crude bound %g", dt, bound)
	}
}

func TestDelayPushoutGrowsWithN(t *testing.T) {
	prev := 0.0
	for _, n := range []int{2, 4, 8, 16, 32} {
		dt, err := DelayPushout(refParams().WithN(n))
		if err != nil {
			t.Fatal(err)
		}
		if dt <= prev {
			t.Errorf("pushout not increasing at N=%d: %g", n, dt)
		}
		prev = dt
	}
}

func TestDelayPushoutVanishesWithL(t *testing.T) {
	tiny, err := DelayPushout(refParams().WithGround(1e-14, 0))
	if err != nil {
		t.Fatal(err)
	}
	real5n, err := DelayPushout(refParams())
	if err != nil {
		t.Fatal(err)
	}
	if tiny > real5n/100 {
		t.Errorf("near-ideal ground pushout %g not negligible vs %g", tiny, real5n)
	}
}

func TestDelayPushoutMatchesNumericIntegral(t *testing.T) {
	// The closed-form ramp+tail integral against numeric integration of
	// the LModel waveform plus the exact exponential-tail term.
	p := refParams()
	m, _ := NewLModel(p)
	tauR := p.TauRise()
	tauC := p.TimeConstant()
	const n = 200000
	sum := 0.0
	h := tauR / n
	for i := 0; i < n; i++ {
		sum += m.V((float64(i) + 0.5) * h)
	}
	sum *= h
	sum += m.V(tauR) * tauC // decay tail
	want := p.Dev.A * sum / (p.Vdd - p.Dev.V0)
	got, err := DelayPushout(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-4*want {
		t.Errorf("pushout %g vs numeric %g", got, want)
	}
}

func TestDelayPushoutValidation(t *testing.T) {
	bad := refParams()
	bad.N = 0
	if _, err := DelayPushout(bad); err == nil {
		t.Error("invalid params must error")
	}
}

// TestBudgetHelpersWithinBudget holds MinRiseTimeForBudget and
// InductanceBudget to their contract over seeded design points: the
// returned rise time or inductance keeps the maximum SSN at or below the
// budget, never a rounding step above it.
func TestBudgetHelpersWithinBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(20261018))
	const draws = 2000
	var trOK, lOK, trOver, lOver int
	for round := 0; round < draws; round++ {
		p := randPlanParams(rng, round)
		nominal, _, err := MaxSSN(p)
		if err != nil {
			t.Fatalf("draw %d: %v", round, err)
		}
		budget := nominal * (0.5 + rng.Float64())
		tr0 := p.Vdd / p.Slope
		if tr, err := MinRiseTimeForBudget(p, budget, tr0/100, tr0*100); err == nil {
			trOK++
			if v, _, err := MaxSSN(p.WithRiseTime(tr)); err != nil || v > budget {
				if trOver++; trOver <= 3 {
					t.Errorf("draw %d: tr %g gives vmax %g over budget %g (err %v)", round, tr, v, budget, err)
				}
			}
		}
		if l, err := InductanceBudget(p, budget, p.L/100, p.L*100); err == nil {
			lOK++
			if v, _, err := MaxSSN(p.WithGround(l, p.C)); err != nil || v > budget {
				if lOver++; lOver <= 3 {
					t.Errorf("draw %d: L %g gives vmax %g over budget %g (err %v)", round, l, v, budget, err)
				}
			}
		}
	}
	t.Logf("%d draws: %d rise times (%d over budget), %d inductances (%d over budget)",
		draws, trOK, trOver, lOK, lOver)
	if trOver+lOver > 0 {
		t.Errorf("%d rise times and %d inductances exceed the budget", trOver, lOver)
	}
	if trOK < draws/2 || lOK < draws/2 {
		t.Errorf("only %d rise times and %d inductances of %d draws returned", trOK, lOK, draws)
	}
}
