package oracle

import (
	"fmt"
	"math"

	"ssnkit/internal/spice"
)

// The AC sweep-reuse oracle checks the contract the symbolic/numeric split
// factorization (linalg.CSymbolicLU, DESIGN.md §17) makes to the sweep
// layer: restamping and refactoring a reused engine at frequency after
// frequency must reproduce, bit for bit, what a freshly compiled engine
// computes at each frequency in isolation — the reuse may not leak state.
// On top of the exact reuse property, the symbolic answer at the point's
// screened frequency must agree with the dense bit-reference to
// acSweepDenseTol; the band is tolerance-based, not exact, because the
// fill-reducing ordering changes the elimination sequence (documented
// ≤1-ULP-per-operation differences, amplified by conditioning).

// acSweepDenseTol is the relative symbolic-vs-dense band at the screened
// frequency, the same band the adjoint-vs-FD oracle certifies (acTol).
// validAC screens FD conditioning, not LU conditioning, so random grids
// can amplify the elimination-order rounding past 1e-7 (a fuzz corpus
// entry pins one at 1.01e-7); 1e-6 keeps an order of headroom while a real
// restamp or scatter bug still lands at percent scale.
const acSweepDenseTol = 1e-6

// acSweepPoints is the per-point sweep grid size, spanning a decade either
// side of the screened frequency.
const acSweepPoints = 12

// ACSweepResult is the outcome of one sweep-reuse check. Skipped marks a
// pattern outside the symbolic backend's domain.
type ACSweepResult struct {
	verdict
	Point    ACPoint `json:"-"` // a repro file's own "point" field
	Freqs    int     `json:"freqs"`
	WorstRel float64 `json:"worst_rel"` // symbolic vs dense at pt.Freq
}

func (r ACSweepResult) String() string {
	return fmt.Sprintf("%s rel=%.3g tol=%.3g %s", r.status(), r.WorstRel, acSweepDenseTol, r.Point)
}

func (r ACSweepResult) tally() (string, float64) { return "", r.WorstRel }

// sweepCampaign is the sweep-reuse oracle's campaign. It draws the AC
// oracle's points and shrinks with its schedule.
var sweepCampaign = campaign[ACPoint, ACSweepResult, *ACSweepResult]{
	title:    "ac sweep-reuse campaign",
	prefix:   "ac-sweep",
	generate: GenerateAC,
	checker:  func() func(ACPoint) ACSweepResult { return CheckACSweepReuse },
	schedule: acSchedule,
}

// acEngineFor compiles the point with a forced backend and resolves its
// observation node.
func acEngineFor(pt ACPoint, backend spice.ACBackend) (*spice.ACEngine, int, error) {
	ckt, err := pt.Build()
	if err != nil {
		return nil, 0, err
	}
	eng, err := spice.NewAC(ckt, spice.ACOptions{Backend: backend})
	if err != nil {
		return nil, 0, err
	}
	obs := eng.NodeIndex(fmt.Sprintf("n%d", pt.Obs))
	if obs < 0 {
		return nil, 0, fmt.Errorf("oracle: observation node n%d missing", pt.Obs)
	}
	return eng, obs, nil
}

// CheckACSweepReuse verifies the sweep-reuse contract for one point: a
// single symbolic engine swept across a two-decade grid around pt.Freq
// must match a fresh engine per frequency exactly (Z and every adjoint
// sensitivity, == not ≈), and must match the dense reference at the
// screened frequency within acSweepDenseTol. Points whose MNA pattern the
// symbolic backend rejects (structurally zero diagonals — not every random
// RLC grid has a full diagonal) are reported as Skipped, not failed: they
// run on the pivoted fallback in production.
func CheckACSweepReuse(pt ACPoint) ACSweepResult {
	res := ACSweepResult{Point: pt}
	if _, err := pt.Build(); err != nil {
		res.Err = err
		return res
	}
	reused, obs, err := acEngineFor(pt, spice.ACSymbolic)
	if err != nil {
		res.Skipped = true
		res.Detail = err.Error()
		return res
	}
	freqs, err := spice.FreqGrid(pt.Freq/10, pt.Freq*10, acSweepPoints, true)
	if err != nil {
		res.Err = err
		return res
	}
	res.Freqs = len(freqs)
	var sensR, sensF []spice.SensEntry
	for _, f := range freqs {
		w := 2 * math.Pi * f
		zR, sR, errR := reused.ImpedanceSens(w, obs, sensR[:0])
		fresh, fobs, err := acEngineFor(pt, spice.ACSymbolic)
		if err != nil {
			res.Err = fmt.Errorf("oracle: recompiling the accepted pattern failed: %w", err)
			return res
		}
		zF, sF, errF := fresh.ImpedanceSens(w, fobs, sensF[:0])
		if (errR == nil) != (errF == nil) {
			res.Detail = fmt.Sprintf("f=%g: reused err=%v, fresh err=%v", f, errR, errF)
			return res
		}
		if errR != nil {
			// Both paths hit the same numeric singularity; error parity is
			// the property at such a frequency.
			continue
		}
		sensR, sensF = sR, sF
		if zR != zF {
			res.Detail = fmt.Sprintf("f=%g: reused Z %v != fresh Z %v", f, zR, zF)
			return res
		}
		if len(sR) != len(sF) {
			res.Detail = fmt.Sprintf("f=%g: sensitivity count %d vs %d", f, len(sR), len(sF))
			return res
		}
		for i := range sF {
			if sR[i].DZ != sF[i].DZ || sR[i].DAbs != sF[i].DAbs {
				res.Detail = fmt.Sprintf("f=%g %s: reused sens (%v, %v) != fresh (%v, %v)",
					f, sF[i].Name, sR[i].DZ, sR[i].DAbs, sF[i].DZ, sF[i].DAbs)
				return res
			}
		}
	}
	dense, dobs, err := acEngineFor(pt, spice.ACDense)
	if err != nil {
		res.Err = err
		return res
	}
	w := 2 * math.Pi * pt.Freq
	zS, errS := reused.Impedance(w, obs)
	zD, errD := dense.Impedance(w, dobs)
	if errS != nil || errD != nil {
		res.Err = fmt.Errorf("oracle: screened-frequency solve: symbolic %v, dense %v", errS, errD)
		return res
	}
	den := math.Hypot(real(zD), imag(zD))
	if den < 1 {
		den = 1
	}
	res.WorstRel = math.Hypot(real(zS-zD), imag(zS-zD)) / den
	if res.WorstRel > acSweepDenseTol {
		res.Detail = fmt.Sprintf("f=%g: symbolic Z %v vs dense %v rel %.3g", pt.Freq, zS, zD, res.WorstRel)
		return res
	}
	res.Pass = true
	return res
}
