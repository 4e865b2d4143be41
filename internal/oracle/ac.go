package oracle

import (
	"fmt"
	"math"
	"strings"

	"ssnkit/internal/circuit"
	"ssnkit/internal/spice"
)

// The AC oracle differentially verifies the adjoint sensitivities of the
// frequency-domain engine: for seeded random RLC grids it compares
// d|Z(f)|/d(value) from one transposed adjoint solve (spice.ImpedanceSens)
// against a Richardson-extrapolated central finite difference that rebuilds
// and re-solves the netlist with the element's value perturbed. The two
// computations share no code past the netlist — the adjoint differentiates
// the MNA stamp analytically, the FD path only ever evaluates |Z| — so
// agreement to 1e-6 over randomized topologies pins the whole chain:
// complex LU, transposed solves, stamp derivatives, and the adjoint
// identity itself.

// ACElem is one element of a random AC design point. Nodes are small
// integers; 0 is ground.
type ACElem struct {
	Kind  string  `json:"kind"` // "R", "L" or "C"
	N1    int     `json:"n1"`
	N2    int     `json:"n2"`
	Value float64 `json:"value"`
}

// ACPoint is one randomized AC design point: an RLC grid, an observation
// node and an analysis frequency. It is the JSON shape of AC repro dumps.
type ACPoint struct {
	Nodes int      `json:"nodes"` // non-ground nodes, numbered 1..Nodes
	Elems []ACElem `json:"elems"`
	Freq  float64  `json:"freq"` // Hz
	Obs   int      `json:"obs"`  // observed node (1..Nodes)
}

func (pt ACPoint) String() string {
	return fmt.Sprintf("nodes=%d elems=%d f=%.4g obs=%d", pt.Nodes, len(pt.Elems), pt.Freq, pt.Obs)
}

// elemName gives element k its deterministic netlist name.
func elemName(k int, kind string) string {
	return fmt.Sprintf("%s%d", strings.ToLower(kind), k)
}

// Build synthesizes the point's netlist. Element k is named
// strings.ToLower(Kind)+k, matching the names ImpedanceSens reports.
func (pt ACPoint) Build() (*circuit.Circuit, error) {
	if pt.Nodes < 1 || pt.Obs < 1 || pt.Obs > pt.Nodes {
		return nil, fmt.Errorf("oracle: AC point %s has bad node/obs", pt)
	}
	ckt := circuit.New("ac-oracle")
	name := func(n int) string {
		if n == 0 {
			return "0"
		}
		return fmt.Sprintf("n%d", n)
	}
	for k, el := range pt.Elems {
		if el.N1 < 0 || el.N1 > pt.Nodes || el.N2 < 0 || el.N2 > pt.Nodes {
			return nil, fmt.Errorf("oracle: AC element %d nodes (%d,%d) out of range", k, el.N1, el.N2)
		}
		switch el.Kind {
		case "R":
			ckt.AddR(elemName(k, el.Kind), name(el.N1), name(el.N2), el.Value)
		case "L":
			ckt.AddL(elemName(k, el.Kind), name(el.N1), name(el.N2), el.Value)
		case "C":
			ckt.AddC(elemName(k, el.Kind), name(el.N1), name(el.N2), el.Value)
		default:
			return nil, fmt.Errorf("oracle: AC element %d has kind %q", k, el.Kind)
		}
	}
	return ckt, nil
}

// acTol is the relative agreement band between the adjoint and the
// Richardson-extrapolated FD. The dominant numerical terms — O(h⁴) FD
// truncation at h = 1e-3 on smoothness-screened points, and rounding noise
// of ~1e-16·|Z|/(2h·influence) against the acInfluenceFloor — both sit
// below 1e-7 (measured across campaign seeds); 1e-6 leaves an order of
// magnitude of headroom while still catching any real stamp or transpose
// bug, which shows up at percent scale.
const acTol = 1e-6

// acInfluenceFloor is the denominator floor as a fraction of |Z|, for the
// degenerate case where even the largest influence in the point is tiny.
const acInfluenceFloor = 1e-3

// fdH is the base relative step of the central difference; Richardson
// combines D(h) and D(h/2) to cancel the O(h²) term. The step balances
// cancellation noise (∝ 1/h) against truncation (∝ h⁴, screened by
// fdSpreadScreen at generation time).
const fdH = 2e-3

// ACSens is the per-element outcome of one differential AC check.
type ACSens struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Adjoint float64 `json:"adjoint"` // d|Z|/dv from ImpedanceSens
	FD      float64 `json:"fd"`      // Richardson central difference
	// RelErr is |adjoint − FD| as an influence (·Value), relative to the
	// point's largest influence (see CheckAC).
	RelErr float64 `json:"rel_err"`
}

// ACResult is the outcome of one differential AC check.
type ACResult struct {
	verdict
	Point    ACPoint  `json:"-"` // a repro file's own "point" field
	AbsZ     float64  `json:"abs_z"`
	Sens     []ACSens `json:"sens,omitempty"`
	WorstRel float64  `json:"worst_rel"`
	Worst    string   `json:"worst,omitempty"` // element name of the worst entry
}

func (r ACResult) String() string {
	return fmt.Sprintf("%s |Z|=%.6g worst=%s rel=%.3g tol=%.3g %s",
		r.status(), r.AbsZ, r.Worst, r.WorstRel, acTol, r.Point)
}

func (r ACResult) tally() (string, float64) { return "", r.WorstRel }

// absZAt evaluates |Z| for the point with element k's value scaled by
// (1+eps); k < 0 leaves the point untouched.
func (pt ACPoint) absZAt(k int, eps float64) (float64, error) {
	mod := pt
	if k >= 0 {
		mod.Elems = append([]ACElem(nil), pt.Elems...)
		mod.Elems[k].Value *= 1 + eps
	}
	ckt, err := mod.Build()
	if err != nil {
		return 0, err
	}
	eng, err := spice.NewAC(ckt, spice.ACOptions{})
	if err != nil {
		return 0, err
	}
	obs := eng.NodeIndex(fmt.Sprintf("n%d", mod.Obs))
	if obs < 0 {
		return 0, fmt.Errorf("oracle: observation node n%d missing", mod.Obs)
	}
	z, err := eng.Impedance(2*math.Pi*mod.Freq, obs)
	if err != nil {
		return 0, err
	}
	return math.Hypot(real(z), imag(z)), nil
}

// CheckAC runs the differential comparison for one AC point: the adjoint
// sensitivities of |Z(f)| at the observation node against Richardson-
// extrapolated central differences, element by element.
func CheckAC(pt ACPoint) ACResult {
	res := ACResult{Point: pt}
	ckt, err := pt.Build()
	if err != nil {
		res.Err = err
		return res
	}
	eng, err := spice.NewAC(ckt, spice.ACOptions{})
	if err != nil {
		res.Err = err
		return res
	}
	obs := eng.NodeIndex(fmt.Sprintf("n%d", pt.Obs))
	if obs < 0 {
		res.Err = fmt.Errorf("oracle: observation node n%d missing", pt.Obs)
		return res
	}
	z, sens, err := eng.ImpedanceSens(2*math.Pi*pt.Freq, obs, nil)
	if err != nil {
		res.Err = err
		return res
	}
	res.AbsZ = math.Hypot(real(z), imag(z))
	byName := make(map[string]spice.SensEntry, len(sens))
	for _, s := range sens {
		byName[s.Name] = s
	}
	// The comparison is an ∞-norm check on the influence vector
	// (v_k·d|Z|/dv_k per element, in ohms per relative value change): every
	// element's |adjoint − FD| is judged against the point's largest
	// influence. Per-element relative floors don't survive here — a
	// component at 1e-5 of the top influence is pure central-difference
	// cancellation noise amplified by the solve's conditioning, while the
	// vector norm keeps noise orders below the band and still catches
	// stamp-derivative bugs, which show up at percent scale on whichever
	// grids that element kind dominates.
	type pair struct {
		name    string
		value   float64
		adj, fd float64
	}
	pairs := make([]pair, 0, len(pt.Elems))
	denom := acInfluenceFloor * res.AbsZ
	for k, el := range pt.Elems {
		name := elemName(k, el.Kind)
		adj, ok := byName[name]
		if !ok {
			res.Err = fmt.Errorf("oracle: element %s missing from adjoint output", name)
			return res
		}
		fd, _, err := pt.fdSens(k)
		if err != nil {
			res.Err = err
			return res
		}
		pairs = append(pairs, pair{name, el.Value, adj.DAbs, fd})
		denom = math.Max(denom, math.Max(math.Abs(el.Value*adj.DAbs), math.Abs(el.Value*fd)))
	}
	res.Pass = true
	for _, p := range pairs {
		rel := math.Abs(p.value*p.adj-p.value*p.fd) / denom
		res.Sens = append(res.Sens, ACSens{Name: p.name, Value: p.value, Adjoint: p.adj, FD: p.fd, RelErr: rel})
		if rel > res.WorstRel {
			res.WorstRel, res.Worst = rel, p.name
		}
		if rel > acTol {
			res.Pass = false
		}
	}
	return res
}

// fdSens computes d|Z|/d(value) of element k by Richardson-extrapolated
// central differences: D = (4·D(h/2) − D(h))/3 cancels the O(h²) term,
// leaving O(h⁴) truncation. spread = |D(h) − D(h/2)| is the extrapolation
// input disagreement, the generator's handle on FD conditioning.
func (pt ACPoint) fdSens(k int) (fd, spread float64, err error) {
	diff := func(h float64) (float64, error) {
		up, err := pt.absZAt(k, h)
		if err != nil {
			return 0, err
		}
		dn, err := pt.absZAt(k, -h)
		if err != nil {
			return 0, err
		}
		return (up - dn) / (2 * h * pt.Elems[k].Value), nil
	}
	d1, err := diff(fdH)
	if err != nil {
		return 0, 0, err
	}
	d2, err := diff(fdH / 2)
	if err != nil {
		return 0, 0, err
	}
	return (4*d2 - d1) / 3, math.Abs(d1 - d2), nil
}

// GenerateAC draws the AC design point for one (seed, index) pair,
// rejection sampling until the point is inside the oracle's validity
// envelope (see validAC). The same (seed, index) always yields the same
// point, independent of worker count.
func GenerateAC(seed int64, index int) (pt ACPoint, ok bool) {
	r := newRNG(^seed, index) // distinct stream family from the SSN generator
	for try := 0; try < maxGenTries; try++ {
		pt = drawAC(r)
		if validAC(pt) {
			return pt, true
		}
	}
	return ACPoint{}, false
}

// drawAC samples one candidate grid: a ladder spine from the observation
// node (series R/L between neighbors, shunt element per node) plus a few
// random cross elements, with log-uniform values spanning board-to-die
// scales and a log-uniform frequency.
func drawAC(r *rng) ACPoint {
	n := 2 + int(r.next()%6) // 2..7 nodes
	pt := ACPoint{Nodes: n, Obs: 1, Freq: r.logIn(1e5, 1e10)}
	value := func(kind string) float64 {
		switch kind {
		case "R":
			return r.logIn(1e-2, 1e3)
		case "L":
			return r.logIn(1e-11, 1e-6)
		default:
			return r.logIn(1e-14, 1e-9)
		}
	}
	pick := func(kinds ...string) string { return kinds[r.next()%uint64(len(kinds))] }
	for i := 1; i <= n; i++ {
		if i < n {
			k := pick("R", "L", "R") // series spine favors R to keep Q moderate
			pt.Elems = append(pt.Elems, ACElem{Kind: k, N1: i, N2: i + 1, Value: value(k)})
		}
		k := pick("C", "C", "R")
		pt.Elems = append(pt.Elems, ACElem{Kind: k, N1: i, N2: 0, Value: value(k)})
	}
	for extra := int(r.next() % 3); extra > 0; extra-- {
		a, b := 1+int(r.next()%uint64(n)), int(r.next()%uint64(n+1))
		if a == b {
			continue
		}
		k := pick("R", "L", "C")
		pt.Elems = append(pt.Elems, ACElem{Kind: k, N1: a, N2: b, Value: value(k)})
	}
	return pt
}

// fdSpreadScreen bounds |D(h) − D(h/2)| relative to the comparison
// denominator during generation. The spread is (3/4)·a·h² for curvature
// coefficient a, and higher-order terms shrink by at least (Qh)² ≲ 1e-3
// past it, so a 3e-5 spread leaves the extrapolated value's truncation
// under ~1e-7 — an order below the 1e-6 band.
const fdSpreadScreen = 3e-5

// validAC screens candidates for conditioning, not correctness: |Z| must be
// solvable and in a physically sane range, the point must sit away from
// razor-sharp resonances (probed by the log-|Z| slope against a frequency
// nudge at the FD step scale), and the FD reference itself must be
// converged — the two Richardson inputs D(h), D(h/2) must already agree to
// fdSpreadScreen for every element. The last check is deliberately a
// self-consistency test of the FD side only, so it cannot mask an adjoint
// bug. A rejected point is not a bug; it is a point where FD (the
// reference, not the engine) cannot certify 1e-6.
func validAC(pt ACPoint) bool {
	mid, err := pt.absZAt(-1, 0)
	if err != nil || mid < 1e-6 || mid > 1e9 || math.IsNaN(mid) || math.IsInf(mid, 0) {
		return false
	}
	probe := pt
	probe.Freq = pt.Freq * (1 + fdH)
	up, err := probe.absZAt(-1, 0)
	if err != nil {
		return false
	}
	probe.Freq = pt.Freq * (1 - fdH)
	dn, err := probe.absZAt(-1, 0)
	if err != nil {
		return false
	}
	// Slope and curvature of log|Z| against a 0.1% frequency nudge; element
	// perturbations move |Z| dominantly through the same resonance
	// mechanism, so this cheaply rejects the worst of the sharp points
	// before the per-element screen below spends solves on them.
	if math.Abs(math.Log(up/mid)) > 0.02 || math.Abs(math.Log(dn/mid)) > 0.02 {
		return false
	}
	if math.Abs(math.Log(up*dn/(mid*mid))) > 2e-4 {
		return false
	}
	// Per-element FD convergence, judged in the same ∞-norm the check uses:
	// all spreads against the point's largest FD influence.
	spreads := make([]float64, len(pt.Elems))
	denom := acInfluenceFloor * mid
	for k, el := range pt.Elems {
		fd, spread, err := pt.fdSens(k)
		if err != nil {
			return false
		}
		spreads[k] = el.Value * spread
		denom = math.Max(denom, math.Abs(el.Value*fd))
	}
	for _, s := range spreads {
		if s > fdSpreadScreen*denom {
			return false
		}
	}
	return true
}

// acCampaign is the adjoint vs finite-difference oracle's campaign.
var acCampaign = campaign[ACPoint, ACResult, *ACResult]{
	title:    "ac oracle campaign",
	prefix:   "ac",
	generate: GenerateAC,
	checker: func() func(ACPoint) ACResult {
		return func(pt ACPoint) ACResult {
			res := CheckAC(pt)
			res.Sens = nil // per-element detail is noise at campaign scale
			return res
		}
	},
	schedule: acSchedule,
}

// acSchedule is the shrink schedule of both AC oracles: drop elements,
// last first so the indices of earlier ones stay put, then round each
// surviving value and the frequency to 3 significant digits.
func acSchedule(pt ACPoint) []edit[ACPoint] {
	var sched []edit[ACPoint]
	for k := len(pt.Elems) - 1; k >= 0; k-- {
		sched = append(sched, func(p ACPoint) (ACPoint, bool) {
			if k >= len(p.Elems) {
				return p, false
			}
			p.Elems = append(append([]ACElem(nil), p.Elems[:k]...), p.Elems[k+1:]...)
			return p, true
		})
	}
	for k := range pt.Elems {
		sched = append(sched, func(p ACPoint) (ACPoint, bool) {
			if k >= len(p.Elems) || roundSig(p.Elems[k].Value, 3) == p.Elems[k].Value {
				return p, false
			}
			p.Elems = append([]ACElem(nil), p.Elems...)
			p.Elems[k].Value = roundSig(p.Elems[k].Value, 3)
			return p, true
		})
	}
	return append(sched, func(p ACPoint) (ACPoint, bool) {
		f := roundSig(p.Freq, 3)
		ok := f != p.Freq
		p.Freq = f
		return p, ok
	})
}
