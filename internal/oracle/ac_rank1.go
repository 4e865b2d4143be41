package oracle

import (
	"fmt"
	"math"
	"math/cmplx"

	"ssnkit/internal/pkgmodel"
	"ssnkit/internal/spice"
)

// The rank-1 update oracle checks the prediction the decap optimizer's
// trial screen rests on (pdn.trialScreen, DESIGN.md §16): a series R–C
// shunt added at one mesh node is a rank-1 change of the PDN's MNA matrix,
// so spice.ACFactor.ShuntRC predicts the new impedance from the old
// factorization by Sherman–Morrison. The reference is a fresh engine
// compiled from the grid with the shunt actually placed as a decap site,
// on the backend production picks for it, so the two computations share
// only the netlist synthesis: the reference factors a different matrix
// (one more node, a different ordering, dense below 40 unknowns) and never
// eliminates anything by hand.

// rank1Tol is the agreement band between the update and the fresh engine,
// as |Z'_update − Z'_fresh| / max(|Z|, |Z'_fresh|) with Z the impedance
// before the shunt. The screen rejects a trial only when a prediction
// clears the current peak, which is at least |Z|, by a margin δ = 1e-5;
// this band is a thousandth of δ, so a point that passes cannot flip a
// screen decision. The scale is the larger of the two impedances because
// where a shunt shorts the node the update cancels most of |Z|: the
// relative error of the small |Z'| grows (1.07e-8 for a 25 µΩ, 6.3 µF
// shunt at the observation node) while the screen never rejects there.
// The worst disagreement seen on this scale is 8.7e-10 over 3000 campaign
// points (seed 18), pinned as a fuzz corpus entry.
const rank1Tol = 1e-8

// rank1SpreadMax bounds how far two fresh factorizations of the modified
// grid (the production backend and the pivoted sparse LU) may disagree,
// on rank1Tol's scale, for a point to be checked at all. Where a pF shunt
// series-resonates with the mesh inductance at its node, Q reaches 1e5
// and more and the two references drift apart by up to 3.4e-9 (6 of
// 3000 campaign points); no reference certifies the band there, so such
// points are Skipped, as the AC oracles skip points outside their
// reference's domain.
const rank1SpreadMax = rank1Tol / 10

// Rank1Point is one randomized rank-1 case: a catalog PDN grid, a shunt of
// resistance R in series with capacitance C from mesh node Node to
// ground, an analysis frequency and the engine's Gmin. It is the JSON
// shape of rank-1 repros.
type Rank1Point struct {
	Package string  `json:"package"`
	Rows    int     `json:"rows"`
	Cols    int     `json:"cols"`
	Pads    int     `json:"pads"`
	Node    int     `json:"node"` // mesh node id, row-major
	R       float64 `json:"r"`    // Ω
	C       float64 `json:"c"`    // F
	Freq    float64 `json:"freq"` // Hz
	Gmin    float64 `json:"gmin"` // S, on every node
}

func (pt Rank1Point) String() string {
	return fmt.Sprintf("%s %dx%d pads=%d node=%d R=%.4g C=%.4g f=%.6g gmin=%.3g",
		pt.Package, pt.Rows, pt.Cols, pt.Pads, pt.Node, pt.R, pt.C, pt.Freq, pt.Gmin)
}

// grid builds the point's PDN grid without the shunt.
func (pt Rank1Point) grid() (*pkgmodel.PDNGrid, error) {
	pkg, err := pkgmodel.ByName(pt.Package)
	if err != nil {
		return nil, err
	}
	if pt.Rows < 1 || pt.Cols < 1 || pt.Pads < 1 || pt.Node < 0 || pt.Node >= pt.Rows*pt.Cols {
		return nil, fmt.Errorf("oracle: rank-1 point %s has a bad mesh or node", pt)
	}
	if !(pt.R > 0) || !(pt.C > 0) || !(pt.Freq > 0) || pt.Gmin < 0 {
		return nil, fmt.Errorf("oracle: rank-1 point %s has a bad value", pt)
	}
	return pkgmodel.DefaultPDN(pkg, pt.Rows, pt.Cols, pt.Pads), nil
}

// Rank1Result is the outcome of one rank-1 check. Skipped marks a point
// whose Spread is above rank1SpreadMax.
type Rank1Result struct {
	verdict
	Point    Rank1Point `json:"-"`        // a repro file's own "point" field
	Unknowns int        `json:"unknowns"` // MNA size before the shunt
	Update   complex128 `json:"-"`        // Sherman–Morrison prediction
	Fresh    complex128 `json:"-"`        // fresh engine on the modified grid
	RelErr   float64    `json:"rel_err"`  // on the scale of rank1Tol
	Spread   float64    `json:"spread"`   // fresh vs pivoted reference, same scale
}

func (r Rank1Result) String() string {
	return fmt.Sprintf("%s rel=%.3g spread=%.3g tol=%.3g n=%d %s",
		r.status(), r.RelErr, r.Spread, rank1Tol, r.Unknowns, r.Point)
}

// Rank-1 points are tallied on either side of the 40-unknown threshold
// where production switches from the dense to the symbolic engine.
const (
	rank1Small = "below 40 unknowns"
	rank1Large = "40+ unknowns"
)

func (r Rank1Result) tally() (string, float64) {
	if r.Unknowns < 40 {
		return rank1Small, r.RelErr
	}
	return rank1Large, r.RelErr
}

// rank1Campaign is the rank-1 update oracle's campaign.
var rank1Campaign = campaign[Rank1Point, Rank1Result, *Rank1Result]{
	title:  "rank-1 update campaign",
	prefix: "rank1",
	generate: func(seed int64, index int) (Rank1Point, bool) {
		return GenerateRank1(seed, index), true
	},
	checker:  func() func(Rank1Point) Rank1Result { return CheckRank1 },
	schedule: rank1Schedule,
}

// CheckRank1 compares the rank-1 update against a fresh factorization for
// one point. The update runs on a symbolic engine of the unmodified grid,
// forced even below the 40-unknown threshold where production would pick
// the dense engine, so small meshes exercise the same update code. A
// second, pivoted fresh engine measures the reference's own spread.
func CheckRank1(pt Rank1Point) Rank1Result {
	res := Rank1Result{Point: pt}
	grid, err := pt.grid()
	if err != nil {
		res.Err = err
		return res
	}
	ckt, obs, err := grid.Build()
	if err != nil {
		res.Err = err
		return res
	}
	eng, err := spice.NewAC(ckt, spice.ACOptions{Gmin: pt.Gmin, Backend: spice.ACSymbolic})
	if err != nil {
		res.Err = err
		return res
	}
	res.Unknowns = eng.NumUnknowns()
	w := 2 * math.Pi * pt.Freq
	var f spice.ACFactor
	ok, err := eng.Snapshot(w, obs, &f)
	if err != nil {
		res.Err = err
		return res
	}
	if !ok {
		res.Err = fmt.Errorf("oracle: no snapshot at f=%g (pivoted fallback)", pt.Freq)
		return res
	}
	if res.Update, err = f.ShuntRC(ckt.LookupNode(grid.NodeName(pt.Node)), pt.R, pt.C); err != nil {
		res.Err = err
		return res
	}
	grid.DecapSites = append(grid.DecapSites, pkgmodel.DecapSite{Node: pt.Node, C: pt.C, ESR: pt.R})
	fresh := func(backend spice.ACBackend) (complex128, error) {
		mod, mobs, err := grid.Build()
		if err != nil {
			return 0, err
		}
		e, err := spice.NewAC(mod, spice.ACOptions{Gmin: pt.Gmin, Backend: backend})
		if err != nil {
			return 0, err
		}
		return e.Impedance(w, mobs)
	}
	if res.Fresh, err = fresh(spice.ACAuto); err != nil {
		res.Err = err
		return res
	}
	pivoted, err := fresh(spice.ACSparse)
	if err != nil {
		res.Err = err
		return res
	}
	scale := math.Max(cmplx.Abs(f.Z()), cmplx.Abs(res.Fresh))
	res.RelErr = cmplx.Abs(res.Update-res.Fresh) / scale
	res.Spread = cmplx.Abs(pivoted-res.Fresh) / scale
	switch {
	case !(res.Spread <= rank1SpreadMax):
		res.Skipped = true
		res.Detail = fmt.Sprintf("fresh %v vs pivoted %v: the reference is not certain to the band", res.Fresh, pivoted)
	case !(res.RelErr <= rank1Tol):
		res.Detail = fmt.Sprintf("update %v vs fresh %v", res.Update, res.Fresh)
	default:
		res.Pass = true
	}
	return res
}

// GenerateRank1 draws the index-th point of a seeded rank-1 campaign:
// meshes from 2x2 (below the dense/symbolic threshold) to 8x8, shunts of
// 100 µΩ to 10 Ω and 1 pF to 100 µF, Gmin off or up to 1 µS, and half the
// frequencies within ±1% of the unmodified grid's anti-resonance peak,
// where |Z| is largest and the update cancels hardest.
func GenerateRank1(seed int64, index int) Rank1Point {
	r := newRNG(seed^0x52414e4b31, index) // distinct stream family
	cat := pkgmodel.Catalog()
	pt := Rank1Point{
		Package: cat[r.next()%uint64(len(cat))].Name,
		Rows:    2 + int(r.next()%7),
		Cols:    2 + int(r.next()%7),
		Pads:    1 + int(r.next()%8),
		R:       r.logIn(1e-4, 10),
		C:       r.logIn(1e-12, 1e-4),
		Freq:    r.logIn(1e6, 1e10),
	}
	pt.Node = int(r.next() % uint64(pt.Rows*pt.Cols))
	if r.next()%2 == 0 {
		pt.Gmin = r.logIn(1e-12, 1e-6)
	}
	if r.next()%2 == 0 {
		if f, ok := peakFreq(pt); ok {
			pt.Freq = f * r.in(0.99, 1.01)
		}
	}
	return pt
}

// peakFreq locates the unmodified grid's |Z| peak over 1 MHz-10 GHz: the
// largest of 60 log-spaced samples, refined by golden-section search in
// log f between its neighbors.
func peakFreq(pt Rank1Point) (float64, bool) {
	grid, err := pt.grid()
	if err != nil {
		return 0, false
	}
	ckt, obs, err := grid.Build()
	if err != nil {
		return 0, false
	}
	eng, err := spice.NewAC(ckt, spice.ACOptions{Gmin: pt.Gmin})
	if err != nil {
		return 0, false
	}
	freqs, err := spice.FreqGrid(1e6, 1e10, 60, true)
	if err != nil {
		return 0, false
	}
	absAt := func(f float64) float64 {
		z, err := eng.Impedance(2*math.Pi*f, obs)
		if err != nil {
			return math.NaN()
		}
		return math.Hypot(real(z), imag(z))
	}
	best, bestAbs := 0, -1.0
	for i, f := range freqs {
		if a := absAt(f); a > bestAbs {
			best, bestAbs = i, a
		}
	}
	la := math.Log(freqs[max(best-1, 0)])
	lb := math.Log(freqs[min(best+1, len(freqs)-1)])
	for it := 0; it < 40; it++ {
		c, d := la+(lb-la)*0.382, la+(lb-la)*0.618
		if absAt(math.Exp(c)) > absAt(math.Exp(d)) {
			lb = d
		} else {
			la = c
		}
	}
	return math.Exp((la + lb) / 2), true
}

// rank1Schedule is the rank-1 oracle's shrink schedule: Gmin off, a
// smaller mesh (the node folded back into range), fewer pads, then values
// rounded to three significant digits.
func rank1Schedule(Rank1Point) []edit[Rank1Point] {
	return []edit[Rank1Point]{
		change(func(p *Rank1Point) { p.Gmin = 0 }),
		change(func(p *Rank1Point) { p.Rows = max(p.Rows-1, 1); p.Node %= p.Rows * p.Cols }),
		change(func(p *Rank1Point) { p.Cols = max(p.Cols-1, 1); p.Node %= p.Rows * p.Cols }),
		change(func(p *Rank1Point) { p.Pads = max(p.Pads-1, 1) }),
		change(func(p *Rank1Point) { p.R = roundSig(p.R, 3) }),
		change(func(p *Rank1Point) { p.C = roundSig(p.C, 3) }),
		change(func(p *Rank1Point) { p.Freq = roundSig(p.Freq, 3) }),
		change(func(p *Rank1Point) { p.Gmin = roundSig(p.Gmin, 3) }),
	}
}
