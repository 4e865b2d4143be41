package spice

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"slices"

	"ssnkit/internal/circuit"
	"ssnkit/internal/linalg"
)

// ACBackend selects the factorization strategy of an ACEngine.
type ACBackend int

// Backend choices. The zero value picks automatically: dense below
// sparseThreshold (the bit-reference), the symbolic/numeric split above
// it when the pattern permits static pivoting, and the pivoted sparse
// path otherwise.
const (
	ACAuto ACBackend = iota
	// ACDense forces the pivoted dense LU backend regardless of size.
	ACDense
	// ACSparse forces the pivoted sparse LU backend.
	ACSparse
	// ACSymbolic forces the symbolic/numeric split backend; NewAC fails
	// when the circuit's pattern requires pivoting (voltage sources).
	ACSymbolic
)

// ACOptions configures an ACEngine.
type ACOptions struct {
	// Gmin is a shunt conductance added from every node to ground. It
	// defaults to zero: PDN grids are well connected (every node reaches
	// ground through a capacitor), and at a parallel-resonance peak
	// |Z| ~ L/(R·C) can reach 1e5..1e6 ohm, where even a 1e-12 S shunt
	// would perturb |Z| at the 1e-7 level — far above the 1e-10 accuracy
	// the golden tests demand. Set it only for circuits with genuinely
	// floating nodes.
	Gmin float64
	// Backend overrides the factorization strategy (see ACBackend).
	Backend ACBackend
}

// acRes etc. are the AC stamp records: node indices are circuit node
// numbers (0 = ground), br is the branch-unknown slot.
type acRes struct {
	name   string
	n1, n2 int
	r      float64
}

type acCap struct {
	name   string
	n1, n2 int
	c      float64
}

type acInd struct {
	name   string
	n1, n2 int
	br     int
	l      float64
}

type acVsrc struct {
	np, nn int
	br     int
}

type acMut struct {
	a, b int     // branch unknowns of the coupled inductors
	m    float64 // M = K*sqrt(La*Lb)
}

// acActive labels which backend produced the engine's current
// factorization, so the solve dispatch follows the factor dispatch even
// when a per-frequency fallback intervenes.
type acActive byte

const (
	acViaNone acActive = iota
	acViaPlan
	acViaLegacy
)

// acPlan is the two-phase stamp plan of the symbolic backend. The
// frequency-invariant operands are separated once per circuit and laid
// out in the factor's slot order (zero at fill slots): g[t] holds every
// real contribution to slot t (conductances 1/R, Gmin, branch-incidence
// ±1) and c[t] every coefficient of ω in the imaginary part (+C and −C
// couplings, −L branch diagonals, −M mutual cross terms). Loading G + jωC
// at a frequency is then one pass over the factor storage — no stamping,
// no scatter, no allocation — followed by a numeric Refactor in place.
type acPlan struct {
	lu *linalg.CSymbolicLU
	g  []float64
	c  []float64
}

// load writes G + jωC into lu's factor storage, every slot included. The
// 0+ on each part keeps the bits of clearing a slot to +0 and then adding
// its value: it turns a −0 operand (−L·0 at ω = 0, a −0 stamp) into +0.
func (p *acPlan) load(lu *linalg.CSymbolicLU, omega float64) {
	vals, c := lu.Values()[:len(p.g)], p.c[:len(p.g)]
	for t, g := range p.g {
		vals[t] = complex(0+g, 0+omega*c[t])
	}
}

// stamps enumerates every element's matrix contributions in stamp order:
// Gmin, resistors, capacitors (zero capacitance stamps nothing),
// inductors, mutuals, voltage sources. It is the one place AC elements
// become matrix entries; the stamp plan merges the list and the pivoted
// backends replay it (factorAt), so every backend loads the same matrix.
func (e *ACEngine) stamps() []triplet {
	// At most one triplet per stamp entry below.
	size := 4*(len(e.res)+len(e.caps)+len(e.vsrc)) + 5*len(e.inds) + 2*len(e.muts)
	if e.opts.Gmin > 0 {
		size += e.nNodes - 1
	}
	tr := make(triplets, 0, size)
	if g := e.opts.Gmin; g > 0 {
		for node := 1; node < e.nNodes; node++ {
			tr.add(slotOf(node), slotOf(node), g, 0)
		}
	}
	for _, r := range e.res {
		tr.pair(slotOf(r.n1), slotOf(r.n2), 1/r.r, 0)
	}
	for _, c := range e.caps {
		if c.c != 0 {
			tr.pair(slotOf(c.n1), slotOf(c.n2), 0, c.c)
		}
	}
	for _, l := range e.inds {
		tr.branch(slotOf(l.n1), slotOf(l.n2), l.br)
		tr.add(l.br, l.br, 0, -l.l)
	}
	for _, mu := range e.muts {
		tr.add(mu.a, mu.b, 0, -mu.m)
		tr.add(mu.b, mu.a, 0, -mu.m)
	}
	for _, v := range e.vsrc {
		tr.branch(slotOf(v.np), slotOf(v.nn), v.br)
	}
	return tr
}

// buildPlan compiles the engine's stamp list into a stamp plan: the
// merged CSR pattern is handed to the symbolic analysis, and the merged
// operands are laid out in its factor slots. Returns
// linalg.ErrNeedsPivoting (via the analysis) for patterns with
// structurally zero diagonals, e.g. any circuit containing voltage
// sources.
func (e *ACEngine) buildPlan() (*acPlan, error) {
	tr := e.stamps()
	rowPtr, colIdx, slot := mergeStamps(tr, e.n)
	lu, err := linalg.NewCSymbolicLU(rowPtr, colIdx)
	if err != nil {
		return nil, err
	}
	g, c := make([]float64, len(colIdx)), make([]float64, len(colIdx))
	for k, t := range tr {
		g[slot[k]] += t.g
		c[slot[k]] += t.c
	}
	p := &acPlan{lu: lu}
	if p.g, err = lu.Layout(g); err != nil {
		return nil, err
	}
	if p.c, err = lu.Layout(c); err != nil {
		return nil, err
	}
	return p, nil
}

// ensureLegacy sets up the pivoted backend on first need: the stamp list,
// the backend pivoted builds for it, and the value array the stamps add
// into. Engines that run on the stamp plan call it only when a static
// pivot cancels, so they keep no stamp list until then.
func (e *ACEngine) ensureLegacy(dense bool) {
	if e.legacy != nil {
		return
	}
	e.replay = e.stamps()
	var size int
	e.legacy, size, e.pos = pivoted[complex128](e.replay, e.n, dense)
	e.vals = make([]complex128, size)
}

// SensKind labels which parameter a sensitivity entry differentiates by.
type SensKind byte

// Sensitivity parameter kinds.
const (
	SensR SensKind = 'R'
	SensL SensKind = 'L'
	SensC SensKind = 'C'
)

// SensEntry is one adjoint sensitivity: the derivative of the observed
// impedance with respect to one element value at the solved frequency.
type SensEntry struct {
	Name  string
	Kind  SensKind
	Value float64    // element value the derivative is taken at
	DZ    complex128 // dZ/d(value)
	DAbs  float64    // d|Z|/d(value)
}

// ACEngine performs small-signal frequency-domain analysis of a linear
// R/L/C/K circuit by complex-valued MNA. Voltage sources are AC shorts and
// current sources AC opens, so the engine answers the PDN question directly:
// inject a unit AC current at a node, read the node voltage as Z(jω).
//
// The MNA matrix it assembles is complex-symmetric by construction (every
// two-terminal stamp is a symmetric rank-one update; inductor and source
// incidence rows mirror their columns; mutual cross-terms come in pairs), a
// property the adjoint solve exploits and the tests assert.
//
// An engine is not safe for concurrent use; create one per goroutine. All
// per-frequency workspace is retained, so a sweep restamps and refactors
// without allocating.
type ACEngine struct {
	ckt  *circuit.Circuit
	opts ACOptions

	nNodes int // circuit nodes including ground
	n      int // unknowns: (nNodes-1) node voltages + branch currents

	res  []acRes
	caps []acCap
	inds []acInd
	vsrc []acVsrc
	muts []acMut

	rhs    []complex128
	x      []complex128              // forward solution of the last solve
	lam    []complex128              // adjoint solution of the last ImpedanceSens
	legacy linalg.Solver[complex128] // pivoted LU on vals; nil until needed (ensureLegacy)
	replay []triplet                 // stamp list the pivoted backend loads at each ω
	pos    []int32                   // slot in vals of each replay stamp
	vals   []complex128              // the pivoted backend's matrix values
	plan   *acPlan                   // two-phase stamp plan; nil when the backend is legacy-only
	active acActive                  // backend holding the current factorization

	stampOmega float64 // frequency the current factorization is valid for
	stampOK    bool

	lastObs   int        // observation node of the last ImpedanceSens
	lastZ     complex128 // impedance of the last ImpedanceSens
	adjointOK bool
}

// NewAC compiles a circuit for AC analysis. Only linear elements are
// supported: resistors, capacitors, inductors, mutual coupling, and
// independent sources (shorted/opened). MOSFETs and transmission lines are
// rejected — linearize or reduce them before asking frequency-domain
// questions.
func NewAC(ckt *circuit.Circuit, opts ACOptions) (*ACEngine, error) {
	if opts.Gmin < 0 {
		return nil, fmt.Errorf("spice: negative Gmin %g", opts.Gmin)
	}
	e := &ACEngine{ckt: ckt, opts: opts, nNodes: ckt.NumNodes()}
	// Size the element records up front; appending would allocate each
	// list several times over on a large mesh.
	var nRes, nCap, nInd, nV int
	for _, el := range ckt.Elements {
		switch el.(type) {
		case *circuit.Resistor:
			nRes++
		case *circuit.Capacitor:
			nCap++
		case *circuit.Inductor:
			nInd++
		case *circuit.VSource:
			nV++
		}
	}
	e.res, e.caps = make([]acRes, 0, nRes), make([]acCap, 0, nCap)
	e.inds, e.vsrc = make([]acInd, 0, nInd), make([]acVsrc, 0, nV)
	br := e.nNodes - 1 // branch unknowns appended after node voltages
	for _, el := range ckt.Elements {
		switch c := el.(type) {
		case *circuit.Resistor:
			if c.Ohms <= 0 {
				return nil, fmt.Errorf("spice: AC resistor %s: non-positive resistance %g", c.Name, c.Ohms)
			}
			e.res = append(e.res, acRes{name: c.Name, n1: c.N1, n2: c.N2, r: c.Ohms})
		case *circuit.Capacitor:
			if c.Farads < 0 {
				return nil, fmt.Errorf("spice: AC capacitor %s: negative capacitance %g", c.Name, c.Farads)
			}
			// Zero capacitance is allowed (it stamps nothing): the decap
			// optimizer evaluates gradients at empty candidate sites.
			e.caps = append(e.caps, acCap{name: c.Name, n1: c.N1, n2: c.N2, c: c.Farads})
		case *circuit.Inductor:
			if c.Henrys <= 0 {
				return nil, fmt.Errorf("spice: AC inductor %s: non-positive inductance %g", c.Name, c.Henrys)
			}
			e.inds = append(e.inds, acInd{name: c.Name, n1: c.N1, n2: c.N2, br: br, l: c.Henrys})
			br++
		case *circuit.VSource:
			e.vsrc = append(e.vsrc, acVsrc{np: c.Np, nn: c.Nn, br: br})
			br++
		case *circuit.ISource:
			// AC open: contributes nothing to the small-signal system.
		case *circuit.Mutual:
			// Resolved after the loop once both inductors exist.
		default:
			return nil, fmt.Errorf("spice: AC analysis does not support element type %T", el)
		}
	}
	for _, el := range ckt.Elements {
		mu, ok := el.(*circuit.Mutual)
		if !ok {
			continue
		}
		find := func(name string) *acInd {
			for i := range e.inds {
				if equalFold(e.inds[i].name, name) {
					return &e.inds[i]
				}
			}
			return nil
		}
		a, b := find(mu.L1), find(mu.L2)
		if a == nil || b == nil {
			return nil, fmt.Errorf("spice: mutual %s references unknown inductor", mu.Name)
		}
		e.muts = append(e.muts, acMut{a: a.br, b: b.br, m: mu.K * math.Sqrt(a.l*b.l)})
	}
	e.n = br
	if e.n == 0 {
		return nil, fmt.Errorf("spice: AC circuit %q has no unknowns", ckt.Title)
	}
	e.rhs = make([]complex128, e.n)
	e.x = make([]complex128, e.n)
	e.lam = make([]complex128, e.n)
	switch opts.Backend {
	case ACDense:
		e.ensureLegacy(true)
	case ACSparse:
		e.ensureLegacy(false)
	case ACSymbolic:
		plan, err := e.buildPlan()
		if err != nil {
			return nil, fmt.Errorf("spice: symbolic AC backend unavailable for %q: %w", ckt.Title, err)
		}
		e.plan = plan
	case ACAuto:
		if e.n < sparseThreshold {
			// Small systems stay on the dense bit-reference; the
			// single-frequency stampOmega cache is the degenerate reuse.
			e.ensureLegacy(true)
			break
		}
		plan, err := e.buildPlan()
		switch {
		case err == nil:
			e.plan = plan
		case errors.Is(err, linalg.ErrNeedsPivoting):
			// Voltage sources (or other structurally zero diagonals):
			// keep the pivoted sparse path.
			e.ensureLegacy(false)
		default:
			return nil, fmt.Errorf("spice: AC symbolic analysis for %q: %w", ckt.Title, err)
		}
	default:
		return nil, fmt.Errorf("spice: unknown AC backend %d", opts.Backend)
	}
	return e, nil
}

// NumUnknowns reports the size of the complex MNA system.
func (e *ACEngine) NumUnknowns() int { return e.n }

// NodeIndex resolves a node name to its circuit index, or -1.
func (e *ACEngine) NodeIndex(name string) int { return e.ckt.LookupNode(name) }

// slotOf maps a circuit node to its unknown index, or -1 for ground.
func slotOf(node int) int { return node - 1 }

// factorAt assembles and factors the complex MNA matrix at angular
// frequency omega, reusing the existing factorization when omega is
// unchanged since the last call.
//
// With a stamp plan the assembly is the zero-allocation load of
// complex(g[t], ω·c[t]) into every factor slot followed by a numeric
// refactor in place. A pivot that cancels exactly under the
// static ordering falls back to the pivoted legacy path for that
// frequency (allocated on first need); the plan is retried at the next
// frequency, where the cancellation generically disappears.
//
// Off the plan the stamp list is replayed, unmerged and in stamp order,
// into the pivoted backend's cleared value array: each stamp adds
// complex(g, ω·c) into its slot, so every entry holds the bits of
// accumulating each element's admittance into a zeroed matrix.
func (e *ACEngine) factorAt(omega float64) error {
	if e.stampOK && omega == e.stampOmega {
		return nil
	}
	e.stampOK = false
	e.adjointOK = false
	if omega < 0 || math.IsNaN(omega) || math.IsInf(omega, 0) {
		return fmt.Errorf("spice: bad AC angular frequency %g", omega)
	}
	if p := e.plan; p != nil {
		p.load(p.lu, omega)
		err := p.lu.Refactor()
		if err == nil {
			e.active = acViaPlan
			e.stampOmega = omega
			e.stampOK = true
			return nil
		}
		if !errors.Is(err, linalg.ErrSingular) || e.opts.Backend == ACSymbolic {
			return fmt.Errorf("spice: AC refactor at omega=%g: %w", omega, err)
		}
		e.ensureLegacy(false)
	}
	clear(e.vals)
	for k, t := range e.replay {
		e.vals[e.pos[k]] += complex(t.g, omega*t.c)
	}
	e.active = acViaLegacy
	if err := e.legacy.Factor(e.vals); err != nil {
		e.active = acViaNone
		return fmt.Errorf("spice: AC factorization at omega=%g: %w", omega, err)
	}
	e.stampOmega = omega
	e.stampOK = true
	return nil
}

func (e *ACEngine) solveRHS(b, x []complex128) error {
	switch e.active {
	case acViaPlan:
		return e.plan.lu.Solve(b, x)
	case acViaLegacy:
		return e.legacy.Solve(b, x)
	}
	return fmt.Errorf("spice: AC solve before a successful factorization")
}

func (e *ACEngine) solveT(b, x []complex128) error {
	switch e.active {
	case acViaPlan:
		return e.plan.lu.SolveT(b, x)
	case acViaLegacy:
		return e.legacy.SolveT(b, x)
	}
	return fmt.Errorf("spice: AC solve before a successful factorization")
}

// Impedance returns the self-impedance Z(jω) seen looking into the given
// circuit node: the node voltage produced by a unit AC current injection,
// with every voltage source shorted and every current source opened.
// Factorizations are cached per frequency, so Impedance followed by
// ImpedanceSens at the same omega factors once. On the stamp plan only
// the observed entry of the response is solved for
// (linalg.CSymbolicLU.SolveEntry), with the bits of the full solve.
func (e *ACEngine) Impedance(omega float64, node int) (complex128, error) {
	return e.impedance(omega, node, false)
}

// impedance factors at omega and solves for the response to a unit
// current at node. With full set, or off the stamp plan, the whole
// response lands in e.x; otherwise only the node's entry is solved for.
func (e *ACEngine) impedance(omega float64, node int, full bool) (complex128, error) {
	if node <= 0 || node >= e.nNodes {
		return 0, fmt.Errorf("spice: AC observation node %d out of range (1..%d)", node, e.nNodes-1)
	}
	if err := e.factorAt(omega); err != nil {
		return 0, err
	}
	if !full && e.active == acViaPlan {
		return e.plan.lu.SolveEntry(slotOf(node))
	}
	clear(e.rhs)
	e.rhs[slotOf(node)] = 1
	if err := e.solveRHS(e.rhs, e.x); err != nil {
		return 0, err
	}
	return e.x[slotOf(node)], nil
}

// ImpedanceSens computes Z(jω) at the node together with the adjoint
// sensitivities of |Z| with respect to every R, L and C element value.
//
// With A x = b (unit injection) and Z = e_obs^T x, the adjoint λ solves
// A^T λ = e_obs and dZ/dp = -λ^T (∂A/∂p) x — one extra transposed solve
// per frequency regardless of how many parameters are differentiated.
// Because each element touches A through a rank-one (or 2x2 symmetric)
// pattern, each dZ/dp collapses to a product of two or four entries of
// λ and x:
//
//	dZ/dR =  (λ₁-λ₂)(x₁-x₂)/R²   (via conductance g = 1/R)
//	dZ/dC = -jω (λ₁-λ₂)(x₁-x₂)
//	dZ/dL =  jω λ_br x_br         (branch diagonal carries -jωL)
//
// and d|Z|/dp = Re(conj(Z)·dZ/dp)/|Z|.
//
// The returned slice reuses out's backing storage when capacity allows; it
// is valid until the engine is used again.
func (e *ACEngine) ImpedanceSens(omega float64, node int, out []SensEntry) (complex128, []SensEntry, error) {
	z, err := e.impedance(omega, node, true)
	if err != nil {
		return 0, nil, err
	}
	// Adjoint: A^T λ = e_obs. The matrix is complex-symmetric here, so this
	// equals a plain solve — but using the transposed path keeps the method
	// correct for any future non-symmetric stamp and exercises SolveT.
	for i := range e.rhs {
		e.rhs[i] = 0
	}
	e.rhs[slotOf(node)] = 1
	if err := e.solveT(e.rhs, e.lam); err != nil {
		return 0, nil, err
	}
	e.lastObs = node
	e.lastZ = z
	e.adjointOK = true

	out = out[:0]
	absZ := cmplx.Abs(z)
	dAbs := func(dz complex128) float64 {
		if absZ == 0 {
			return 0
		}
		return (real(z)*real(dz) + imag(z)*imag(dz)) / absZ
	}
	diff := func(v []complex128, n1, n2 int) complex128 {
		var d complex128
		if i := slotOf(n1); i >= 0 {
			d = v[i]
		}
		if j := slotOf(n2); j >= 0 {
			d -= v[j]
		}
		return d
	}
	jw := complex(0, omega)
	for _, r := range e.res {
		dz := diff(e.lam, r.n1, r.n2) * diff(e.x, r.n1, r.n2) / complex(r.r*r.r, 0)
		out = append(out, SensEntry{Name: r.name, Kind: SensR, Value: r.r, DZ: dz, DAbs: dAbs(dz)})
	}
	for _, l := range e.inds {
		dz := jw * e.lam[l.br] * e.x[l.br]
		out = append(out, SensEntry{Name: l.name, Kind: SensL, Value: l.l, DZ: dz, DAbs: dAbs(dz)})
	}
	for _, c := range e.caps {
		dz := -jw * diff(e.lam, c.n1, c.n2) * diff(e.x, c.n1, c.n2)
		out = append(out, SensEntry{Name: c.name, Kind: SensC, Value: c.c, DZ: dz, DAbs: dAbs(dz)})
	}
	return z, out, nil
}

// CapSens returns d|Z|/dC for a virtual capacitor between nodes n1 and n2 —
// the marginal effect of adding capacitance at a site that may hold no
// element yet. Valid only immediately after a successful ImpedanceSens; the
// derivative is taken at the same frequency and observation node.
func (e *ACEngine) CapSens(n1, n2 int) (float64, error) {
	if !e.adjointOK {
		return 0, fmt.Errorf("spice: CapSens requires a preceding ImpedanceSens")
	}
	if n1 < 0 || n1 >= e.nNodes || n2 < 0 || n2 >= e.nNodes {
		return 0, fmt.Errorf("spice: CapSens node pair (%d,%d) out of range", n1, n2)
	}
	var dl, dx complex128
	if i := slotOf(n1); i >= 0 {
		dl, dx = e.lam[i], e.x[i]
	}
	if j := slotOf(n2); j >= 0 {
		dl -= e.lam[j]
		dx -= e.x[j]
	}
	dz := -complex(0, e.stampOmega) * dl * dx
	absZ := cmplx.Abs(e.lastZ)
	if absZ == 0 {
		return 0, nil
	}
	return (real(e.lastZ)*real(dz) + imag(e.lastZ)*imag(dz)) / absZ, nil
}

// ACFactor is a caller-owned snapshot of an engine's factorization at one
// frequency, together with the response to a unit current at one
// observation node. It stays valid while the engine moves on to other
// frequencies, so a caller can hold one circuit's factors at several
// frequencies and ask each of them rank-1 "what if" questions (ShuntRC).
// The zero value is ready to be filled by ACEngine.Snapshot, which reuses
// its storage. An ACFactor is not safe for concurrent use.
type ACFactor struct {
	lu     *linalg.CSymbolicLU
	omega  float64
	gmin   float64
	nNodes int
	obs    int          // unknown index of the observation node
	xObs   []complex128 // A⁻¹ e_obs
}

// Snapshot factors the circuit at omega into dst and solves for the
// response to a unit current at node obs there. dst shares the engine's
// symbolic analysis and reuses its own storage across calls; the engine's
// current factorization is left as it was. Snapshot reports false,
// leaving dst unusable, when the engine has no stamp plan (dense or
// pivoted-sparse backends) or the plan's static pivot cancels at omega,
// where the engine itself would take the pivoted fallback.
func (e *ACEngine) Snapshot(omega float64, obs int, dst *ACFactor) (bool, error) {
	if obs <= 0 || obs >= e.nNodes {
		return false, fmt.Errorf("spice: AC observation node %d out of range (1..%d)", obs, e.nNodes-1)
	}
	if omega < 0 || math.IsNaN(omega) || math.IsInf(omega, 0) {
		return false, fmt.Errorf("spice: bad AC angular frequency %g", omega)
	}
	p := e.plan
	if p == nil {
		return false, nil
	}
	dst.lu = p.lu.Clone(dst.lu)
	p.load(dst.lu, omega)
	if err := dst.lu.Refactor(); err != nil {
		if errors.Is(err, linalg.ErrSingular) {
			return false, nil
		}
		return false, err
	}
	dst.omega, dst.gmin, dst.nNodes, dst.obs = omega, e.opts.Gmin, e.nNodes, slotOf(obs)
	dst.xObs = slices.Grow(dst.xObs[:0], e.n)[:e.n]
	clear(dst.xObs)
	dst.xObs[dst.obs] = 1
	if err := dst.lu.Solve(dst.xObs, dst.xObs); err != nil {
		return false, err
	}
	return true, nil
}

// Z returns the snapshot's impedance at its observation node.
func (f *ACFactor) Z() complex128 { return f.xObs[f.obs] }

// ShuntRC returns the impedance at the observation node after a branch of
// resistance r in series with capacitance c is added from node to ground,
// without refactoring. The branch's internal node carries the engine's
// Gmin like every other node, so eliminating it leaves one shunt
// admittance Y = 1/(r + 1/(jωc + Gmin)) at node, a rank-1 change of the
// MNA matrix, and Sherman–Morrison gives
//
//	Z'_oo = Z_oo − Z_on² / (1/Y + Z_nn)
//
// Z_oo and Z_on = Z_no (the plan's matrices are complex-symmetric) come
// from the cached A⁻¹ e_obs, and Z_nn from one forward substitution
// (linalg.CSymbolicLU.SymInvDiag). Up to rounding this is the impedance a
// fresh engine computes for the modified netlist. For a passive circuit
// Re Z_nn ≥ 0 and Re(1/Y) ≥ r > 0, so the denominator cannot vanish.
func (f *ACFactor) ShuntRC(node int, r, c float64) (complex128, error) {
	if node <= 0 || node >= f.nNodes {
		return 0, fmt.Errorf("spice: shunt node %d out of range (1..%d)", node, f.nNodes-1)
	}
	if !(r > 0) || !(c > 0) {
		return 0, fmt.Errorf("spice: shunt R=%g C=%g must be positive", r, c)
	}
	n := slotOf(node)
	znn, err := f.lu.SymInvDiag(n)
	if err != nil {
		return 0, err
	}
	zon := f.xObs[n]
	zs := complex(r, 0) + 1/complex(f.gmin, f.omega*c) // 1/Y
	return f.xObs[f.obs] - zon*zon/(zs+znn), nil
}
