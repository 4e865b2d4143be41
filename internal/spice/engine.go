// Package spice is ssnkit's circuit simulator — the stand-in for the HSPICE
// runs the paper validates against. It solves circuit.Circuit netlists with
// modified nodal analysis (MNA): node voltages plus branch currents for
// voltage sources and inductors as unknowns, Newton-Raphson iteration with
// damping for the nonlinear MOSFETs, DC operating point with gmin and
// source stepping fallbacks, and transient analysis with trapezoidal
// integration (backward-Euler at breakpoints) on an adaptive grid.
package spice

import (
	"errors"
	"fmt"
	"math"

	"ssnkit/internal/circuit"
	"ssnkit/internal/device"
	"ssnkit/internal/linalg"
)

// Options control solver tolerances and iteration limits. The zero value is
// replaced by SPICE-conventional defaults.
type Options struct {
	RelTol        float64 // relative convergence tolerance (default 1e-4)
	VNTol         float64 // absolute node-voltage tolerance, V (default 1e-6)
	AbsTol        float64 // absolute branch-current tolerance, A (default 1e-12)
	Gmin          float64 // minimum conductance to ground, S (default 1e-12)
	MaxNewton     int     // Newton iterations per solve (default 120)
	MaxHalvings   int     // step halvings on non-convergence; LTE rejects in a row (default 14)
	MaxStepGrowth float64 // factor limiting step regrowth (default 2)
	DampLimit     float64 // largest per-iteration voltage update, V (default 1.0)

	// Adaptive enables local-truncation-error control of the trapezoidal
	// steps, estimated from the third divided difference of the accepted
	// samples at no extra solve. A step above LTETol is retried smaller; an
	// accepted one sets the next, at most MaxStepGrowth times larger and
	// never above TranSpec.Step. The sample history restarts at every
	// source breakpoint, and the two steps after one run uncontrolled.
	Adaptive bool
	// LTETol is the per-step LTE target (default 1e-3). Each component's
	// error is scaled by max(|x|, 1), so the target is relative only where
	// |x| > 1; below that it is an absolute bound in the component's unit
	// (volts for a node voltage), and a millivolt-scale signal needs a
	// proportionally smaller LTETol.
	LTETol float64
}

func (o Options) withDefaults() Options {
	if o.RelTol <= 0 {
		o.RelTol = 1e-4
	}
	if o.VNTol <= 0 {
		o.VNTol = 1e-6
	}
	if o.AbsTol <= 0 {
		o.AbsTol = 1e-12
	}
	if o.Gmin <= 0 {
		o.Gmin = 1e-12
	}
	if o.MaxNewton <= 0 {
		o.MaxNewton = 120
	}
	if o.MaxHalvings <= 0 {
		o.MaxHalvings = 14
	}
	if o.MaxStepGrowth <= 1 {
		o.MaxStepGrowth = 2
	}
	if o.DampLimit <= 0 {
		o.DampLimit = 1.0
	}
	if o.LTETol <= 0 {
		o.LTETol = 1e-3
	}
	return o
}

// ErrNoConvergence reports Newton-Raphson failure after all fallbacks.
var ErrNoConvergence = errors.New("spice: newton iteration failed to converge")

type integMode int

const (
	modeDC integMode = iota // capacitors open, inductors shorted
	modeBE                  // backward Euler with step h
	modeTR                  // trapezoidal with step h
)

// gPin is the stiff Norton conductance used to enforce .IC node voltages
// during the UIC consistency solve — stronger than any companion
// conductance the micro-step produces.
const gPin = 1e8

// compiled element states ---------------------------------------------------

type resStamp struct {
	n1, n2 int
	g      float64
}

type capStamp struct {
	n1, n2     int
	c          float64
	ic         float64
	vOld, iOld float64
}

type indStamp struct {
	n1, n2, br int
	l          float64
	ic         float64
	iOld, vOld float64
	name       string
}

type vsrcStamp struct {
	np, nn, br int
	wave       circuit.Source
	name       string
	// scale < 1 during source stepping
}

type isrcStamp struct {
	np, nn int
	wave   circuit.Source
}

// knownNode is a node whose voltage is pinned exactly by a grounded voltage
// source and eliminated from the unknown vector. A node qualifies when the
// source is its only current-carrying connection — FET gates and bulks are
// infinite-impedance in MNA, so a gate-drive node's KCL row contains nothing
// but the source branch, forcing v(node) = wave and i(source) = 0
// identically. Eliminating both unknowns shrinks every factorization.
type knownNode struct {
	node int
	sign float64 // +1 when the live terminal is np, -1 when nn
	wave circuit.Source
	name string  // the eliminated source's name (for i() outputs and .DC)
	val  float64 // sign * wave.At(t) * srcScale, refreshed per solve
}

type fetStamp struct {
	d, g, s, b int
	model      device.Model
	pch        bool
	name       string

	// Stamp geometry, fixed at New: the unknown slots of the drain and
	// source rows and of the terminals in stamp order g, d, b, s (-1 where
	// the node carries no unknown), the knownNode pinning a terminal, and
	// the value slot of each (row, terminal) matrix entry (-1 where either
	// carries no unknown).
	row   [2]int
	col   [4]int
	known [4]*knownNode
	slot  [2][4]int32

	// Linearization at the current iterate, refreshed by linearizeFET on
	// every assemble and read by the matrix and rhs stamps. v and jac run in
	// stamp order g, d, b, s: the terminal voltages and the partials of the
	// drain-source current id with respect to them, jac[3] =
	// -(jac[0]+jac[1]+jac[2]). The conductances also key factorization
	// reuse; see Engine.matEpoch.
	id     float64
	v, jac [4]float64
}

// fetRowSign is the sign of the companion stamps on the drain row (+) and
// the source row (-): the current leaves d and enters s.
var fetRowSign = [2]float64{1, -1}

type mutualStamp struct {
	a, b *indStamp
	m    float64 // mutual inductance M = K*sqrt(La*Lb), H
}

// Engine simulates one circuit. It is not safe for concurrent use; create
// one engine per goroutine.
type Engine struct {
	ckt  *circuit.Circuit
	opts Options

	nNodes   int // including ground
	nUnknown int

	// Known-node elimination: slot maps a node index to its position in the
	// unknown vector (>= 0), -1 for ground, or -2-k for the node pinned by
	// knowns[k]. Node unknowns occupy slots [0, nodeUnknowns); branch
	// currents follow.
	slot         []int
	nodeUnknowns int
	knowns       []*knownNode

	res    []*resStamp
	caps   []*capStamp
	inds   []*indStamp
	vsrc   []*vsrcStamp
	isrc   []*isrcStamp
	fets   []*fetStamp
	muts   []*mutualStamp
	tlines []*tlineStamp

	// The linear part of the matrix is one stamp list, built in New and
	// replayed by ensureBase into base, the value array of solver (dense
	// row-major below sparseThreshold, the list's CSR pattern above it):
	// stamp k adds into base[pos[k]], and diag[i] is the slot of diagonal
	// entry (i, i). work is base plus the FET companion stamps; nil
	// without FETs, whose base is factored directly.
	stamps     []triplet
	pos, diag  []int32
	base, work []float64
	solver     linalg.Solver[float64]
	fused      *linalg.DenseLU[float64] // the dense solver when work exists, for FactorSolveScratch
	rhs        []float64
	x          []float64 // current solution [v1..v_{n-1}, branch currents]

	// rhsLin caches the iterate-independent rhs contributions (reactive
	// state and sources) for the duration of one Newton solve; rhsLinOK is
	// cleared at each solve entry.
	rhsLin   []float64
	rhsLinOK bool

	// Base-matrix cache key. The base holds every matrix entry that does
	// not depend on the Newton iterate; it is restamped only when one of
	// these changes.
	baseH      float64
	baseMode   integMode
	baseGshunt float64
	basePinICs bool
	baseValid  bool

	// Factorization reuse. matEpoch advances whenever the assembled matrix
	// content changes: a base rebuild, or a FET linearization whose
	// conductances differ bit for bit from its previous linearization's
	// (the FET matrix stamp reads nothing else). facEpoch records the
	// epoch the solver last factored. Matching epochs mean the held
	// factorization is of a bit-identical matrix, so assemble skips the
	// matrix rebuild and solve skips Factor. The ASDM's Jacobian is
	// piecewise constant, so its decks factor once per (h, mode,
	// conduction state); linear circuits factor once per (h, mode). The
	// working array is written only in an iteration that refactors it, so
	// the LU FactorSolveScratch leaves there stays valid for every reuse.
	matEpoch uint64
	facEpoch uint64
	facValid bool
	factors  int // Factor and FactorSolveScratch calls, for tests
	rejects  int // adaptive steps rejected on their LTE estimate, for tests

	xOld, xNew []float64 // Newton scratch, hoisted out of solve

	branchIdx map[string]int // inductor/vsource name -> branch unknown index

	srcScale float64 // 1 normally; <1 during source stepping
	gshunt   float64 // extra conductance to ground; >Gmin during gmin stepping

	nodeICs map[int]float64 // .IC node voltages (node index -> V)
	pinICs  bool            // true only during the UIC consistency solve

	// refMode disables the base cache, factorization reuse and the linear
	// single-solve shortcut, restoring the pre-optimization assemble/factor
	// sequence. Equivalence tests use it as the reference path.
	refMode bool
}

// New compiles a circuit into an engine. The circuit must Validate.
func New(ckt *circuit.Circuit, opts Options) (*Engine, error) {
	if err := ckt.Validate(); err != nil {
		return nil, fmt.Errorf("spice: %w", err)
	}
	e := &Engine{ckt: ckt, opts: opts.withDefaults(), nNodes: ckt.NumNodes(), srcScale: 1}
	// Known-node pre-scan: count each node's current-carrying connections.
	// FET gate and bulk terminals draw no current in MNA (the companion model
	// stamps only the drain and source rows), so they do not count.
	carrying := make([]int, e.nNodes)
	mark := func(n int) {
		if n > 0 && n < e.nNodes {
			carrying[n]++
		}
	}
	for _, el := range ckt.Elements {
		switch c := el.(type) {
		case *circuit.Resistor:
			mark(c.N1)
			mark(c.N2)
		case *circuit.Capacitor:
			mark(c.N1)
			mark(c.N2)
		case *circuit.Inductor:
			mark(c.N1)
			mark(c.N2)
		case *circuit.VSource:
			mark(c.Np)
			mark(c.Nn)
		case *circuit.ISource:
			mark(c.Np)
			mark(c.Nn)
		case *circuit.MOSFET:
			mark(c.D)
			mark(c.S)
		case *circuit.TLine:
			mark(c.N1p)
			mark(c.N1n)
			mark(c.N2p)
			mark(c.N2n)
		}
	}
	// A grounded source whose live node has no other current-carrying
	// connection pins that node exactly; eliminate node and branch.
	e.slot = make([]int, e.nNodes)
	for i := range e.slot {
		e.slot[i] = -1
	}
	elim := map[*circuit.VSource]bool{}
	for _, el := range ckt.Elements {
		v, ok := el.(*circuit.VSource)
		if !ok {
			continue
		}
		var node int
		var sign float64
		switch {
		case v.Nn == 0 && v.Np != 0:
			node, sign = v.Np, 1
		case v.Np == 0 && v.Nn != 0:
			node, sign = v.Nn, -1
		default:
			continue
		}
		if carrying[node] != 1 || e.slot[node] != -1 {
			continue
		}
		e.slot[node] = -2 - len(e.knowns)
		e.knowns = append(e.knowns, &knownNode{node: node, sign: sign, wave: v.Wave, name: v.Name})
		elim[v] = true
	}
	for n := 1; n < e.nNodes; n++ {
		if e.slot[n] == -1 {
			e.slot[n] = e.nodeUnknowns
			e.nodeUnknowns++
		}
	}
	br := e.nodeUnknowns // next free unknown index
	// vsrcOrder preserves the element-order, first-name-wins precedence of
	// the branch-name lookup across kept and eliminated sources.
	type brName struct {
		name string
		br   int
	}
	var vsrcOrder []brName
	for _, el := range ckt.Elements {
		switch c := el.(type) {
		case *circuit.Resistor:
			e.res = append(e.res, &resStamp{c.N1, c.N2, 1 / c.Ohms})
		case *circuit.Capacitor:
			e.caps = append(e.caps, &capStamp{n1: c.N1, n2: c.N2, c: c.Farads, ic: c.IC})
		case *circuit.Inductor:
			e.inds = append(e.inds, &indStamp{n1: c.N1, n2: c.N2, br: br, l: c.Henrys, ic: c.IC, name: c.Name})
			br++
		case *circuit.VSource:
			if elim[c] {
				vsrcOrder = append(vsrcOrder, brName{c.Name, -1})
				continue
			}
			e.vsrc = append(e.vsrc, &vsrcStamp{np: c.Np, nn: c.Nn, br: br, wave: c.Wave, name: c.Name})
			vsrcOrder = append(vsrcOrder, brName{c.Name, br})
			br++
		case *circuit.ISource:
			e.isrc = append(e.isrc, &isrcStamp{np: c.Np, nn: c.Nn, wave: c.Wave})
		case *circuit.MOSFET:
			f := &fetStamp{d: c.D, g: c.G, s: c.S, b: c.B,
				model: c.Model, pch: c.Pol == circuit.PChannel, name: c.Name}
			f.row = [2]int{e.vIdx(c.D), e.vIdx(c.S)}
			for k, n := range [4]int{c.G, c.D, c.B, c.S} {
				f.col[k] = e.vIdx(n)
				if n > 0 && e.slot[n] < 0 {
					f.known[k] = e.knowns[-2-e.slot[n]]
				}
			}
			e.fets = append(e.fets, f)
		case *circuit.Mutual:
			// Resolved after the loop once both inductors exist.
		case *circuit.TLine:
			e.tlines = append(e.tlines, &tlineStamp{
				n1p: c.N1p, n1n: c.N1n, n2p: c.N2p, n2n: c.N2n,
				z0: c.Z0, td: c.Td,
			})
		default:
			return nil, fmt.Errorf("spice: unsupported element type %T", el)
		}
	}
	for _, el := range ckt.Elements {
		mu, ok := el.(*circuit.Mutual)
		if !ok {
			continue
		}
		find := func(name string) *indStamp {
			for _, l := range e.inds {
				if equalFold(l.name, name) {
					return l
				}
			}
			return nil
		}
		a, b := find(mu.L1), find(mu.L2)
		if a == nil || b == nil {
			return nil, fmt.Errorf("spice: mutual %s references unknown inductor", mu.Name)
		}
		e.muts = append(e.muts, &mutualStamp{a: a, b: b, m: mu.K * math.Sqrt(a.l*b.l)})
	}
	e.nUnknown = br
	e.buildStamps()
	e.rhs = make([]float64, br)
	e.rhsLin = make([]float64, br)
	e.x = make([]float64, br)
	e.xOld = make([]float64, br)
	e.xNew = make([]float64, br)
	// First name wins, inductors before sources: the same precedence the
	// old linear scans had. Eliminated sources map to -1 (their current is
	// identically zero).
	e.branchIdx = make(map[string]int, len(e.inds)+len(vsrcOrder))
	for _, l := range e.inds {
		if _, ok := e.branchIdx[l.name]; !ok {
			e.branchIdx[l.name] = l.br
		}
	}
	for _, v := range vsrcOrder {
		if _, ok := e.branchIdx[v.name]; !ok {
			e.branchIdx[v.name] = v.br
		}
	}
	e.gshunt = e.opts.Gmin
	return e, nil
}

// vIdx maps a node index to its unknown slot, or -1 when the node carries no
// unknown (ground or a source-pinned known node).
func (e *Engine) vIdx(node int) int {
	if node <= 0 {
		return -1
	}
	if s := e.slot[node]; s >= 0 {
		return s
	}
	return -1
}

func (e *Engine) nodeV(x []float64, node int) float64 {
	if node == 0 {
		return 0
	}
	if s := e.slot[node]; s >= 0 {
		return x[s]
	}
	return e.knowns[-2-e.slot[node]].val
}

// buildStamps compiles the matrix into one stamp list and its pivoted
// backend. The list holds every diagonal first (gshunt, the DC inductor
// short and the .IC pins add there), then the linear elements in stamp
// order — resistors, capacitors, inductors, mutuals, voltage sources,
// transmission-line ports — and last the FET entries. A capacitance,
// inductance or mutual stamps c, which ensureBase turns into the
// companion conductance k·c/h of the integration step.
func (e *Engine) buildStamps() {
	n := e.nUnknown
	tr := make(triplets, 0, n+4*(len(e.res)+len(e.caps)+len(e.vsrc)+2*len(e.tlines))+
		5*len(e.inds)+2*len(e.muts)+8*len(e.fets))
	for i := 0; i < n; i++ {
		tr.add(i, i, 0, 0)
	}
	for _, r := range e.res {
		tr.pair(e.vIdx(r.n1), e.vIdx(r.n2), r.g, 0)
	}
	for _, c := range e.caps {
		tr.pair(e.vIdx(c.n1), e.vIdx(c.n2), 0, c.c)
	}
	for _, l := range e.inds {
		tr.branch(e.vIdx(l.n1), e.vIdx(l.n2), l.br)
		tr.add(l.br, l.br, 0, -l.l)
	}
	for _, mu := range e.muts {
		tr.add(mu.a.br, mu.b.br, 0, -mu.m)
		tr.add(mu.b.br, mu.a.br, 0, -mu.m)
	}
	for _, v := range e.vsrc {
		tr.branch(e.vIdx(v.np), e.vIdx(v.nn), v.br)
	}
	// Branin's method stamps a constant 1/Z0 across each port; only the
	// injected currents vary with time, and those live in the RHS.
	for _, tl := range e.tlines {
		tr.pair(e.vIdx(tl.n1p), e.vIdx(tl.n1n), 1/tl.z0, 0)
		tr.pair(e.vIdx(tl.n2p), e.vIdx(tl.n2n), 1/tl.z0, 0)
	}
	lin := len(tr)
	for _, f := range e.fets {
		for r, i := range f.row {
			for k, j := range f.col {
				f.slot[r][k] = -1
				if i >= 0 && j >= 0 {
					f.slot[r][k] = int32(len(tr))
					tr.add(i, j, 0, 0)
				}
			}
		}
	}
	var size int
	var pos []int32
	e.solver, size, pos = pivoted[float64](tr, n, n < sparseThreshold)
	for _, f := range e.fets {
		for r := range f.slot {
			for k, t := range f.slot[r] {
				if t >= 0 {
					f.slot[r][k] = pos[t]
				}
			}
		}
	}
	e.diag, e.stamps, e.pos = pos[:n], tr[n:lin], pos[n:lin]
	e.base = make([]float64, size)
	if len(e.fets) > 0 {
		e.work = make([]float64, size)
		e.fused, _ = e.solver.(*linalg.DenseLU[float64])
	}
}

// stampI adds a current ieq flowing from n1 to n2 *through the element* into
// the right-hand side (i.e. it is extracted at n1 and injected at n2).
func (e *Engine) stampI(n1, n2 int, ieq float64) {
	if i := e.vIdx(n1); i >= 0 {
		e.rhs[i] -= ieq
	}
	if j := e.vIdx(n2); j >= 0 {
		e.rhs[j] += ieq
	}
}

// ensureBase restamps the cached linear base matrix when the cache key
// changes. The base holds every matrix entry that does not depend on the
// Newton iterate or on time: element conductances, companion conductances
// for the (h, mode) pair, branch incidence rows, mutual cross-terms,
// transmission-line port conductances and the .IC pin conductances.
// Rebuilding invalidates any factorization held by the solver.
func (e *Engine) ensureBase(h float64, mode integMode) {
	if e.baseValid && h == e.baseH && mode == e.baseMode &&
		e.gshunt == e.baseGshunt && e.pinICs == e.basePinICs {
		return
	}
	b := e.base
	clear(b)
	// Shunt conductance to ground on every node: keeps floating nodes (gate
	// networks, open capacitors in DC) nonsingular.
	for _, d := range e.diag[:e.nodeUnknowns] {
		b[d] = e.gshunt
	}
	// Each stamp adds g + k·c/h: k = 1 for backward Euler, 2 for the
	// trapezoidal rule. DC keeps g alone: capacitors open, no coupling.
	k := 0.0
	switch mode {
	case modeBE:
		k = 1
	case modeTR:
		k = 2
	}
	for t, st := range e.stamps {
		v := st.g
		if k != 0 {
			v += k * st.c / h
		}
		b[e.pos[t]] += v
	}
	if mode == modeDC {
		// Inductors are shorts, v1 - v2 = 0; a tiny series resistance
		// avoids singular loops of shorts and sources.
		for _, l := range e.inds {
			b[e.diag[l.br]] -= 1e-6
		}
	}
	if e.pinICs {
		for node := range e.nodeICs {
			if i := e.vIdx(node); i >= 0 {
				b[e.diag[i]] += gPin
			}
		}
	}
	e.baseH, e.baseMode, e.baseGshunt, e.basePinICs = h, mode, e.gshunt, e.pinICs
	e.baseValid = !e.refMode
	e.matEpoch++
}

// assemble builds the MNA system for the given time, step and mode,
// linearized around the iterate x. It returns the value array to solve
// with and whether the solver must factor it; when refactor is false the
// array is bit-identical to the one the solver already holds. The linear
// part is served from the base cache. The working array (base plus the
// FET companion stamps) is rebuilt only when it is about to be refactored,
// since a FactorSolveScratch may have left its LU there. The right-hand
// side is rebuilt on every call (it carries the time-varying sources and
// the companion-model history terms).
func (e *Engine) assemble(t, h float64, mode integMode, x []float64) (a []float64, refactor bool) {
	e.ensureBase(h, mode)
	rhs := e.rhs
	if e.rhsLinOK && !e.refMode {
		// The state- and source-driven contributions do not depend on the
		// Newton iterate, so iterations after the first within one solve
		// reuse the vector built on the first.
		copy(rhs, e.rhsLin)
	} else {
		// Pinned node values are constant within one solve (same t, same
		// source scale); refresh them alongside the linear rhs.
		for _, k := range e.knowns {
			k.val = k.sign * k.wave.At(t) * e.srcScale
		}
		for i := range rhs {
			rhs[i] = 0
		}
		for _, c := range e.caps {
			switch mode {
			case modeBE:
				e.stampI(c.n1, c.n2, -c.c/h*c.vOld)
			case modeTR:
				e.stampI(c.n1, c.n2, -(2*c.c/h*c.vOld + c.iOld))
			}
		}
		for _, l := range e.inds {
			switch mode {
			case modeBE:
				rhs[l.br] = -l.l / h * l.iOld
			case modeTR:
				rhs[l.br] = -l.vOld - 2*l.l/h*l.iOld
			}
		}
		for _, mu := range e.muts {
			switch mode {
			case modeBE:
				mh := mu.m / h
				rhs[mu.a.br] -= mh * mu.b.iOld
				rhs[mu.b.br] -= mh * mu.a.iOld
			case modeTR:
				mh := 2 * mu.m / h
				rhs[mu.a.br] -= mh * mu.b.iOld
				rhs[mu.b.br] -= mh * mu.a.iOld
			}
		}
		for _, v := range e.vsrc {
			rhs[v.br] = v.wave.At(t) * e.srcScale
		}
		for _, s := range e.isrc {
			e.stampI(s.np, s.nn, s.wave.At(t)*e.srcScale)
		}
		copy(e.rhsLin, rhs)
		e.rhsLinOK = !e.refMode
	}
	for _, f := range e.fets {
		e.linearizeFET(f, x)
	}
	refactor = e.refMode || !e.facValid || e.facEpoch != e.matEpoch
	a = e.base
	if e.work != nil {
		a = e.work
		if refactor {
			copy(e.work, e.base)
			for _, f := range e.fets {
				e.stampFETMatrix(f)
			}
		}
	}
	for _, f := range e.fets {
		e.stampFETRHS(f)
	}
	for _, tl := range e.tlines {
		e.stampTLineRHS(tl, t, mode, x)
	}
	if e.pinICs {
		for node, v := range e.nodeICs {
			if i := e.vIdx(node); i >= 0 {
				rhs[i] += gPin * v
			}
		}
	}
	return a, refactor
}

// SetNodeICs registers .IC initial node voltages (applied at the start of a
// UIC transient). Unknown node names are an error.
func (e *Engine) SetNodeICs(ics map[string]float64) error {
	if len(ics) == 0 {
		return nil
	}
	if e.nodeICs == nil {
		e.nodeICs = map[int]float64{}
	}
	for name, v := range ics {
		idx := e.ckt.LookupNode(name)
		if idx < 0 {
			return fmt.Errorf("spice: .IC references unknown node %q", name)
		}
		if idx == 0 {
			return fmt.Errorf("spice: .IC cannot set the ground node")
		}
		if e.slot[idx] < 0 {
			return fmt.Errorf("spice: .IC cannot set node %q, it is pinned by source %s",
				name, e.knowns[-2-e.slot[idx]].name)
		}
		e.nodeICs[idx] = v
	}
	return nil
}

// linearizeFET evaluates one MOSFET's companion model around iterate x,
// with polarity reflection for PMOS. The FET matrix stamp reads only the
// conductances, so matEpoch advances only when one of them changes bit for
// bit. Their zero initial value needs no special case: the first
// factorization follows the first linearization, and facValid starts
// false.
func (e *Engine) linearizeFET(f *fetStamp, x []float64) {
	for k, j := range f.col {
		switch {
		case j >= 0:
			f.v[k] = x[j]
		case f.known[k] != nil:
			f.v[k] = f.known[k].val
		}
	}
	vg, vd, vb, vs := f.v[0], f.v[1], f.v[2], f.v[3]
	var id, jg, jd, jb float64
	if !f.pch {
		id, jg, jd, jb = f.model.Ids(vg-vs, vd-vs, vb-vs)
	} else {
		// P-channel: evaluate the mirrored N model; the drain->source
		// current of the P device is the negative of the mirrored current,
		// and the chain rule flips each partial twice, leaving jg, jd, jb
		// equal to the N-model conductances.
		var i float64
		i, jg, jd, jb = f.model.Ids(vs-vg, vs-vd, vs-vb)
		id = -i
	}
	if math.Float64bits(jg) != math.Float64bits(f.jac[0]) ||
		math.Float64bits(jd) != math.Float64bits(f.jac[1]) ||
		math.Float64bits(jb) != math.Float64bits(f.jac[2]) {
		e.matEpoch++
	}
	f.id = id
	f.jac = [4]float64{jg, jd, jb, -(jg + jd + jb)}
}

// stampFETMatrix adds a FET's conductance stamps to the working array:
// the drain row gets +partials and the source row -partials, in the
// unknown columns.
func (e *Engine) stampFETMatrix(f *fetStamp) {
	for r := range f.slot {
		for k, t := range f.slot[r] {
			if t >= 0 {
				e.work[t] += fetRowSign[r] * f.jac[k]
			}
		}
	}
}

// stampFETRHS adds a FET's right-hand-side terms. A column belonging to a
// source-pinned node is a constant contribution and moves to the rhs with
// the known voltage; the companion current ieq then flows from d to s.
func (e *Engine) stampFETRHS(f *fetStamp) {
	for r, i := range f.row {
		if i < 0 {
			continue
		}
		for k, kn := range f.known {
			if kn != nil {
				e.rhs[i] -= fetRowSign[r] * f.jac[k] * f.v[k]
			}
		}
	}
	ieq := f.id
	for k := range f.jac {
		ieq -= f.jac[k] * f.v[k]
	}
	if i := f.row[0]; i >= 0 {
		e.rhs[i] -= ieq
	}
	if j := f.row[1]; j >= 0 {
		e.rhs[j] += ieq
	}
}

// converged checks the NR update against the mixed relative/absolute
// tolerances.
func (e *Engine) converged(xNew, xOld []float64) bool {
	nv := e.nodeUnknowns
	for i := range xNew {
		diff := math.Abs(xNew[i] - xOld[i])
		an, ao := math.Abs(xNew[i]), math.Abs(xOld[i])
		scale := an
		if ao > an {
			scale = ao
		}
		var atol float64
		if i < nv {
			atol = e.opts.VNTol
		} else {
			atol = e.opts.AbsTol
		}
		if diff > e.opts.RelTol*scale+atol {
			return false
		}
	}
	return true
}

// solve runs damped Newton-Raphson at time t with the given integration
// mode, starting from and updating e.x.
//
// Circuits without FETs assemble a system that does not depend on the
// iterate outside modeDC with transmission lines (whose DC relaxation
// reads the iterate), so one factor-free Solve lands exactly on the fixed
// point the iteration would reach: every iteration solves the identical
// (G, rhs), damping only perturbs discarded intermediates, and the final
// accepted iterate is the plain linear solution.
func (e *Engine) solve(t, h float64, mode integMode) error {
	xOld, xNew := e.xOld, e.xNew
	copy(xOld, e.x)
	e.rhsLinOK = false
	linear := len(e.fets) == 0
	fastLinear := linear && !e.refMode && (mode != modeDC || len(e.tlines) == 0)
	for iter := 0; iter < e.opts.MaxNewton; iter++ {
		a, refactor := e.assemble(t, h, mode, xOld)
		if refactor {
			e.factors++
			var err error
			if e.fused != nil {
				// assemble rebuilt the working array for this factorization
				// and writes it again only before the next one, so the fused
				// factor+solve may leave its LU in place for reuse.
				err = e.fused.FactorSolveScratch(a, e.rhs, xNew)
			} else if err = e.solver.Factor(a); err == nil {
				err = e.solver.Solve(e.rhs, xNew)
			}
			if err != nil {
				e.facValid = false
				return fmt.Errorf("spice: singular MNA matrix at t=%g: %w", t, err)
			}
			e.facValid = !e.refMode
			e.facEpoch = e.matEpoch
		} else if err := e.solver.Solve(e.rhs, xNew); err != nil {
			return err
		}
		if fastLinear {
			copy(e.x, xNew)
			return nil
		}
		// Damping: if the largest voltage update exceeds DampLimit, scale
		// the whole update uniformly to preserve the Newton direction.
		maxDv := 0.0
		for i := 0; i < e.nodeUnknowns; i++ {
			if d := math.Abs(xNew[i] - xOld[i]); d > maxDv {
				maxDv = d
			}
		}
		if maxDv > e.opts.DampLimit {
			k := e.opts.DampLimit / maxDv
			for i := range xNew {
				xNew[i] = xOld[i] + k*(xNew[i]-xOld[i])
			}
		}
		if e.converged(xNew, xOld) && (len(e.fets) == 0 || iter > 0) {
			copy(e.x, xNew)
			return nil
		}
		copy(xOld, xNew)
	}
	return fmt.Errorf("%w at t=%g after %d iterations", ErrNoConvergence, t, e.opts.MaxNewton)
}

// X returns a copy of the current solution vector (for tests).
func (e *Engine) X() []float64 {
	out := make([]float64, len(e.x))
	copy(out, e.x)
	return out
}

// NodeVoltage returns the solved voltage of a named node.
func (e *Engine) NodeVoltage(name string) (float64, error) {
	idx := e.ckt.LookupNode(name)
	if idx < 0 {
		return 0, fmt.Errorf("spice: unknown node %q", name)
	}
	return e.nodeV(e.x, idx), nil
}

// BranchCurrent returns the solved current of a named inductor or voltage
// source. The name-to-branch map is built once in New; the report path
// calls this per output step.
func (e *Engine) BranchCurrent(name string) (float64, error) {
	if br, ok := e.branchIdx[name]; ok {
		if br < 0 {
			return 0, nil // eliminated source: its current is identically zero
		}
		return e.x[br], nil
	}
	return 0, fmt.Errorf("spice: no branch current for %q", name)
}
