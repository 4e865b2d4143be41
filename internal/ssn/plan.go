package ssn

import "math"

// PlanAxis names the single Params field a Plan's batch kernels vary.
// PlanFixed compiles a fully resolved point (every invariant hoisted,
// including the Table 1 case); the axis variants leave exactly one field
// open and hoist everything that does not depend on it.
type PlanAxis uint8

// The compiled axis kinds. Each kernel re-derives only the terms its axis
// invalidates (the per-axis invalidation mask, DESIGN.md §12):
//
//	PlanFixed      nothing varies: β, τr, damping and case all hoisted
//	PlanAxisN      τr and the C-only damping terms hoisted; β and the
//	               N-dependent eigenstructure recomputed per point
//	PlanAxisL      τr and σ hoisted (both L-free); β and the rest of the
//	               eigenstructure recomputed per point
//	PlanAxisC      β and τr hoisted; only the damping split varies
//	PlanAxisSlope  damping hoisted (σ, ω, roots are slope-free); β, τr
//	               and the under-damped case split recomputed per point
const (
	PlanFixed PlanAxis = iota
	PlanAxisN
	PlanAxisL
	PlanAxisC
	PlanAxisSlope
)

// runKind is the internal label of a contiguous same-case run inside a
// batch: the Table 1 case with the C = 0 first-order limit split out (it
// takes the L-only formula, not the two-root one). The run-split dispatch
// (batch, DESIGN.md §15) classifies the first point of each run, evaluates
// forward with a straight-line per-case loop until the case changes, and
// repeats.
type runKind uint8

const (
	rkOverL runKind = iota // C = 0 first-order limit (over-damped, L-only)
	rkOver                 // Δ > 0 beyond the critical band
	rkCrit                 // |Δ| within the critical band
	rkPeak                 // Δ < 0, first ring fits the ramp window
	rkBound                // Δ < 0, ramp ends before the first ring
)

// kindCase maps a run kind to its Table 1 case.
func (k runKind) kindCase() Case {
	switch k {
	case rkOverL, rkOver:
		return OverDamped
	case rkCrit:
		return CriticallyDamped
	case rkPeak:
		return UnderDampedPeak
	default:
		return UnderDampedBoundary
	}
}

// Plan is a compiled evaluation plan for the Table 1 closed forms: the
// validated parameter point with every axis-independent derived quantity
// hoisted, exposing batch kernels that evaluate structure-of-arrays inputs
// with zero steady-state allocations. A Plan is the unit the hot consumers
// reuse — one per grid run in the sweep engine, one skeleton per Monte
// Carlo worker, one per design point in the oracle and the serve batch
// endpoint.
//
// Bitwise contract: VMaxCaseBatch (and every consumer built on it: the
// sweep engine, Monte Carlo, the oracle) produces results bit-for-bit
// identical to the scalar LCModel/MaxSSN path. The kernels split each
// batch into contiguous same-case runs and evaluate each run with a
// straight-line loop whose expressions mirror the scalar path term for
// term (damping, tableCase, vAt, vmaxOf), hoisting only sub-expressions
// whose evaluation order Go fixes identically in both paths, so no
// floating-point operation is reordered. plan_test.go proves the property
// over seeded points spanning all four cases.
type Plan struct {
	base Params
	axis PlanAxis

	// invariants; which are meaningful depends on axis (see PlanAxis)
	beta float64
	tauR float64
	d    dampState
	cse  Case
	vmax float64

	// PlanAxisSlope hoists: β = nlk·s and τr = dv/s
	nlk float64 // N·L·K
	dv  float64 // Vdd - V0

	// PlanAxisC hoists: the sub-terms of damping() that do not involve C,
	// factored so each per-point expression keeps the scalar path's exact
	// operand order (see damping()).
	nlka  float64 // N·L·K·a
	nlka2 float64 // (N·L·K·a)², the discriminant offset and scale
	band  float64 // critTol·(N·L·K·a)², the critical-damping band
	fourL float64 // 4·L
	twoL  float64 // 2·L
	nka   float64 // N·K·a
	c0l1  float64 // -1/(N·L·K·a), the C = 0 eigenvalue

	// PlanAxisN hoists: the C-and-L-only sub-terms of damping(), again in
	// the scalar path's operand order ((4·L)·C hoists whole, and so on).
	fourLC float64 // (4·L)·C
	twoLC  float64 // (2·L)·C
	twoC   float64 // 2·C, the σ denominator (N and L axes)
	invLC  float64 // 1/(L·C), the ω² offset

	// PlanAxisL hoists: σ = N·K·a/(2C) is L-free and hoists whole.
	sigmaL float64

	// scratch holds the canonical float64 axis values for the N-axis
	// kernels: VMaxCaseBatch rounds and clamps into it once (hoisting the
	// per-point math.Round out of the kernels), VMaxCaseBatchN converts
	// pre-rounded integer grids into it with no rounding at all. It is
	// grown lazily and preserved across Compile so pooled Plans never
	// reallocate it in steady state.
	scratch []float64
}

// CompilePlan validates p and compiles a plan for the axis. When axis is
// not PlanFixed, the corresponding field of p is exempt from validation
// (the kernels take its values per point) and its base value is ignored.
func CompilePlan(p Params, axis PlanAxis) (*Plan, error) {
	pl := &Plan{}
	if err := pl.Compile(p, axis); err != nil {
		return nil, err
	}
	return pl, nil
}

// Compile re-compiles pl in place: the allocation-free core of CompilePlan
// for callers that keep one Plan per worker and re-point it per run.
//
// For PlanFixed the validity predicate is exactly Params.Validate, so a
// caller that previously paired Validate with MaxSSN (Monte Carlo redraw
// loops) sees the identical accept/reject sequence.
func (pl *Plan) Compile(p Params, axis PlanAxis) error {
	chk := p
	switch axis {
	case PlanAxisN:
		chk.N = 1
	case PlanAxisL:
		chk.L = 1
	case PlanAxisC:
		chk.C = 0
	case PlanAxisSlope:
		chk.Slope = 1
	}
	if err := chk.Validate(); err != nil {
		return err
	}
	scratch := pl.scratch
	*pl = Plan{base: p, axis: axis, scratch: scratch}
	switch axis {
	case PlanFixed:
		pl.beta = p.Beta()
		pl.tauR = p.TauRise()
		pl.d = damping(p)
		pl.cse = tableCase(pl.d, pl.tauR)
		pl.vmax = vmaxOf(pl.beta, pl.tauR, pl.d, pl.cse)
	case PlanAxisN:
		pl.tauR = p.TauRise()
		pl.fourLC = 4 * p.L * p.C
		pl.twoLC = 2 * p.L * p.C
		pl.twoC = 2 * p.C
		if p.C != 0 {
			pl.invLC = 1 / (p.L * p.C)
		}
	case PlanAxisL:
		pl.tauR = p.TauRise()
		pl.twoC = 2 * p.C
		if p.C != 0 {
			pl.sigmaL = float64(p.N) * p.Dev.K * p.Dev.A / (2 * p.C)
		}
	case PlanAxisC:
		pl.beta = p.Beta()
		pl.tauR = p.TauRise()
		pl.nlka = float64(p.N) * p.L * p.Dev.K * p.Dev.A
		pl.nlka2 = pl.nlka * pl.nlka
		pl.band = critTol * pl.nlka2
		pl.fourL = 4 * p.L
		pl.twoL = 2 * p.L
		pl.nka = float64(p.N) * p.Dev.K * p.Dev.A
		pl.c0l1 = -1 / pl.nlka
	case PlanAxisSlope:
		pl.d = damping(p)
		pl.nlk = float64(p.N) * p.L * p.Dev.K
		pl.dv = p.Vdd - p.Dev.V0
	}
	return nil
}

// VMax returns the hoisted Table 1 maximum of a PlanFixed plan.
func (pl *Plan) VMax() float64 { return pl.vmax }

// Case returns the hoisted operating case of a PlanFixed plan.
func (pl *Plan) Case() Case { return pl.cse }

// VMaxTime returns the model time of the maximum of a PlanFixed plan:
// τp = π/ω for the under-damped peak case, τr otherwise.
func (pl *Plan) VMaxTime() float64 {
	if pl.cse == UnderDampedPeak {
		return math.Pi / pl.d.omega
	}
	return pl.tauR
}

// checkBatchLens panics unless the batch slices agree in length.
func checkBatchLens(dstLen, casesLen, valuesLen int, casesNil bool) {
	if dstLen != valuesLen || (!casesNil && casesLen != valuesLen) {
		panic("ssn: Plan batch length mismatch")
	}
}

// VMaxCaseBatch evaluates the Table 1 maximum and operating case at each
// axis value: dst[i] and cases[i] for values[i]. cases may be nil; dst and
// values must have equal length (and cases too when non-nil) or the kernel
// panics. The kernel performs no validation and never allocates in steady
// state: each value must satisfy the Params.Validate constraint of its
// axis field (L > 0, C >= 0, Slope > 0; PlanAxisN values are rounded to
// the nearest driver count and clamped to >= 1) — out-of-range values
// yield unspecified numbers, not errors, exactly as the scalar formulas
// would. For PlanFixed every element is the hoisted maximum and case.
//
// Results are bit-for-bit identical to the scalar MaxSSN path.
func (pl *Plan) VMaxCaseBatch(dst []float64, cases []Case, values []float64) {
	checkBatchLens(len(dst), len(cases), len(values), cases == nil)
	switch pl.axis {
	case PlanFixed:
		pl.batchFixed(dst, cases, len(values))
	case PlanAxisN:
		nfs := pl.scratchFor(len(values))
		for i, v := range values {
			n := int(math.Round(v))
			if n < 1 {
				n = 1
			}
			nfs[i] = float64(n)
		}
		pl.batch(dst, cases, nfs)
	default:
		pl.batch(dst, cases, values)
	}
}

// VMaxCaseBatchN is VMaxCaseBatch for a PlanAxisN plan over an integer
// grid: ns[i] is used as the driver count directly, with no per-point
// rounding or clamping (callers own both). Values must be >= 1. Results are bit-for-bit
// identical to VMaxCaseBatch over the equivalent rounded float values.
func (pl *Plan) VMaxCaseBatchN(dst []float64, cases []Case, ns []int) {
	checkBatchLens(len(dst), len(cases), len(ns), cases == nil)
	if pl.axis != PlanAxisN {
		panic("ssn: VMaxCaseBatchN needs a PlanAxisN plan")
	}
	nfs := pl.scratchFor(len(ns))
	for i, n := range ns {
		nfs[i] = float64(n)
	}
	pl.batch(dst, cases, nfs)
}

// scratchFor returns the N-axis conversion buffer, growing it if needed.
// The buffer survives Compile, so pooled Plans allocate it at most once.
func (pl *Plan) scratchFor(n int) []float64 {
	if cap(pl.scratch) < n {
		pl.scratch = make([]float64, n)
	}
	pl.scratch = pl.scratch[:n]
	return pl.scratch
}

// fillCases writes one case over a resolved run.
func fillCases(cases []Case, c Case) {
	for i := range cases {
		cases[i] = c
	}
}

// batchFixed broadcasts the hoisted point.
func (pl *Plan) batchFixed(dst []float64, cases []Case, n int) {
	dst = dst[:n]
	for i := range dst {
		dst[i] = pl.vmax
	}
	if cases != nil {
		fillCases(cases[:n], pl.cse)
	}
}

// fallbackPoint evaluates one axis value through the scalar helpers. The
// run dispatcher calls it when a run kernel refuses its own first point —
// impossible for classifiable inputs, but NaN axis values (documented as
// unspecified-result territory) fail every ordered guard, and the
// degenerate eigenvalue overflow of a subnormal C does too. Routing those
// single points through damping/tableCase/vmaxOf keeps the kernel's
// progress guarantee and its bitwise contract at once.
func (pl *Plan) fallbackPoint(v float64) (float64, Case) {
	q := pl.base
	switch pl.axis {
	case PlanAxisN:
		n := int(v)
		if n < 1 {
			n = 1
		}
		q.N = n
	case PlanAxisL:
		q.L = v
	case PlanAxisC:
		q.C = v
	case PlanAxisSlope:
		q.Slope = v
	}
	d := damping(q)
	tauR := q.TauRise()
	cse := tableCase(d, tauR)
	return vmaxOf(q.Beta(), tauR, d, cse), cse
}

// runKernel evaluates a run forward from its first value, re-verifying
// its case per point with the compare the classifier performs, and returns
// how many points it consumed (0 when it refuses its first point).
type runKernel = func(pl *Plan, dst, values []float64) int

// axisKernels is one axis's run-split table: the classifier that resolves
// the run kind of a run's first point, and the run kernel of each kind.
type axisKernels struct {
	classify func(pl *Plan, v float64) runKind
	run      [rkBound + 1]runKernel
}

// axisTable holds the run-split tables of the open axes, indexed by
// PlanAxis.
var axisTable = [...]axisKernels{
	PlanAxisN: {(*Plan).classifyN, [...]runKernel{
		rkOverL: (*Plan).runNOverL, rkOver: (*Plan).runNOver, rkCrit: (*Plan).runNCrit,
		rkPeak: (*Plan).runNPeak, rkBound: (*Plan).runNBound}},
	PlanAxisL: {(*Plan).classifyL, [...]runKernel{
		rkOverL: (*Plan).runLOverL, rkOver: (*Plan).runLOver, rkCrit: (*Plan).runLCrit,
		rkPeak: (*Plan).runLPeak, rkBound: (*Plan).runLBound}},
	PlanAxisC: {(*Plan).classifyC, [...]runKernel{
		rkOverL: (*Plan).runCOverL, rkOver: (*Plan).runCOver, rkCrit: (*Plan).runCCrit,
		rkPeak: (*Plan).runCPeak, rkBound: (*Plan).runCBound}},
	PlanAxisSlope: {(*Plan).classifySlope, [...]runKernel{
		rkOverL: (*Plan).runSlopeOverL, rkOver: (*Plan).runSlopeOver, rkCrit: (*Plan).runSlopeCrit,
		rkPeak: (*Plan).runSlopePeak, rkBound: (*Plan).runSlopeBound}},
}

// batch is the one run-split dispatcher for the open axes: it classifies
// the first point of a run, hands the rest to that kind's kernel, and so
// re-classifies exactly once per case crossing. A refused first point goes
// through fallbackPoint, so every iteration makes progress.
func (pl *Plan) batch(dst []float64, cases []Case, values []float64) {
	k := &axisTable[pl.axis]
	dst = dst[:len(values)]
	for s := 0; s < len(values); {
		kind := k.classify(pl, values[s])
		n := k.run[kind](pl, dst[s:], values[s:])
		cse := kind.kindCase()
		if n == 0 {
			dst[s], cse = pl.fallbackPoint(values[s])
			n = 1
		}
		if cases != nil {
			fillCases(cases[s:s+n], cse)
		}
		s += n
	}
}

// ---------------------------------------------------------------------------
// C axis: β and τr are hoisted, the damping split is the only per-point
// work. Each run expression mirrors damping() term for term
// (left-associated products let 4·L·C hoist as (4·L)·C, and so on), which
// is what keeps the output bitwise identical to the scalar path.

// classifyC resolves the run kind at a capacitance value, mirroring
// damping()+tableCase() on the hoisted sub-terms.
func (pl *Plan) classifyC(c float64) runKind {
	if c == 0 {
		return rkOverL
	}
	disc := pl.nlka2 - pl.fourL*c
	switch {
	case math.Abs(disc) <= pl.band:
		return rkCrit
	case disc > 0:
		return rkOver
	}
	sigma := pl.nka / (2 * c)
	omega := math.Sqrt(1/(pl.base.L*c) - sigma*sigma)
	if math.Pi/omega <= pl.tauR {
		return rkPeak
	}
	return rkBound
}

// runCOverL evaluates the C = 0 first-order limit: every point shares the
// same inputs, so the L-only closed form is computed once and broadcast.
func (pl *Plan) runCOverL(dst, values []float64) int {
	vm := pl.beta * (1 - math.Exp(pl.c0l1*pl.tauR))
	dst = dst[:len(values)]
	for i, c := range values {
		if c != 0 {
			return i
		}
		dst[i] = vm
	}
	return len(values)
}

// runCOver evaluates an over-damped run: √Δ, the two real roots, and the
// two-exponential ramp-end value, all in the scalar path's operand order.
func (pl *Plan) runCOver(dst, values []float64) int {
	dst = dst[:len(values)]
	beta, tauR := pl.beta, pl.tauR
	nlka, nlka2, band := pl.nlka, pl.nlka2, pl.band
	fourL, twoL := pl.fourL, pl.twoL
	for i, c := range values {
		disc := nlka2 - fourL*c
		if !(disc > band) || c == 0 {
			return i
		}
		root := math.Sqrt(disc)
		den := twoL * c
		l1 := (-nlka + root) / den
		l2 := (-nlka - root) / den
		if math.IsInf(l2, -1) { // subnormal c: degenerate roots, take the scalar path
			return i
		}
		num := l2*math.Exp(l1*tauR) - l1*math.Exp(l2*tauR)
		dst[i] = beta * (1 - num/(l2-l1))
	}
	return len(values)
}

// runCCrit evaluates a critically-damped run (the |Δ| ≤ band sliver).
func (pl *Plan) runCCrit(dst, values []float64) int {
	dst = dst[:len(values)]
	beta, tauR := pl.beta, pl.tauR
	nlka2, band, fourL, nka := pl.nlka2, pl.band, pl.fourL, pl.nka
	for i, c := range values {
		if c == 0 {
			return i
		}
		disc := nlka2 - fourL*c
		if !(math.Abs(disc) <= band) {
			return i
		}
		l := -(nka / (2 * c))
		dst[i] = beta * (1 - (1-l*tauR)*math.Exp(l*tauR))
	}
	return len(values)
}

// runCPeak evaluates an under-damped run whose first ring fits the window:
// vmax = β·(1 + e^(-σπ/ω)) at τp = π/ω.
func (pl *Plan) runCPeak(dst, values []float64) int {
	dst = dst[:len(values)]
	beta, tauR := pl.beta, pl.tauR
	nlka2, band, fourL, nka, lf := pl.nlka2, pl.band, pl.fourL, pl.nka, pl.base.L
	for i, c := range values {
		disc := nlka2 - fourL*c
		if !(disc < -band) {
			return i
		}
		sigma := nka / (2 * c)
		omega := math.Sqrt(1/(lf*c) - sigma*sigma)
		if !(math.Pi/omega <= tauR) {
			return i
		}
		dst[i] = beta * (1 + math.Exp(-sigma*math.Pi/omega))
	}
	return len(values)
}

// runCBound evaluates an under-damped run whose ramp ends before the first
// ring: the oscillatory ramp-end value.
func (pl *Plan) runCBound(dst, values []float64) int {
	dst = dst[:len(values)]
	beta, tauR := pl.beta, pl.tauR
	nlka2, band, fourL, nka, lf := pl.nlka2, pl.band, pl.fourL, pl.nka, pl.base.L
	for i, c := range values {
		disc := nlka2 - fourL*c
		if !(disc < -band) {
			return i
		}
		sigma := nka / (2 * c)
		omega := math.Sqrt(1/(lf*c) - sigma*sigma)
		if math.Pi/omega <= tauR {
			return i
		}
		e := math.Exp(-sigma * tauR)
		dst[i] = beta * (1 - e*(math.Cos(omega*tauR)+sigma/omega*math.Sin(omega*tauR)))
	}
	return len(values)
}

// ---------------------------------------------------------------------------
// N axis: values arrive as canonical float64 driver counts in scratch
// (rounded/clamped by VMaxCaseBatch, converted verbatim by
// VMaxCaseBatchN). τr and every C-and-L-only damping sub-term are hoisted;
// per point the kernels rebuild the N-dependent eigenstructure in the
// scalar operand order ((N·L)·K)·a and so on.

// classifyN resolves the run kind at a (float) driver count.
func (pl *Plan) classifyN(nf float64) runKind {
	p := &pl.base
	nlka := nf * p.L * p.Dev.K * p.Dev.A
	if p.C == 0 {
		return rkOverL
	}
	nlka2 := nlka * nlka
	disc := nlka2 - pl.fourLC
	switch {
	case math.Abs(disc) <= critTol*nlka2:
		return rkCrit
	case disc > 0:
		return rkOver
	}
	sigma := nf * p.Dev.K * p.Dev.A / pl.twoC
	omega := math.Sqrt(pl.invLC - sigma*sigma)
	if math.Pi/omega <= pl.tauR {
		return rkPeak
	}
	return rkBound
}

// runNOverL is the C = 0 first-order limit along N: per point one
// eigenvalue -1/(N·L·K·a) and the L-only exponential.
func (pl *Plan) runNOverL(dst, nfs []float64) int {
	p := &pl.base
	lf, kf, af, sf, tauR := p.L, p.Dev.K, p.Dev.A, p.Slope, pl.tauR
	dst = dst[:len(nfs)]
	for i, nf := range nfs {
		nlka := nf * lf * kf * af
		l1 := -1 / nlka
		beta := nf * lf * kf * sf
		dst[i] = beta * (1 - math.Exp(l1*tauR))
	}
	return len(nfs)
}

func (pl *Plan) runNOver(dst, nfs []float64) int {
	dst = dst[:len(nfs)]
	p := &pl.base
	lf, kf, af, sf := p.L, p.Dev.K, p.Dev.A, p.Slope
	tauR, fourLC, twoLC := pl.tauR, pl.fourLC, pl.twoLC
	for i, nf := range nfs {
		nlka := nf * lf * kf * af
		nlka2 := nlka * nlka
		disc := nlka2 - fourLC
		if !(disc > critTol*nlka2) {
			return i
		}
		root := math.Sqrt(disc)
		l1 := (-nlka + root) / twoLC
		l2 := (-nlka - root) / twoLC
		num := l2*math.Exp(l1*tauR) - l1*math.Exp(l2*tauR)
		beta := nf * lf * kf * sf
		dst[i] = beta * (1 - num/(l2-l1))
	}
	return len(nfs)
}

func (pl *Plan) runNCrit(dst, nfs []float64) int {
	dst = dst[:len(nfs)]
	p := &pl.base
	lf, kf, af, sf := p.L, p.Dev.K, p.Dev.A, p.Slope
	tauR, fourLC, twoC := pl.tauR, pl.fourLC, pl.twoC
	for i, nf := range nfs {
		nlka := nf * lf * kf * af
		nlka2 := nlka * nlka
		disc := nlka2 - fourLC
		if !(math.Abs(disc) <= critTol*nlka2) {
			return i
		}
		l := -(nf * kf * af / twoC)
		beta := nf * lf * kf * sf
		dst[i] = beta * (1 - (1-l*tauR)*math.Exp(l*tauR))
	}
	return len(nfs)
}

func (pl *Plan) runNPeak(dst, nfs []float64) int {
	dst = dst[:len(nfs)]
	p := &pl.base
	lf, kf, af, sf := p.L, p.Dev.K, p.Dev.A, p.Slope
	tauR, fourLC, twoC, invLC := pl.tauR, pl.fourLC, pl.twoC, pl.invLC
	for i, nf := range nfs {
		nlka := nf * lf * kf * af
		nlka2 := nlka * nlka
		disc := nlka2 - fourLC
		if !(disc < -(critTol * nlka2)) {
			return i
		}
		sigma := nf * kf * af / twoC
		omega := math.Sqrt(invLC - sigma*sigma)
		if !(math.Pi/omega <= tauR) {
			return i
		}
		beta := nf * lf * kf * sf
		dst[i] = beta * (1 + math.Exp(-sigma*math.Pi/omega))
	}
	return len(nfs)
}

func (pl *Plan) runNBound(dst, nfs []float64) int {
	dst = dst[:len(nfs)]
	p := &pl.base
	lf, kf, af, sf := p.L, p.Dev.K, p.Dev.A, p.Slope
	tauR, fourLC, twoC, invLC := pl.tauR, pl.fourLC, pl.twoC, pl.invLC
	for i, nf := range nfs {
		nlka := nf * lf * kf * af
		nlka2 := nlka * nlka
		disc := nlka2 - fourLC
		if !(disc < -(critTol * nlka2)) {
			return i
		}
		sigma := nf * kf * af / twoC
		omega := math.Sqrt(invLC - sigma*sigma)
		if math.Pi/omega <= tauR {
			return i
		}
		e := math.Exp(-sigma * tauR)
		beta := nf * lf * kf * sf
		dst[i] = beta * (1 - e*(math.Cos(omega*tauR)+sigma/omega*math.Sin(omega*tauR)))
	}
	return len(nfs)
}

// ---------------------------------------------------------------------------
// L axis: τr and σ = N·K·a/(2C) are both L-free and hoisted; per point the
// kernels rebuild the L-dependent eigenstructure in scalar operand order.

// classifyL resolves the run kind at an inductance value.
func (pl *Plan) classifyL(v float64) runKind {
	p := &pl.base
	if p.C == 0 {
		return rkOverL
	}
	nlka := float64(p.N) * v * p.Dev.K * p.Dev.A
	nlka2 := nlka * nlka
	disc := nlka2 - 4*v*p.C
	switch {
	case math.Abs(disc) <= critTol*nlka2:
		return rkCrit
	case disc > 0:
		return rkOver
	}
	omega := math.Sqrt(1/(v*p.C) - pl.sigmaL*pl.sigmaL)
	if math.Pi/omega <= pl.tauR {
		return rkPeak
	}
	return rkBound
}

// runLOverL is the C = 0 first-order limit along L.
func (pl *Plan) runLOverL(dst, values []float64) int {
	p := &pl.base
	nf, kf, af, sf, tauR := float64(p.N), p.Dev.K, p.Dev.A, p.Slope, pl.tauR
	dst = dst[:len(values)]
	for i, v := range values {
		nlka := nf * v * kf * af
		l1 := -1 / nlka
		beta := nf * v * kf * sf
		dst[i] = beta * (1 - math.Exp(l1*tauR))
	}
	return len(values)
}

func (pl *Plan) runLOver(dst, values []float64) int {
	dst = dst[:len(values)]
	p := &pl.base
	nf, kf, af, sf, cc := float64(p.N), p.Dev.K, p.Dev.A, p.Slope, p.C
	tauR := pl.tauR
	for i, v := range values {
		nlka := nf * v * kf * af
		nlka2 := nlka * nlka
		disc := nlka2 - 4*v*cc
		if !(disc > critTol*nlka2) {
			return i
		}
		root := math.Sqrt(disc)
		den := 2 * v * cc
		l1 := (-nlka + root) / den
		l2 := (-nlka - root) / den
		if math.IsInf(l2, -1) { // subnormal L·C: degenerate, scalar path
			return i
		}
		num := l2*math.Exp(l1*tauR) - l1*math.Exp(l2*tauR)
		beta := nf * v * kf * sf
		dst[i] = beta * (1 - num/(l2-l1))
	}
	return len(values)
}

func (pl *Plan) runLCrit(dst, values []float64) int {
	dst = dst[:len(values)]
	p := &pl.base
	nf, kf, af, sf, cc := float64(p.N), p.Dev.K, p.Dev.A, p.Slope, p.C
	tauR, l := pl.tauR, -pl.sigmaL
	for i, v := range values {
		nlka := nf * v * kf * af
		nlka2 := nlka * nlka
		disc := nlka2 - 4*v*cc
		if !(math.Abs(disc) <= critTol*nlka2) {
			return i
		}
		beta := nf * v * kf * sf
		dst[i] = beta * (1 - (1-l*tauR)*math.Exp(l*tauR))
	}
	return len(values)
}

func (pl *Plan) runLPeak(dst, values []float64) int {
	dst = dst[:len(values)]
	p := &pl.base
	nf, kf, af, sf, cc := float64(p.N), p.Dev.K, p.Dev.A, p.Slope, p.C
	tauR, sigma := pl.tauR, pl.sigmaL
	for i, v := range values {
		nlka := nf * v * kf * af
		nlka2 := nlka * nlka
		disc := nlka2 - 4*v*cc
		if !(disc < -(critTol * nlka2)) {
			return i
		}
		omega := math.Sqrt(1/(v*cc) - sigma*sigma)
		if !(math.Pi/omega <= tauR) {
			return i
		}
		beta := nf * v * kf * sf
		dst[i] = beta * (1 + math.Exp(-sigma*math.Pi/omega))
	}
	return len(values)
}

func (pl *Plan) runLBound(dst, values []float64) int {
	dst = dst[:len(values)]
	p := &pl.base
	nf, kf, af, sf, cc := float64(p.N), p.Dev.K, p.Dev.A, p.Slope, p.C
	tauR, sigma := pl.tauR, pl.sigmaL
	for i, v := range values {
		nlka := nf * v * kf * af
		nlka2 := nlka * nlka
		disc := nlka2 - 4*v*cc
		if !(disc < -(critTol * nlka2)) {
			return i
		}
		omega := math.Sqrt(1/(v*cc) - sigma*sigma)
		if math.Pi/omega <= tauR {
			return i
		}
		e := math.Exp(-sigma * tauR)
		beta := nf * v * kf * sf
		dst[i] = beta * (1 - e*(math.Cos(omega*tauR)+sigma/omega*math.Sin(omega*tauR)))
	}
	return len(values)
}

// ---------------------------------------------------------------------------
// Slope axis: the damping is slope-free and fully hoisted; per point only
// β = (N·L·K)·s, τr = dv/s and the under-damped window split move, so the
// over- and critically-damped kinds cover the whole batch in one run and
// only the under-damped batch splits into peak/boundary runs. τp = π/ω is
// the same division tableCase performs, hoisted (same operands, same
// bits).

// classifySlope resolves the run kind at a slope value: the hoisted
// damping kind, split by the window for an under-damped plan.
func (pl *Plan) classifySlope(s float64) runKind {
	d := &pl.d
	switch d.kind {
	case dampOver:
		if math.IsInf(d.l2, -1) {
			return rkOverL
		}
		return rkOver
	case dampCrit:
		return rkCrit
	}
	if math.Pi/d.omega <= pl.dv/s {
		return rkPeak
	}
	return rkBound
}

// runSlopeOverL evaluates the C = 0 first-order limit: one exponential per
// point.
func (pl *Plan) runSlopeOverL(dst, values []float64) int {
	dst = dst[:len(values)]
	nlk, dv, l1 := pl.nlk, pl.dv, pl.d.l1
	for i, s := range values {
		beta := nlk * s
		tauR := dv / s
		dst[i] = beta * (1 - math.Exp(l1*tauR))
	}
	return len(values)
}

// runSlopeOver evaluates an over-damped batch: the roots are hoisted.
func (pl *Plan) runSlopeOver(dst, values []float64) int {
	dst = dst[:len(values)]
	nlk, dv, l1, l2 := pl.nlk, pl.dv, pl.d.l1, pl.d.l2
	for i, s := range values {
		beta := nlk * s
		tauR := dv / s
		num := l2*math.Exp(l1*tauR) - l1*math.Exp(l2*tauR)
		dst[i] = beta * (1 - num/(l2-l1))
	}
	return len(values)
}

// runSlopeCrit evaluates a critically-damped batch.
func (pl *Plan) runSlopeCrit(dst, values []float64) int {
	dst = dst[:len(values)]
	nlk, dv, l := pl.nlk, pl.dv, -pl.d.sigma
	for i, s := range values {
		beta := nlk * s
		tauR := dv / s
		dst[i] = beta * (1 - (1-l*tauR)*math.Exp(l*tauR))
	}
	return len(values)
}

// runSlopePeak evaluates an under-damped peak run: the peak gain
// 1 + e^(-σπ/ω) is slope-free and computed once, so the loop is a divide
// (the window check) and two multiplies per point.
func (pl *Plan) runSlopePeak(dst, values []float64) int {
	dst = dst[:len(values)]
	nlk, dv := pl.nlk, pl.dv
	tp := math.Pi / pl.d.omega
	gain := 1 + math.Exp(-pl.d.sigma*math.Pi/pl.d.omega)
	for i, s := range values {
		tauR := dv / s
		if !(tp <= tauR) {
			return i
		}
		dst[i] = (nlk * s) * gain
	}
	return len(values)
}

// runSlopeBound evaluates an under-damped boundary run: σ/ω is slope-free
// and hoisted; per point one exp, one sin, one cos.
func (pl *Plan) runSlopeBound(dst, values []float64) int {
	dst = dst[:len(values)]
	nlk, dv := pl.nlk, pl.dv
	sigma, omega := pl.d.sigma, pl.d.omega
	tp := math.Pi / omega
	for i, s := range values {
		tauR := dv / s
		if tp <= tauR {
			return i
		}
		beta := nlk * s
		e := math.Exp(-sigma * tauR)
		dst[i] = beta * (1 - e*(math.Cos(omega*tauR)+sigma/omega*math.Sin(omega*tauR)))
	}
	return len(values)
}
