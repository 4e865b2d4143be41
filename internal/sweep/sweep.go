// Package sweep is ssnkit's design-space exploration engine: a chunked,
// cancellable, multi-dimensional grid sweep over the closed-form maximum
// SSN. The paper's closed forms exist precisely so designers can explore
// the (N, L, C, slope, size) space without transistor-level simulation —
// β = N·L·K·s and the Table 1 case boundaries are design knobs — and this
// package turns one ssn.MaxSSN call into a hardware-saturating scan:
//
//   - a Grid is a cartesian product of Axes (linear or log spacing per
//     axis) applied over a base ssn.Params;
//   - evaluation is chunked and runs on par.For's bounded workers
//     (GOMAXPROCS by default), with driver re-extraction for a swept
//     size axis pulled through a memoized device.ExtractSpec cache;
//   - results stream incrementally to a sink a whole chunk at a time
//     (RunChunks, RunRangeChunks), so memory stays O(chunk), not
//     O(grid); base-grid points arrive in row-major grid order;
//   - a sink error or context cancellation stops the sweep promptly and
//     a run only returns once every worker goroutine has exited;
//   - optional adaptive refinement bisects between grid neighbors whose
//     Table 1 case differs — the damped-regime formula changes
//     discontinuously in derivative there — so extra resolution lands
//     exactly on the case boundaries.
//
// Both front-ends are thin over the engine's chunks: cmd/ssnsweep renders
// them as tables/CSV, resolving through Grid.Params only the points it
// simulates, and internal/serve streams them as NDJSON or SSNC over HTTP.
package sweep

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"ssnkit/internal/device"
	"ssnkit/internal/par"
	"ssnkit/internal/ssn"
)

// Axis names: the sweepable design knobs. AxisRise ("tr") is the
// designer-facing alias of AxisSlope — both set the input edge, so a grid
// may contain only one of them.
const (
	AxisN     = "n"     // simultaneously switching drivers (rounded to int >= 1)
	AxisL     = "l"     // effective ground inductance, H
	AxisC     = "c"     // effective ground capacitance, F
	AxisSlope = "slope" // input ramp slope, V/s
	AxisRise  = "tr"    // input rise time, s (slope = Vdd/tr)
	AxisSize  = "size"  // driver width multiple (re-extracts the ASDM)
)

// Axis is one swept dimension: Points samples from From to To, linearly or
// logarithmically spaced.
type Axis struct {
	Name string
	From float64
	To   float64
	// Points is the sample count; 1 pins the axis at From.
	Points int
	// Log selects logarithmic spacing (requires From > 0).
	Log bool
}

func (a Axis) validate() error {
	switch a.Name {
	case AxisN, AxisL, AxisC, AxisSlope, AxisRise, AxisSize:
	default:
		return fmt.Errorf("sweep: unknown axis %q (n, l, c, slope, tr, size)", a.Name)
	}
	if a.Points < 1 {
		return fmt.Errorf("sweep: axis %s needs at least 1 point", a.Name)
	}
	if a.Points > 1 && a.To <= a.From {
		return fmt.Errorf("sweep: axis %s: to = %g must exceed from = %g", a.Name, a.To, a.From)
	}
	if a.Log && a.From <= 0 {
		return fmt.Errorf("sweep: axis %s: log spacing needs a positive from", a.Name)
	}
	return nil
}

// Values materializes the axis coordinates.
func (a Axis) Values() []float64 {
	if a.Points == 1 {
		return []float64{a.From}
	}
	vs := make([]float64, a.Points)
	if a.Log {
		la, lb := math.Log(a.From), math.Log(a.To)
		for i := range vs {
			vs[i] = math.Exp(la + (lb-la)*float64(i)/float64(a.Points-1))
		}
	} else {
		for i := range vs {
			vs[i] = a.From + (a.To-a.From)*float64(i)/float64(a.Points-1)
		}
	}
	vs[a.Points-1] = a.To
	return vs
}

// Grid is the cartesian product of Axes over a base parameter point. Axes
// override the corresponding Base fields per point; everything else is
// fixed. When a size axis is present, Spec names the device to re-extract
// (its Size field is overwritten per point) and Base.Dev is ignored.
type Grid struct {
	Base ssn.Params
	Axes []Axis
	Spec device.ExtractSpec
}

// Total returns the number of base-grid points (product of axis counts).
func (g Grid) Total() int {
	t := 1
	for _, a := range g.Axes {
		t *= a.Points
	}
	return t
}

// Validate checks the axis set without running anything, so front-ends
// can reject a bad grid before committing to a streamed response. A grid
// whose point count overflows int is refused: Total would wrap.
func (g Grid) Validate() error {
	if len(g.Axes) == 0 {
		return fmt.Errorf("sweep: need at least one axis")
	}
	seen := map[string]bool{}
	total := 1
	for _, a := range g.Axes {
		if err := a.validate(); err != nil {
			return err
		}
		if total > math.MaxInt/a.Points {
			return fmt.Errorf("sweep: grid point count overflows int")
		}
		total *= a.Points
		name := a.Name
		if name == AxisRise {
			name = AxisSlope // tr and slope set the same knob
		}
		if seen[name] {
			return fmt.Errorf("sweep: duplicate axis %q", a.Name)
		}
		seen[name] = true
	}
	return nil
}

// ExtractFunc resolves a device extraction; front-ends plug in a shared
// cache (the serve ASDM extraction LRU) so repeated sizes never re-fit.
type ExtractFunc func(device.ExtractSpec) (device.ASDM, error)

// Config tunes one Run. The zero value is usable.
type Config struct {
	// Workers is the number of parallel chunk evaluators; <= 0 means
	// GOMAXPROCS.
	Workers int
	// ChunkSize is the number of grid points per unit of work; <= 0 means
	// 1024. The sink sees at most O(Workers x ChunkSize) buffered points.
	ChunkSize int
	// RefineDepth enables adaptive refinement around Table 1 case
	// boundaries, bisecting up to this many levels; 0 disables.
	RefineDepth int
	// Extract resolves device extraction for a swept size axis. Nil falls
	// back to direct (memoized) ExtractSpec.Extract calls.
	Extract ExtractFunc
	// Gate, when non-nil, bounds chunk concurrency globally.
	Gate par.Gate
}

// Point is one evaluated grid or refinement point of a Chunk. Per-point
// failures are reported in place via Err — one bad corner never aborts
// the rest of the grid. Grid.Params resolves a point's parameters from
// its Values.
type Point struct {
	// Index holds the grid coordinates in Grid.Axes order; nil for
	// refined points, which lie between grid coordinates.
	Index []int
	// Values holds the axis values in Grid.Axes order.
	Values []float64
	VMax   float64
	Case   ssn.Case
	// Depth is 0 for base-grid points, >= 1 for refinement levels.
	Depth int
	Err   error
}

// Chunk is one finished unit of work: the points of one base-grid chunk
// in row-major order, or a batch of refined points in evaluation order,
// beside the result columns the kernel wrote for them. Entry i of every
// column belongs to Points[i].
type Chunk struct {
	// Points holds the chunk's points; their Index and Values slices are
	// cut from the Index and Values columns.
	Points []Point
	// Values and Index back the points' Values and Index slices, strided
	// by the axis count A: point i owns [i*A, (i+1)*A). Index is nil in a
	// chunk of refined points.
	Values []float64
	Index  []int
	// VMax and Case hold each point's result; a failed point has NaN and
	// case 0 here (its Point keeps VMax 0). Depth holds each point's
	// refinement depth, 0 throughout a base-grid chunk.
	VMax  []float64
	Case  []ssn.Case
	Depth []int
	// Errors counts the points with Err set.
	Errors int
}

// ChunkSink receives every finished chunk. It is never called
// concurrently; returning an error cancels the sweep. Base-grid chunks
// arrive in grid order (last axis fastest), refined chunks after them in
// unspecified order. The Chunk and every slice it holds are pooled and
// valid only for the duration of the call: a sink that retains points
// past its return must copy the slices it keeps.
type ChunkSink func(*Chunk) error

// Stats summarizes one Run.
type Stats struct {
	GridPoints    int // size of the base grid
	Chunks        int // units of work the grid was split into
	Evaluated     int // points delivered to the sink (grid + refined)
	Errors        int // points delivered with Err set
	RefinedPoints int // refinement points delivered
	MaxDepth      int // deepest refinement level reached
	Workers       int // parallel evaluators used
}

// engine carries the per-run immutable state shared by all workers.
type engine struct {
	grid     Grid
	axisVals [][]float64
	stride   []int       // row-major stride per axis
	extract  ExtractFunc // memoized by Size; the spec is always grid.Spec's
	// cases records the Table 1 case per base-grid point (0 = failed),
	// written only by the emitter goroutine; refinement reads it after
	// the base grid completes. O(grid) bytes, allocated only when
	// refinement is enabled.
	cases []uint8

	// Compiled-plan state for the innermost axis. Points along the last
	// axis are contiguous in row-major order and share every other
	// coordinate, so each such run evaluates through one ssn.Plan compiled
	// for planAxis over planVals (the axis values, with a rise-time axis
	// pre-converted to slopes). planVals is nil when the innermost axis is
	// not batchable (a size axis re-extracts the device per point) — the
	// engine then falls back to the scalar path. planBad marks inner values
	// the scalar path would reject, so those points take the scalar
	// fallback and report the identical error.
	planAxis ssn.PlanAxis
	planVals []float64
	planBad  []bool
}

// maxAxes bounds the axis count of a grid: the six axis names minus the
// slope/tr collision. Fixed-size local copies of the outer coordinates are
// sized by it so the materialize loop reads stack slots the compiler knows
// cannot alias the point buffers.
const maxAxes = 8

func newEngine(g Grid, cfg Config) *engine {
	e := &engine{grid: g}
	e.axisVals = make([][]float64, len(g.Axes))
	for k, a := range g.Axes {
		e.axisVals[k] = a.Values()
	}
	e.stride = make([]int, len(g.Axes))
	s := 1
	for k := len(g.Axes) - 1; k >= 0; k-- {
		e.stride[k] = s
		s *= g.Axes[k].Points
	}
	if cfg.RefineDepth > 0 {
		e.cases = make([]uint8, g.Total())
	}
	e.compileInner()

	// Memoize extraction: the size axis revisits the same handful of
	// widths grid-line after grid-line, and extraction re-fits a
	// least-squares problem per call.
	inner := cfg.Extract
	if inner == nil {
		inner = directExtract
	}
	var mu sync.Mutex
	type extRes struct {
		dev device.ASDM
		err error
	}
	memo := map[float64]extRes{}
	e.extract = func(spec device.ExtractSpec) (device.ASDM, error) {
		mu.Lock()
		r, ok := memo[spec.Size]
		mu.Unlock()
		if !ok {
			r.dev, r.err = inner(spec)
			mu.Lock()
			memo[spec.Size] = r
			mu.Unlock()
		}
		return r.dev, r.err
	}
	return e
}

// compileInner resolves the innermost axis into its ssn.PlanAxis kind and
// per-coordinate values/validity, enabling the batched chunk path. A
// rise-time axis is converted to slope values up front (slope = Vdd/tr,
// the exact expression resolve uses; no axis ever changes Vdd, so the
// conversion is position-independent).
func (e *engine) compileInner() {
	last := len(e.grid.Axes) - 1
	raw := e.axisVals[last]
	switch e.grid.Axes[last].Name {
	case AxisN:
		e.planAxis = ssn.PlanAxisN
		e.planVals = raw
		e.planBad = make([]bool, len(raw)) // rounding clamps; never invalid
	case AxisL:
		e.planAxis = ssn.PlanAxisL
		e.planVals = raw
		e.planBad = make([]bool, len(raw))
		for i, v := range raw {
			e.planBad[i] = v <= 0
		}
	case AxisC:
		e.planAxis = ssn.PlanAxisC
		e.planVals = raw
		e.planBad = make([]bool, len(raw))
		for i, v := range raw {
			e.planBad[i] = v < 0
		}
	case AxisSlope:
		e.planAxis = ssn.PlanAxisSlope
		e.planVals = raw
		e.planBad = make([]bool, len(raw))
		for i, v := range raw {
			e.planBad[i] = v <= 0
		}
	case AxisRise:
		e.planAxis = ssn.PlanAxisSlope
		e.planVals = make([]float64, len(raw))
		e.planBad = make([]bool, len(raw))
		for i, v := range raw {
			e.planBad[i] = v <= 0
			e.planVals[i] = e.grid.Base.Vdd / v
		}
	default: // AxisSize re-extracts per point; no batch kernel
		e.planVals = nil
	}
}

// directExtract extracts the device afresh, without a cache.
func directExtract(spec device.ExtractSpec) (device.ASDM, error) {
	m, _, err := spec.Extract()
	return m, err
}

// Params resolves the parameter point at values, one axis value per axis
// in Axes order, exactly as the engine evaluates it: each axis overrides
// its Base field, and a size axis re-extracts Spec at that size through
// extract (nil extracts directly via Spec.Extract). A point the engine
// reports with a resolution error returns that error and zero Params.
func (g Grid) Params(values []float64, extract ExtractFunc) (ssn.Params, error) {
	if extract == nil {
		extract = directExtract
	}
	var p ssn.Params
	if err := g.resolve(&p, values, extract); err != nil {
		return ssn.Params{}, err
	}
	return p, nil
}

// resolve applies the axis values over the base parameters into *p.
func (g *Grid) resolve(p *ssn.Params, values []float64, extract ExtractFunc) error {
	*p = g.Base
	for k := range g.Axes {
		if err := g.apply(p, k, values[k], extract); err != nil {
			return err
		}
	}
	return nil
}

// apply applies the value of axis k onto p.
func (g *Grid) apply(p *ssn.Params, k int, v float64, extract ExtractFunc) error {
	switch g.Axes[k].Name {
	case AxisN:
		p.N = DriverCount(v)
	case AxisL:
		p.L = v
	case AxisC:
		p.C = v
	case AxisSlope:
		p.Slope = v
	case AxisRise:
		if v <= 0 {
			return fmt.Errorf("sweep: tr = %g must be positive", v)
		}
		p.Slope = p.Vdd / v
	case AxisSize:
		spec := g.Spec
		spec.Size = v
		dev, err := extract(spec)
		if err != nil {
			return err
		}
		p.Dev = dev
	}
	return nil
}

// DriverCount is the driver count an n-axis value sets: the nearest
// integer, at least 1, as ssn.Plan's N kernels round and clamp. A valid
// point reports it in place of its raw n value.
func DriverCount(v float64) int { return max(int(math.Round(v)), 1) }

// eval resolves and classifies one point on the scalar path, reusing the
// worker's scratch model so the hot loop does not allocate per point.
func (e *engine) eval(m *ssn.LCModel, values []float64) (float64, ssn.Case, error) {
	var p ssn.Params
	err := e.grid.resolve(&p, values, e.extract)
	if err == nil {
		err = m.Init(p)
	}
	if err != nil {
		return 0, 0, err
	}
	return m.VMax(), m.Case(), nil
}

// chunkBuf holds everything one unit of work needs to fill a Chunk
// without allocating: the Chunk itself, whose slices are cut from
// backing arrays of the buffer's capacity, and the per-worker scalar/plan
// scratch. Buffers cycle through a sync.Pool — the emitter returns each
// one after its chunk has been sunk, which is why ChunkSink documents the
// retention restriction.
type chunkBuf struct {
	Chunk
	idx     []int // backing for Chunk.Index, kept while refined chunks set it nil
	coord   []int // odometer state
	scratch ssn.LCModel
	plan    ssn.Plan
	// wiring state: how many Points have their Index/Values headers
	// pointed at the backing arrays, at which axis stride, and whether
	// for refined points, whose Index is nil.
	wiredPts int
	wiredAx  int
	refined  bool
}

func newChunkBuf(chunk, nAxes int) *chunkBuf {
	b := &chunkBuf{
		Chunk: Chunk{
			Points: make([]Point, chunk),
			Values: make([]float64, chunk*nAxes),
			VMax:   make([]float64, chunk),
			Case:   make([]ssn.Case, chunk),
			Depth:  make([]int, chunk),
		},
		idx:   make([]int, chunk*nAxes),
		coord: make([]int, nAxes),
	}
	b.wire(chunk, nAxes, false)
	return b
}

// wire points each buffered Point's Index/Values header at its slot of the
// backing arrays, and clears every other field and the depth column. The
// headers depend only on the buffer geometry — point i always owns slots
// [i·nAxes, (i+1)·nAxes) — so once wired they never change: evalChunk's
// per-point loop skips re-storing them, and a base-grid point's depth
// stays 0.
func (b *chunkBuf) wire(chunk, nAxes int, refined bool) {
	pts := b.Points[:cap(b.Points)]
	vals := b.Values[:cap(b.Values)]
	clear(b.Depth[:cap(b.Depth)])
	for i := 0; i < chunk; i++ {
		pts[i] = Point{Values: vals[i*nAxes : (i+1)*nAxes]}
		if !refined {
			pts[i].Index = b.idx[i*nAxes : (i+1)*nAxes]
		}
	}
	b.wiredPts, b.wiredAx, b.refined = chunk, nAxes, refined
}

// resize sets the chunk's length to n points.
func (b *chunkBuf) resize(n int) {
	nAx := b.wiredAx
	b.Points, b.Values = b.Points[:n], b.Values[:n*nAx]
	b.VMax, b.Case, b.Depth = b.VMax[:n], b.Case[:n], b.Depth[:n]
	b.Index = nil
	if !b.refined {
		b.Index = b.idx[:n*nAx]
	}
}

// setScalar stores the scalar-path result of point i: its fields, and its
// columns with a failure spelled NaN and case 0.
func (b *chunkBuf) setScalar(i int, v float64, c ssn.Case, err error) {
	pt := &b.Points[i]
	pt.VMax, pt.Case, pt.Err = v, c, err
	if err != nil {
		v, c = math.NaN(), 0
		b.Errors++
	}
	b.VMax[i], b.Case[i] = v, c
}

// chunkBufPool recycles chunk buffers across Runs so steady-state sweeps
// (a service evaluating grid after grid) stop paying the per-Run buffer
// allocation and the GC scans it induces.
var chunkBufPool sync.Pool

// getChunkBuf returns a chunk buffer for this Run's chunk size and axis
// count, for base-grid or refined points: a pooled one when its geometry
// fits, re-wired if the stride or the point kind changed; a misfit is
// dropped for the GC and replaced. Its filler empties it.
func getChunkBuf(chunk, nAxes int, refined bool) *chunkBuf {
	var b *chunkBuf
	if v := chunkBufPool.Get(); v != nil {
		b = v.(*chunkBuf)
		if cap(b.Points) < chunk || cap(b.idx) < chunk*nAxes || cap(b.Values) < chunk*nAxes ||
			cap(b.VMax) < chunk || cap(b.Case) < chunk || cap(b.Depth) < chunk || cap(b.coord) < nAxes {
			b = nil
		}
	}
	if b == nil {
		b = newChunkBuf(chunk, nAxes)
	}
	b.coord = b.coord[:nAxes]
	if b.wiredAx != nAxes || b.wiredPts < chunk || b.refined != refined {
		b.wire(chunk, nAxes, refined)
	}
	return b
}

// evalChunk evaluates grid points [lo, hi) into buf's Chunk. Consecutive
// row-major indices walk the innermost axis, so the chunk decomposes into
// runs that differ only in the inner coordinate; each run compiles one
// ssn.Plan over the outer point and evaluates the inner values through the
// batch kernel, straight into the chunk's result columns. Points the batch
// path cannot take — a size inner axis, an inner value the scalar path
// rejects, an outer resolution or compile failure — fall back to the
// scalar eval, which reproduces the identical result or error. The hot
// loop allocates nothing.
func (e *engine) evalChunk(ctx context.Context, buf *chunkBuf, lo, hi int) {
	nAx := len(e.grid.Axes)
	inner := nAx - 1
	innerPts := e.grid.Axes[inner].Points
	if buf.Errors > 0 {
		// Clear the last chunk's failures: the result pass stores only a
		// kernel point's VMax and Case.
		for i := range buf.Points {
			buf.Points[i].Err = nil
		}
		buf.Errors = 0
	}
	buf.resize(0)
	if ctx.Err() != nil {
		return
	}
	buf.resize(hi - lo)
	idxBack, valBack := buf.Index, buf.Values
	coord := buf.coord
	for k := range coord {
		coord[k] = (lo / e.stride[k]) % e.grid.Axes[k].Points
	}

	innerVals := e.axisVals[inner]
	for f := lo; f < hi; {
		off := f - lo // the run's first point in the chunk
		c0 := coord[inner]
		run := min(innerPts-c0, hi-f)

		// Resolve the run's shared outer point and compile its plan. Any
		// failure — non-batchable inner axis, outer resolution error,
		// compile rejection — drops the run (or the affected points) to the
		// scalar path below, which reproduces the identical result or error.
		usePlan := e.planVals != nil
		if usePlan {
			q := e.grid.Base
			for k := 0; k < inner; k++ {
				if e.grid.apply(&q, k, e.axisVals[k][coord[k]], e.extract) != nil {
					usePlan = false
					break
				}
			}
			usePlan = usePlan && buf.plan.Compile(q, e.planAxis) == nil
		}
		vmax, cs := buf.VMax[off:off+run], buf.Case[off:off+run]
		var bad []bool
		allValid := false // one kernel span covers the whole run
		if usePlan {
			vals := e.planVals[c0 : c0+run]
			bad = e.planBad[c0 : c0+run]
			// Kernel over the maximal valid spans, writing the run's slice of
			// the chunk's result columns. An N inner axis goes in raw: the
			// kernel rounds and clamps it as DriverCount does.
			for s := 0; s < run; {
				if bad[s] {
					s++
					continue
				}
				t := s + 1
				for t < run && !bad[t] {
					t++
				}
				allValid = s == 0 && t == run
				buf.plan.VMaxCaseBatch(vmax[s:t], cs[s:t], vals[s:t])
				s = t
			}
		}

		// Materialize the run's Index/Values backing column-major: outer
		// slots hold run-constant values written in tight strided loops,
		// and the inner slot walks the axis. Fixed-size stack copies of the
		// outer coordinates keep the loops free of aliasing reloads against
		// the point buffers.
		var oi [maxAxes]int
		var ov [maxAxes]float64
		for k := 0; k < nAx; k++ {
			oi[k] = coord[k]
			ov[k] = e.axisVals[k][coord[k]]
		}
		iu, end := off*nAx, (off+run)*nAx
		for k := 0; k < inner; k++ {
			ck, vk := oi[k], ov[k]
			for p := iu + k; p < end; p += nAx {
				idxBack[p] = ck
				valBack[p] = vk
			}
		}
		for p, j := iu+inner, 0; p < end; p, j = p+nAx, j+1 {
			idxBack[p] = c0 + j
			valBack[p] = innerVals[c0+j]
		}

		// Result pass: copy each kernel result into its point, whose
		// Index/Values headers are pre-wired to the backing slots just
		// filled. A run the kernel took whole (the common case) skips the
		// per-point validity test; any other point takes the scalar path.
		pts := buf.Points[off : off+run]
		for j := range pts {
			if !allValid && (!usePlan || bad[j]) {
				v, c, err := e.eval(&buf.scratch, pts[j].Values)
				buf.setScalar(off+j, v, c, err)
				continue
			}
			pts[j].VMax, pts[j].Case = vmax[j], cs[j]
		}

		f += run
		coord[inner] += run
		for k := inner; k > 0 && coord[k] >= e.grid.Axes[k].Points; k-- {
			coord[k] = 0
			coord[k-1]++
		}
	}
}

// errNilSink refuses a run without a sink.
var errNilSink = fmt.Errorf("sweep: nil sink")

// Run sweeps the grid, handing every point to sink by value, and returns
// the run statistics: RunChunks with each chunk's points passed on one at
// a time, under ChunkSink's ordering, cancellation and retention rules.
// It blocks until the sweep completes, the sink fails, or ctx is
// cancelled; in every case all worker goroutines have exited before it
// returns. The returned error is nil on completion, the sink's error, or
// ctx.Err().
func Run(ctx context.Context, g Grid, cfg Config, sink func(Point) error) (Stats, error) {
	if sink == nil {
		return Stats{}, errNilSink
	}
	return RunChunks(ctx, g, cfg, func(c *Chunk) error {
		for _, pt := range c.Points {
			if err := sink(pt); err != nil {
				return err
			}
		}
		return nil
	})
}

// RunChunks sweeps the whole grid, then refines it when cfg.RefineDepth
// is set, handing each finished chunk to sink whole. Stats count every
// point of each chunk handed to sink.
func RunChunks(ctx context.Context, g Grid, cfg Config, sink ChunkSink) (Stats, error) {
	return runGrid(ctx, g, cfg, 0, g.Total(), sink)
}

// runGrid checks the grid and the row-major index range [lo, hi), sweeps
// the range through sink and, when refinement is on, refines the grid.
// Only RunChunks refines, and it runs the whole grid.
func runGrid(ctx context.Context, g Grid, cfg Config, lo, hi int, sink ChunkSink) (Stats, error) {
	if sink == nil {
		return Stats{}, errNilSink
	}
	if err := g.Validate(); err != nil {
		return Stats{}, err
	}
	if total := g.Total(); lo < 0 || hi > total || lo > hi {
		return Stats{}, fmt.Errorf("sweep: range [%d, %d) outside grid of %d points", lo, hi, total)
	}
	e := newEngine(g, cfg)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	stats, err := e.runRange(ctx, cancel, cfg, lo, hi, sink)
	if err != nil || cfg.RefineDepth == 0 {
		return stats, err
	}
	// refine updates stats, so it runs before stats is read for return.
	err = e.refine(ctx, cancel, cfg, max(stats.Workers, 1), sink, &stats)
	return stats, err
}

// chunkSize is the configured chunk size, 1024 by default.
func chunkSize(cfg Config) int {
	if cfg.ChunkSize <= 0 {
		return 1024
	}
	return cfg.ChunkSize
}

// deliver counts a finished chunk into stats and hands it to sink.
func deliver(stats *Stats, b *chunkBuf, sink ChunkSink) error {
	n := len(b.Points)
	if n == 0 {
		return nil
	}
	stats.Evaluated += n
	stats.Errors += b.Errors
	if b.refined {
		stats.RefinedPoints += n
		stats.MaxDepth = max(stats.MaxDepth, slices.Max(b.Depth))
	}
	return sink(&b.Chunk)
}

// runRange evaluates the row-major index range [lo, hi) of the grid in
// chunks on par.For and streams the chunks in index order through sink.
// ctx must already be cancellable via cancel; all worker goroutines have
// exited when it returns.
func (e *engine) runRange(ctx context.Context, cancel context.CancelFunc, cfg Config, lo, hi int, sink ChunkSink) (Stats, error) {
	chunk := chunkSize(cfg)
	span := hi - lo
	nChunks := (span + chunk - 1) / chunk
	workers := par.Workers(cfg.Workers, nChunks)
	stats := Stats{GridPoints: span, Chunks: nChunks, Workers: workers}

	type chunkOut struct {
		idx int
		buf *chunkBuf
	}
	out := make(chan chunkOut, workers+1)
	go func() {
		defer close(out)
		par.For(nChunks, workers, func(int) func(int) {
			return func(ci int) {
				if ctx.Err() != nil {
					return
				}
				if cfg.Gate != nil {
					if err := cfg.Gate.Acquire(ctx); err != nil {
						return
					}
				}
				clo := lo + ci*chunk
				chi := min(clo+chunk, hi)
				buf := getChunkBuf(chunk, len(e.grid.Axes), false)
				e.evalChunk(ctx, buf, clo, chi)
				if cfg.Gate != nil {
					cfg.Gate.Release()
				}
				select {
				case out <- chunkOut{ci, buf}:
				case <-ctx.Done():
				}
			}
		})
	}()

	// Ordered emitter: deliver chunks to the sink in grid order. Workers
	// block once the reorder window fills, so pending holds at most
	// O(workers) chunks. Cancellation is observed at chunk granularity.
	var sinkErr error
	pending := map[int]*chunkBuf{}
	next := 0
	for co := range out {
		pending[co.idx] = co.buf
		for {
			buf, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			if sinkErr == nil && ctx.Err() == nil {
				if e.cases != nil {
					for i, c := range buf.Case {
						e.cases[lo+next*chunk+i] = uint8(c)
					}
				}
				if sinkErr = deliver(&stats, buf, sink); sinkErr != nil {
					cancel()
				}
			}
			next++
			chunkBufPool.Put(buf)
		}
	}
	if sinkErr != nil {
		return stats, sinkErr
	}
	return stats, ctx.Err()
}
