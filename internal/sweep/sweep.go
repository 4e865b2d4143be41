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
//     (RunChunks), or a point at a time through the Run adapter, so
//     memory stays O(chunk), not O(grid); base-grid points arrive in
//     row-major grid order;
//   - a sink error or context cancellation stops the sweep promptly and
//     a run only returns once every worker goroutine has exited;
//   - optional adaptive refinement bisects between grid neighbors whose
//     Table 1 case differs — the damped-regime formula changes
//     discontinuously in derivative there — so extra resolution lands
//     exactly on the case boundaries.
//
// Both front-ends are thin over the engine: cmd/ssnsweep renders Run's
// points as tables/CSV, and internal/serve streams RunChunks' chunks as
// NDJSON or SSNC over HTTP.
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
// can reject a bad grid before committing to a streamed response.
func (g Grid) Validate() error {
	if len(g.Axes) == 0 {
		return fmt.Errorf("sweep: need at least one axis")
	}
	seen := map[string]bool{}
	for _, a := range g.Axes {
		if err := a.validate(); err != nil {
			return err
		}
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

// Point is one streamed result. Per-point failures are reported in place
// via Err — one bad corner never aborts the rest of the grid.
type Point struct {
	// Index holds the grid coordinates in Grid.Axes order; nil for
	// refined points, which lie between grid coordinates.
	Index []int
	// Values holds the axis values in Grid.Axes order.
	Values []float64
	// Params is the fully resolved parameter point (zero when Err is a
	// resolution failure). Only Run and RunRange resolve it: in a Chunk
	// it is always zero.
	Params ssn.Params
	VMax   float64
	Case   ssn.Case
	// Depth is 0 for base-grid points, >= 1 for refinement levels.
	Depth int
	Err   error
}

// Sink receives every evaluated point from Run and RunRange. It is never
// called concurrently; returning an error cancels the sweep. Base-grid
// points arrive in row-major grid order (last axis fastest); refined
// points follow in unspecified order.
//
// The Point's Index and Values slices are backed by pooled chunk buffers
// and are valid only for the duration of the call: a sink that retains
// points past its return must copy the slices it keeps.
type Sink func(Point) error

// Chunk is one finished unit of work: the points of one base-grid chunk
// in row-major order, or a batch of refined points in evaluation order,
// beside the result columns the kernel wrote for them. Entry i of every
// column belongs to Points[i].
type Chunk struct {
	// Points holds the chunk's points, with Params zero.
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

// ChunkSink receives every finished chunk, under Sink's ordering and
// cancellation rules: never concurrently, base-grid chunks in grid order,
// refined chunks after them. The Chunk and every slice it holds are
// pooled and valid only for the duration of the call.
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
	stride   []int // row-major stride per axis
	extract  func(size float64) (device.ASDM, error)
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
		inner = func(spec device.ExtractSpec) (device.ASDM, error) {
			m, _, err := spec.Extract()
			return m, err
		}
	}
	var mu sync.Mutex
	type extRes struct {
		dev device.ASDM
		err error
	}
	memo := map[float64]extRes{}
	e.extract = func(size float64) (device.ASDM, error) {
		mu.Lock()
		r, ok := memo[size]
		mu.Unlock()
		if !ok {
			spec := e.grid.Spec
			spec.Size = size
			r.dev, r.err = inner(spec)
			mu.Lock()
			memo[size] = r
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

// resolve applies the axis values over the base parameters into *p.
func (e *engine) resolve(p *ssn.Params, values []float64) error {
	*p = e.grid.Base
	for k := range e.grid.Axes {
		if err := e.applyOne(p, k, values[k]); err != nil {
			return err
		}
	}
	return nil
}

// applyOne applies the value of one axis onto p.
func (e *engine) applyOne(p *ssn.Params, k int, v float64) error {
	switch e.grid.Axes[k].Name {
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
		dev, err := e.extract(v)
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
	err := e.resolve(&p, values)
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
				if e.applyOne(&q, k, e.axisVals[k][coord[k]]) != nil {
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

// Run sweeps the grid, streaming every point through sink, and returns the
// run statistics. It blocks until the sweep completes, the sink fails, or
// ctx is cancelled; in every case all worker goroutines have exited before
// it returns. The returned error is nil on completion, the sink's error,
// or ctx.Err(). It is RunChunks with each chunk's points resolved (Params)
// and handed to sink one at a time.
func Run(ctx context.Context, g Grid, cfg Config, sink Sink) (Stats, error) {
	if sink == nil {
		return Stats{}, errNilSink
	}
	return runGrid(ctx, g, cfg, nil, sink)
}

// RunChunks is Run with the chunk as the unit of delivery: sink receives
// each finished chunk whole, its points' Params unresolved. Stats count
// every point of each chunk handed to sink.
func RunChunks(ctx context.Context, g Grid, cfg Config, sink ChunkSink) (Stats, error) {
	if sink == nil {
		return Stats{}, errNilSink
	}
	return runGrid(ctx, g, cfg, sink, nil)
}

// runGrid sweeps the whole grid, then refines it, through sink, or
// through pts when it is set.
func runGrid(ctx context.Context, g Grid, cfg Config, sink ChunkSink, pts Sink) (Stats, error) {
	if err := g.Validate(); err != nil {
		return Stats{}, err
	}
	e := newEngine(g, cfg)
	if pts != nil {
		sink = e.points(pts)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	stats, err := e.runRange(ctx, cancel, cfg, 0, g.Total(), sink)
	if err != nil {
		return stats, err
	}
	if cfg.RefineDepth > 0 {
		workers := stats.Workers
		if workers < 1 {
			workers = 1
		}
		if err := e.refine(ctx, cancel, cfg, workers, sink, &stats); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// points adapts a Sink to the chunk stream: each point gets its resolved
// Params — resolve reproduces the value the scalar path resolves, and a
// resolution failure leaves it zero — and goes to sink by value.
func (e *engine) points(sink Sink) ChunkSink {
	return func(c *Chunk) error {
		for i := range c.Points {
			pt := c.Points[i]
			if e.resolve(&pt.Params, pt.Values) != nil {
				pt.Params = ssn.Params{}
			}
			if err := sink(pt); err != nil {
				return err
			}
		}
		return nil
	}
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
