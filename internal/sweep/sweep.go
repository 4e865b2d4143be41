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
//   - results stream incrementally through a sink callback, so memory
//     stays O(chunk), not O(grid); base-grid points arrive in row-major
//     grid order;
//   - a sink error or context cancellation stops the sweep promptly and
//     Run only returns once every worker goroutine has exited;
//   - optional adaptive refinement bisects between grid neighbors whose
//     Table 1 case differs — the damped-regime formula changes
//     discontinuously in derivative there — so extra resolution lands
//     exactly on the case boundaries.
//
// Both front-ends are thin over Run: cmd/ssnsweep renders the stream as
// tables/CSV, and internal/serve streams it as NDJSON over HTTP.
package sweep

import (
	"context"
	"fmt"
	"math"
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
	// resolution failure).
	Params ssn.Params
	VMax   float64
	Case   ssn.Case
	// Depth is 0 for base-grid points, >= 1 for refinement levels.
	Depth int
	Err   error
}

// Sink receives every evaluated point. It is never called concurrently;
// returning an error cancels the sweep. Base-grid points arrive in
// row-major grid order (last axis fastest); refined points follow in
// unspecified order.
//
// The Point's Index and Values slices are backed by pooled chunk buffers
// and are valid only for the duration of the call: a sink that retains
// points past its return must copy the slices it keeps.
type Sink func(Point) error

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
// the exact expression paramsAt uses; no axis ever changes Vdd, so the
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

// coords decomposes a flat row-major index into per-axis coordinates.
func (e *engine) coords(flat int) []int {
	idx := make([]int, len(e.grid.Axes))
	for k := range idx {
		idx[k] = (flat / e.stride[k]) % e.grid.Axes[k].Points
	}
	return idx
}

// flat recomposes coordinates into the row-major index.
func (e *engine) flat(idx []int) int {
	f := 0
	for k, i := range idx {
		f += i * e.stride[k]
	}
	return f
}

// paramsAt applies the axis values over the base parameters.
func (e *engine) paramsAt(values []float64) (ssn.Params, error) {
	p := e.grid.Base
	for k := range e.grid.Axes {
		if err := e.applyOne(&p, k, values[k]); err != nil {
			return p, err
		}
	}
	return p, nil
}

// applyOne applies the value of one axis onto p.
func (e *engine) applyOne(p *ssn.Params, k int, v float64) error {
	switch e.grid.Axes[k].Name {
	case AxisN:
		p.N = driverCount(v)
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

// driverCount is the driver count an n-axis value sets: the nearest
// integer, at least 1, as ssn.Plan's N kernels round and clamp.
func driverCount(v float64) int { return max(int(math.Round(v)), 1) }

// eval resolves and classifies one point, reusing the worker's scratch
// model so the hot loop does not allocate per point.
func (e *engine) eval(m *ssn.LCModel, idx []int, values []float64, depth int) Point {
	pt := Point{Index: idx, Values: values, Depth: depth}
	p, err := e.paramsAt(values)
	if err != nil {
		pt.Err = err
		return pt
	}
	pt.Params = p
	if err := m.Init(p); err != nil {
		pt.Err = err
		return pt
	}
	pt.VMax = m.VMax()
	pt.Case = m.Case()
	return pt
}

// chunkBuf holds everything one unit of work needs to evaluate a chunk
// without allocating: the Point slice handed to the emitter, the backing
// arrays its Index/Values slices are cut from, batch-kernel outputs, and
// the per-worker scalar/plan scratch. Buffers cycle through a sync.Pool —
// the emitter returns each one after its points have been sunk, which is
// why Sink documents the retention restriction.
type chunkBuf struct {
	pts     []Point
	idx     []int     // len chunk*nAxes backing for Point.Index
	vals    []float64 // len chunk*nAxes backing for Point.Values
	coord   []int     // odometer state
	vmax    []float64 // batch kernel output
	cases   []ssn.Case
	scratch ssn.LCModel
	plan    ssn.Plan
	// wiring state: how many pts entries have their Index/Values headers
	// pointed at the backing arrays, and at which axis stride.
	wiredPts int
	wiredAx  int
}

func newChunkBuf(chunk, nAxes int) *chunkBuf {
	b := &chunkBuf{
		pts:   make([]Point, 0, chunk),
		idx:   make([]int, chunk*nAxes),
		vals:  make([]float64, chunk*nAxes),
		coord: make([]int, nAxes),
		vmax:  make([]float64, chunk),
		cases: make([]ssn.Case, chunk),
	}
	b.wire(chunk, nAxes)
	return b
}

// wire points each buffered Point's Index/Values header at its slot of the
// backing arrays. The headers depend only on the buffer geometry — point i
// always owns slots [i·nAxes, (i+1)·nAxes) — so once wired they never
// change and evalChunk's per-point loop skips re-storing them.
func (b *chunkBuf) wire(chunk, nAxes int) {
	pts := b.pts[:cap(b.pts)]
	idx := b.idx[:cap(b.idx)]
	vals := b.vals[:cap(b.vals)]
	for i := 0; i < chunk; i++ {
		pts[i].Index = idx[i*nAxes : (i+1)*nAxes]
		pts[i].Values = vals[i*nAxes : (i+1)*nAxes]
	}
	b.wiredPts = chunk
	b.wiredAx = nAxes
}

// chunkBufPool recycles chunk buffers across Runs so steady-state sweeps
// (a service evaluating grid after grid) stop paying the per-Run buffer
// allocation and the GC scans it induces.
var chunkBufPool sync.Pool

// getChunkBuf returns a pooled buffer when its geometry fits this Run's
// chunk size and axis count, re-slicing the length-tracked arrays and
// re-wiring the point headers if the stride changed; a misfit is dropped
// for the GC and replaced.
func getChunkBuf(chunk, nAxes int) *chunkBuf {
	if v := chunkBufPool.Get(); v != nil {
		b := v.(*chunkBuf)
		if cap(b.pts) >= chunk && cap(b.idx) >= chunk*nAxes && cap(b.vals) >= chunk*nAxes &&
			cap(b.vmax) >= chunk && cap(b.cases) >= chunk &&
			cap(b.coord) >= nAxes {
			b.vmax = b.vmax[:chunk]
			b.cases = b.cases[:chunk]
			b.coord = b.coord[:nAxes]
			if b.wiredAx != nAxes || b.wiredPts < chunk {
				b.wire(chunk, nAxes)
			}
			return b
		}
	}
	return newChunkBuf(chunk, nAxes)
}

// evalChunk evaluates grid points [lo, hi) into buf.pts. Consecutive
// row-major indices walk the innermost axis, so the chunk decomposes into
// runs that differ only in the inner coordinate; each run compiles one
// ssn.Plan over the outer point and evaluates the inner values through the
// batch kernel. Points the batch path cannot take — a size inner axis, an
// inner value the scalar path rejects, an outer resolution or compile
// failure — fall back to the scalar eval, which reproduces the identical
// result or error. The hot loop allocates nothing.
func (e *engine) evalChunk(ctx context.Context, buf *chunkBuf, lo, hi int) {
	nAx := len(e.grid.Axes)
	inner := nAx - 1
	innerPts := e.grid.Axes[inner].Points
	buf.pts = buf.pts[:0]
	iu := 0 // used prefix of the idx/vals backing arrays (same stride)
	idxBack := buf.idx[:cap(buf.idx)]
	valBack := buf.vals[:cap(buf.vals)]
	coord := buf.coord
	for k := range coord {
		coord[k] = (lo / e.stride[k]) % e.grid.Axes[k].Points
	}

	if ctx.Err() != nil {
		return
	}
	innerVals := e.axisVals[inner]
	for f := lo; f < hi; {
		c0 := coord[inner]
		run := innerPts - c0
		if run > hi-f {
			run = hi - f
		}

		// Resolve the run's shared outer point and compile its plan. Any
		// failure — non-batchable inner axis, outer resolution error,
		// compile rejection — drops the run (or the affected points) to the
		// scalar path below, which reproduces the identical result or error.
		usePlan := e.planVals != nil
		var q ssn.Params
		if usePlan {
			q = e.grid.Base
			for k := 0; k < inner; k++ {
				if e.applyOne(&q, k, e.axisVals[k][coord[k]]) != nil {
					usePlan = false
					break
				}
			}
		}
		if usePlan && buf.plan.Compile(q, e.planAxis) != nil {
			usePlan = false
		}
		var vals []float64
		var bad []bool
		allValid := false // one kernel span covers the whole run
		if usePlan {
			vals = e.planVals[c0 : c0+run]
			bad = e.planBad[c0 : c0+run]
			// Kernel over the maximal valid spans, writing at run offsets so
			// the result pass below indexes outputs by j directly. An N inner
			// axis goes in raw: the kernel rounds and clamps it as
			// driverCount does.
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
				buf.plan.VMaxCaseBatch(buf.vmax[s:t], buf.cases[s:t], vals[s:t])
				s = t
			}
		}

		// Materialize the run's Index/Values backing column-major: outer
		// slots hold run-constant values written in tight strided loops,
		// and the per-point result pass below touches only the inner slot.
		// Fixed-size stack copies of the outer coordinates keep the loops
		// free of aliasing reloads against the point buffers.
		var oi [maxAxes]int
		var ov [maxAxes]float64
		for k := 0; k < nAx; k++ {
			oi[k] = coord[k]
			ov[k] = e.axisVals[k][coord[k]]
		}
		end := iu + run*nAx
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

		// Result pass: write each point in place. The Index/Values headers
		// are pre-wired to the backing slots just filled, so only the result
		// fields move. Reused buffer entries keep Depth == 0 from their
		// zeroing at allocation (only base-grid points flow through chunks);
		// every other field is overwritten, including a stale Err. A run the
		// kernel took whole (the common case) skips the per-point validity
		// test. A kernel point takes the run's outer point with the inner
		// value set as the kernel read it (a rise time arrives as its slope
		// in planVals); any other point takes the scalar path.
		start := len(buf.pts)
		buf.pts = buf.pts[:start+run]
		pts := buf.pts[start : start+run]
		iu = end
		vmax, cs := buf.vmax[:run], buf.cases[:run]
		for j := range pts {
			pt := &pts[j]
			if !allValid && (!usePlan || bad[j]) {
				*pt = e.eval(&buf.scratch, pt.Index, pt.Values, 0)
				continue
			}
			pt.Params = q
			switch v := vals[j]; e.planAxis {
			case ssn.PlanAxisN:
				pt.Params.N = driverCount(v)
			case ssn.PlanAxisL:
				pt.Params.L = v
			case ssn.PlanAxisC:
				pt.Params.C = v
			case ssn.PlanAxisSlope:
				pt.Params.Slope = v
			}
			pt.VMax = vmax[j]
			pt.Case = cs[j]
			pt.Err = nil
		}

		f += run
		coord[inner] += run
		for k := inner; k > 0 && coord[k] >= e.grid.Axes[k].Points; k-- {
			coord[k] = 0
			coord[k-1]++
		}
	}
}

// Run sweeps the grid, streaming every point through sink, and returns the
// run statistics. It blocks until the sweep completes, the sink fails, or
// ctx is cancelled; in every case all worker goroutines have exited before
// it returns. The returned error is nil on completion, the sink's error,
// or ctx.Err().
func Run(ctx context.Context, g Grid, cfg Config, sink Sink) (Stats, error) {
	if sink == nil {
		return Stats{}, fmt.Errorf("sweep: nil sink")
	}
	if err := g.Validate(); err != nil {
		return Stats{}, err
	}
	e := newEngine(g, cfg)

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

// runRange evaluates the row-major index range [lo, hi) of the grid in
// chunks on par.For and streams the points in index order through sink.
// ctx must already be cancellable via cancel; all worker goroutines have
// exited when it returns.
func (e *engine) runRange(ctx context.Context, cancel context.CancelFunc, cfg Config, lo, hi int, sink Sink) (Stats, error) {
	chunk := cfg.ChunkSize
	if chunk <= 0 {
		chunk = 1024
	}
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
				buf := getChunkBuf(chunk, len(e.grid.Axes))
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
	// O(workers) chunks. Cancellation is observed at chunk granularity —
	// a chunk is microseconds of sink work — so the hot loop avoids the
	// per-point context poll (ctx.Err takes a mutex).
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
			next++
			if sinkErr == nil && ctx.Err() == nil {
				pts := buf.pts
				for i := range pts {
					stats.Evaluated++
					if pts[i].Err != nil {
						stats.Errors++
					} else if e.cases != nil {
						e.cases[e.flat(pts[i].Index)] = uint8(pts[i].Case)
					}
					if err := sink(pts[i]); err != nil {
						sinkErr = err
						cancel()
						break
					}
				}
			}
			chunkBufPool.Put(buf)
		}
	}
	if sinkErr != nil {
		return stats, sinkErr
	}
	return stats, ctx.Err()
}
