package sweep

import (
	"context"
	"math"

	"ssnkit/internal/par"
	"ssnkit/internal/ssn"
)

// refineBlock is how many flat grid indices one refinement item scans for
// boundary pairs: a claim per index cost more than the scan itself.
const refineBlock = 1024

// refTask is one boundary interval to bisect: along axis k, between
// neighboring coordinates lo and hi whose Table 1 cases differ. vals holds
// the full axis-value vector; vals[axis] is replaced during bisection.
type refTask struct {
	axis     int
	vals     []float64
	lo, hi   float64
	cLo, cHi ssn.Case
	depth    int
}

// midpoint bisects the interval in the axis's own metric: geometric for
// log-spaced axes, arithmetic otherwise.
func midpoint(logAxis bool, lo, hi float64) float64 {
	if logAxis && lo > 0 {
		return math.Sqrt(lo * hi)
	}
	return lo + (hi-lo)/2
}

// splittable reports whether inserting mid between lo and hi yields a new,
// distinct point. The N axis additionally requires a fresh integer: once
// round(lo) and round(hi) are adjacent there is nothing between them.
func (e *engine) splittable(axis int, lo, mid, hi float64) bool {
	if !(mid > lo && mid < hi) {
		return false // interval exhausted in floating point
	}
	if e.grid.Axes[axis].Name == AxisN {
		m := math.Round(mid)
		if m == math.Round(lo) || m == math.Round(hi) {
			return false
		}
	}
	return true
}

// refine runs the adaptive pass: scan every pair of grid-adjacent points
// whose case classification differs and recursively bisect the interval,
// so extra resolution lands exactly where the closed form switches
// formula (the derivative of Vmax is discontinuous across Table 1 case
// boundaries). The pairs run on par.For at the same width as the base
// grid; each worker batches its refined points into chunks, which stream
// through the same serialized sink.
func (e *engine) refine(ctx context.Context, cancel context.CancelFunc, cfg Config, workers int, sink ChunkSink, stats *Stats) error {
	out := make(chan *chunkBuf, workers)
	go func() {
		defer close(out)
		// Item k*blocks+b scans block b of the flat indices for pairs with
		// their successor along axis k, reading the compact case array
		// directly, so no task list is materialized.
		total := e.grid.Total()
		blocks := (total + refineBlock - 1) / refineBlock
		par.For(len(e.grid.Axes)*blocks, workers, func(int) func(int) {
			var scratch ssn.LCModel
			batch := refineBatch{e: e, ctx: ctx, out: out, size: chunkSize(cfg)}
			vals := make([]float64, len(e.grid.Axes))
			return func(i int) {
				k, lo := i/blocks, i%blocks*refineBlock
				points, stride := e.grid.Axes[k].Points, e.stride[k]
				for f := lo; f < min(lo+refineBlock, total); f++ {
					c := (f / stride) % points
					if c == points-1 {
						continue // last coordinate along axis k
					}
					cLo, cHi := e.cases[f], e.cases[f+stride]
					if cLo == 0 || cHi == 0 || cLo == cHi {
						continue
					}
					if ctx.Err() != nil {
						return
					}
					for a := range vals {
						vals[a] = e.axisVals[a][(f/e.stride[a])%e.grid.Axes[a].Points]
					}
					t := refTask{
						axis:  k,
						vals:  vals,
						lo:    vals[k],
						hi:    e.axisVals[k][c+1],
						cLo:   ssn.Case(cLo),
						cHi:   ssn.Case(cHi),
						depth: 1,
					}
					if cfg.Gate != nil {
						if err := cfg.Gate.Acquire(ctx); err != nil {
							return
						}
					}
					e.bisect(ctx, &scratch, t, cfg.RefineDepth, &batch)
					if cfg.Gate != nil {
						cfg.Gate.Release()
					}
				}
				batch.send()
			}
		})
	}()

	var sinkErr error
	for buf := range out {
		if sinkErr == nil && ctx.Err() == nil {
			if sinkErr = deliver(stats, buf, sink); sinkErr != nil {
				cancel()
			}
		}
		chunkBufPool.Put(buf)
	}
	if sinkErr != nil {
		return sinkErr
	}
	return ctx.Err()
}

// refineBatch collects one worker's refined points into a chunk and sends
// it to the emitter when it is full or the worker's item ends.
type refineBatch struct {
	e    *engine
	ctx  context.Context
	out  chan<- *chunkBuf
	size int
	buf  *chunkBuf
}

// add evaluates the refined point at vals and depth into the pending
// chunk. It returns the point's case, 0 when it failed, and false once
// ctx has ended.
func (r *refineBatch) add(m *ssn.LCModel, vals []float64, depth int) (ssn.Case, bool) {
	if r.buf == nil {
		r.buf = getChunkBuf(r.size, len(vals), true)
		r.buf.resize(0)
		r.buf.Errors = 0
	}
	b := r.buf
	i := len(b.Points)
	b.resize(i + 1)
	pt := &b.Points[i]
	copy(pt.Values, vals)
	pt.Depth, b.Depth[i] = depth, depth
	v, c, err := r.e.eval(m, pt.Values)
	b.setScalar(i, v, c, err)
	if i+1 == r.size {
		return c, r.send()
	}
	return c, true
}

// send hands the pending chunk, if any, to the emitter. It returns false,
// dropping the chunk, once ctx has ended.
func (r *refineBatch) send() bool {
	b := r.buf
	if b == nil {
		return true
	}
	r.buf = nil
	select {
	case r.out <- b:
		return true
	case <-r.ctx.Done():
		chunkBufPool.Put(b)
		return false
	}
}

// bisect evaluates the interval midpoint, emits it, and recurses into the
// halves whose endpoint cases still differ, down to maxDepth. t.vals is
// the worker's scratch vector: only its t.axis entry varies within one
// boundary pair, and each call sets it before evaluating. Returns false
// when the context ended, which stops the recursion.
func (e *engine) bisect(ctx context.Context, scratch *ssn.LCModel, t refTask, maxDepth int, out *refineBatch) bool {
	if t.depth > maxDepth || ctx.Err() != nil {
		return ctx.Err() == nil
	}
	mid := midpoint(e.grid.Axes[t.axis].Log, t.lo, t.hi)
	if !e.splittable(t.axis, t.lo, mid, t.hi) {
		return true
	}
	t.vals[t.axis] = mid
	c, ok := out.add(scratch, t.vals, t.depth)
	if !ok {
		return false
	}
	if c == 0 {
		return true // failed point: nothing to bisect against
	}
	if c != t.cLo {
		sub := t
		sub.hi, sub.cHi, sub.depth = mid, c, t.depth+1
		if !e.bisect(ctx, scratch, sub, maxDepth, out) {
			return false
		}
	}
	if c != t.cHi {
		sub := t
		sub.lo, sub.cLo, sub.depth = mid, c, t.depth+1
		if !e.bisect(ctx, scratch, sub, maxDepth, out) {
			return false
		}
	}
	return true
}
