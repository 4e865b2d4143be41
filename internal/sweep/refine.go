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
// grid; results stream through the same serialized sink.
func (e *engine) refine(ctx context.Context, cancel context.CancelFunc, cfg Config, workers int, sink Sink, stats *Stats) error {
	out := make(chan Point, workers)
	go func() {
		defer close(out)
		// Item k*blocks+b scans block b of the flat indices for pairs with
		// their successor along axis k, reading the compact case array
		// directly, so no task list is materialized.
		total := e.grid.Total()
		blocks := (total + refineBlock - 1) / refineBlock
		par.For(len(e.grid.Axes)*blocks, workers, func(int) func(int) {
			var scratch ssn.LCModel
			return func(i int) {
				k, lo := i/blocks, i%blocks*refineBlock
				points, stride := e.grid.Axes[k].Points, e.stride[k]
				for f := lo; f < min(lo+refineBlock, total); f++ {
					if (f/stride)%points == points-1 {
						continue // last coordinate along axis k
					}
					cLo, cHi := e.cases[f], e.cases[f+stride]
					if cLo == 0 || cHi == 0 || cLo == cHi {
						continue
					}
					if ctx.Err() != nil {
						return
					}
					idx := e.coords(f)
					vals := make([]float64, len(idx))
					for a, j := range idx {
						vals[a] = e.axisVals[a][j]
					}
					t := refTask{
						axis:  k,
						vals:  vals,
						lo:    e.axisVals[k][idx[k]],
						hi:    e.axisVals[k][idx[k]+1],
						cLo:   ssn.Case(cLo),
						cHi:   ssn.Case(cHi),
						depth: 1,
					}
					if cfg.Gate != nil {
						if err := cfg.Gate.Acquire(ctx); err != nil {
							return
						}
					}
					e.bisect(ctx, &scratch, t, cfg.RefineDepth, out)
					if cfg.Gate != nil {
						cfg.Gate.Release()
					}
				}
			}
		})
	}()

	var sinkErr error
	for pt := range out {
		if sinkErr != nil || ctx.Err() != nil {
			continue
		}
		stats.Evaluated++
		stats.RefinedPoints++
		if pt.Depth > stats.MaxDepth {
			stats.MaxDepth = pt.Depth
		}
		if pt.Err != nil {
			stats.Errors++
		}
		if err := sink(pt); err != nil {
			sinkErr = err
			cancel()
		}
	}
	if sinkErr != nil {
		return sinkErr
	}
	return ctx.Err()
}

// bisect evaluates the interval midpoint, emits it, and recurses into the
// halves whose endpoint cases still differ, down to maxDepth. Returns
// false when the context ended, which stops the recursion.
func (e *engine) bisect(ctx context.Context, scratch *ssn.LCModel, t refTask, maxDepth int, out chan<- Point) bool {
	if t.depth > maxDepth || ctx.Err() != nil {
		return ctx.Err() == nil
	}
	mid := midpoint(e.grid.Axes[t.axis].Log, t.lo, t.hi)
	if !e.splittable(t.axis, t.lo, mid, t.hi) {
		return true
	}
	vals := make([]float64, len(t.vals))
	copy(vals, t.vals)
	vals[t.axis] = mid
	pt := e.eval(scratch, nil, vals, t.depth)
	select {
	case out <- pt:
	case <-ctx.Done():
		return false
	}
	if pt.Err != nil {
		return true
	}
	if pt.Case != t.cLo {
		sub := t
		sub.vals, sub.hi, sub.cHi, sub.depth = vals, mid, pt.Case, t.depth+1
		if !e.bisect(ctx, scratch, sub, maxDepth, out) {
			return false
		}
	}
	if pt.Case != t.cHi {
		sub := t
		sub.vals, sub.lo, sub.cLo, sub.depth = vals, mid, pt.Case, t.depth+1
		if !e.bisect(ctx, scratch, sub, maxDepth, out) {
			return false
		}
	}
	return true
}
