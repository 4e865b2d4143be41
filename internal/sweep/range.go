package sweep

import (
	"context"
	"fmt"
)

// RunRangeChunks evaluates the row-major index range [lo, hi) of the
// grid, handing its chunks to sink in index order; their points are
// exactly the same points a full RunChunks delivers. It is the sharding
// primitive of the distributed sweep coordinator: the grid decomposes into
// disjoint ranges, each range evaluates anywhere (any process, any
// replica), and the concatenation of the per-range streams in range order
// is byte-for-byte the single-process stream — chunk and plan-run
// boundaries never change a point's value, only the evaluation batching.
//
// Adaptive refinement is rejected (refined points interleave in
// unspecified order, which a deterministic shard decomposition cannot
// carry); everything else — workers, chunking, gating, extraction — works
// as in RunChunks.
func RunRangeChunks(ctx context.Context, g Grid, cfg Config, lo, hi int, sink ChunkSink) (Stats, error) {
	if cfg.RefineDepth > 0 {
		return Stats{}, fmt.Errorf("sweep: refinement is not supported for range runs")
	}
	return runGrid(ctx, g, cfg, lo, hi, sink)
}

// DomainError reports an axis whose coordinate range provably leaves the
// model's domain: every front-end that must commit to a streamed response
// can reject the grid with a structured 400 instead of streaming a wall of
// per-point errors.
type DomainError struct {
	Axis       string  // offending axis name
	Bound      float64 // the rejected range bound
	Constraint string  // violated constraint, e.g. "must be positive"
}

func (e *DomainError) Error() string {
	return fmt.Sprintf("sweep: axis %s: from = %g %s", e.Axis, e.Bound, e.Constraint)
}

// ValidateDomain extends Validate with static axis-domain checks. The
// engine itself reports out-of-domain points in place (one bad corner never
// aborts a grid), but an axis whose range starts outside the domain is a
// spec error, not a data point — linear spacing visits every value from
// From upward, so a non-positive inductance or rise-time From guarantees
// invalid points before the first one is evaluated. Size axes are exempt:
// extraction failures are dynamic and stay per-point.
func (g Grid) ValidateDomain() error {
	if err := g.Validate(); err != nil {
		return err
	}
	for _, a := range g.Axes {
		switch a.Name {
		case AxisL, AxisSlope, AxisRise:
			if a.From <= 0 {
				return &DomainError{Axis: a.Name, Bound: a.From, Constraint: "must be positive"}
			}
		case AxisC:
			if a.From < 0 {
				return &DomainError{Axis: a.Name, Bound: a.From, Constraint: "must be non-negative"}
			}
		}
	}
	return nil
}
