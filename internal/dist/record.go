package dist

import (
	"context"
	"errors"

	"ssnkit/internal/par"
	"ssnkit/internal/ssn"
	"ssnkit/internal/sweep"
)

// RecordError reports a per-point failure in place, in the same
// code/message/field envelope the service uses.
type RecordError struct {
	Code       string `json:"code"`
	Message    string `json:"message"`
	Field      string `json:"field,omitempty"`
	Value      any    `json:"value,omitempty"`
	Constraint string `json:"constraint,omitempty"`
}

// toRecordError maps a point error onto the wire, lifting structure out of
// ssn.ValidationError when present.
func toRecordError(err error) *RecordError {
	var ve *ssn.ValidationError
	if errors.As(err, &ve) {
		return &RecordError{Code: "invalid_request", Message: ve.Error(),
			Field: ve.Field, Value: ve.Value, Constraint: ve.Constraint}
	}
	return &RecordError{Code: "invalid_request", Message: err.Error()}
}

// EvalConfig tunes a worker-side shard evaluation.
type EvalConfig struct {
	// Workers bounds the parallel chunk evaluators; <= 0 means GOMAXPROCS.
	Workers int
	// Extract resolves device extraction for a swept size axis (plug in a
	// shared cache); nil falls back to direct extraction.
	Extract sweep.ExtractFunc
	// Gate, when non-nil, bounds chunk concurrency globally (a shard
	// evaluated inside ssnserve shares the one worker pool).
	Gate par.Gate
}

// EvalRange evaluates the row-major index range [lo, hi) of the spec's
// grid and returns its canonical NDJSON payload: one sweep.PointEncoder
// record per point in index order, per-point errors in place, as
// /v1/sweep streams them. The bytes depend only on (spec, lo, hi) — never
// on worker count, chunking or which process ran it.
func EvalRange(ctx context.Context, spec SweepSpec, lo, hi int, cfg EvalConfig) ([]byte, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	g, err := spec.Grid()
	if err != nil {
		return nil, err
	}
	// Sweep records run 120-140 bytes over log axes, so 160 per point holds
	// a two- or three-axis payload in one allocation.
	buf := make([]byte, 0, 160*(hi-lo))
	enc := sweep.NewPointEncoder(g.Axes, func(err error) any { return toRecordError(err) })
	sink := func(c *sweep.Chunk) (err error) {
		for i := range c.Points {
			if buf, err = enc.Append(buf, &c.Points[i]); err != nil {
				return err
			}
		}
		return nil
	}
	scfg := sweep.Config{Workers: cfg.Workers, Extract: cfg.Extract, Gate: cfg.Gate}
	if _, err := sweep.RunRangeChunks(ctx, g, scfg, lo, hi, sink); err != nil {
		return nil, err
	}
	return buf, nil
}

// EvalShard evaluates shard i of the spec: EvalRange over ShardRange(i).
func EvalShard(ctx context.Context, spec SweepSpec, i int, cfg EvalConfig) ([]byte, error) {
	if i < 0 || i >= spec.NumShards() {
		return nil, errors.New("dist: shard index outside the spec's decomposition")
	}
	lo, hi := spec.ShardRange(i)
	return EvalRange(ctx, spec, lo, hi, cfg)
}
