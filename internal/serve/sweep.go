package serve

import (
	"fmt"
	"net/http"

	"ssnkit/internal/device"
	"ssnkit/internal/sweep"
)

// SweepAxis is the wire shape of one swept dimension.
type SweepAxis struct {
	Axis   string  `json:"axis"` // n, l, c, slope, tr, size
	From   float64 `json:"from"`
	To     float64 `json:"to"`
	Points int     `json:"points"`
	Log    bool    `json:"log,omitempty"`
}

// sweepRequest asks for a multi-axis grid sweep streamed as NDJSON. The
// fixed parameters use the shared params envelope; swept fields may be
// omitted there (axes override them per point).
type sweepRequest struct {
	paramsEnvelope
	Axes        []SweepAxis `json:"axes"`
	ChunkSize   int         `json:"chunk_size,omitempty"`   // default 1024
	Workers     int         `json:"workers,omitempty"`      // capped at the server pool
	RefineDepth int         `json:"refine_depth,omitempty"` // case-boundary bisection levels, max 8
}

// sweepStats mirrors sweep.Stats on the wire.
type sweepStats struct {
	GridPoints    int `json:"grid_points"`
	Chunks        int `json:"chunks"`
	Evaluated     int `json:"evaluated"`
	Errors        int `json:"errors"`
	RefinedPoints int `json:"refined_points"`
	MaxDepth      int `json:"max_refine_depth"`
	Workers       int `json:"workers"`
}

// sweepSummary is the terminal record of a completed sweep: the last
// NDJSON line, or the meta of the last SSNC block.
type sweepSummary struct {
	Done  bool       `json:"done"`
	Stats sweepStats `json:"stats"`
}

// maxRefineDepth bounds the refinement recursion a request may ask for.
const maxRefineDepth = 8

// buildSweep validates the request and assembles the engine inputs.
func (s *Server) buildSweep(req sweepRequest) (sweep.Grid, sweep.Config, *apiError) {
	var g sweep.Grid
	var cfg sweep.Config
	if len(req.Axes) == 0 {
		return g, cfg, &apiError{Code: CodeInvalidRequest, Message: "need at least one axis",
			Field: "axes", Constraint: "must name 1 or more swept axes"}
	}
	total := 1
	sizeSwept := false
	for _, ax := range req.Axes {
		if ax.Points < 1 {
			return g, cfg, &apiError{Code: CodeInvalidRequest,
				Message: fmt.Sprintf("axis %s: points = %d must be at least 1", ax.Axis, ax.Points),
				Field:   "axes", Value: ax.Points, Constraint: "points >= 1"}
		}
		if total > s.cfg.MaxSweepPoints/ax.Points {
			total = s.cfg.MaxSweepPoints + 1
			break
		}
		total *= ax.Points
		if ax.Axis == sweep.AxisSize {
			sizeSwept = true
		}
		g.Axes = append(g.Axes, sweep.Axis{Name: ax.Axis, From: ax.From, To: ax.To,
			Points: ax.Points, Log: ax.Log})
	}
	if total > s.cfg.MaxSweepPoints {
		return g, cfg, &apiError{Code: CodeGridTooLarge,
			Message:    fmt.Sprintf("grid exceeds the %d-point limit", s.cfg.MaxSweepPoints),
			Field:      "axes",
			Constraint: fmt.Sprintf("at most %d grid points", s.cfg.MaxSweepPoints)}
	}
	// Reject malformed axes (unknown name, duplicates, inverted range) and
	// statically-invalid domains (an l/slope/tr axis starting at or below
	// zero fails on every point) here, while a 400 status line is still
	// possible — once streaming starts, errors can only arrive as trailing
	// NDJSON records.
	if err := g.ValidateDomain(); err != nil {
		return g, cfg, toAPIError(err)
	}

	// Resolve the fixed parameters, defaulting the swept fields so a
	// request need not supply values the axes will overwrite anyway.
	it := req.item()
	for _, ax := range req.Axes {
		switch ax.Axis {
		case sweep.AxisN:
			if it.N == 0 {
				it.N = 1
			}
		case sweep.AxisSlope, sweep.AxisRise:
			if it.Slope == 0 && it.RiseTime == 0 {
				it.RiseTime = 1e-9
			}
		}
	}
	if sizeSwept {
		if it.Dev != nil {
			return g, cfg, &apiError{Code: CodeInvalidRequest,
				Message: "a size axis re-extracts the device and cannot be combined with an explicit dev",
				Field:   "dev", Constraint: "omit dev when sweeping size"}
		}
		spec, err := it.extractSpec()
		if err != nil {
			return g, cfg, toAPIError(err)
		}
		g.Spec = spec
	}
	p, err := it.resolve(s.cache)
	if err != nil {
		return g, cfg, toAPIError(err)
	}
	g.Base = p

	if req.RefineDepth < 0 || req.RefineDepth > maxRefineDepth {
		return g, cfg, &apiError{Code: CodeInvalidRequest,
			Message: fmt.Sprintf("refine_depth = %d outside [0, %d]", req.RefineDepth, maxRefineDepth),
			Field:   "refine_depth", Value: req.RefineDepth,
			Constraint: fmt.Sprintf("must be within [0, %d]", maxRefineDepth)}
	}
	cfg = sweep.Config{
		Workers:     req.Workers,
		ChunkSize:   req.ChunkSize,
		RefineDepth: req.RefineDepth,
		Gate:        s.pool,
		Extract: func(spec device.ExtractSpec) (device.ASDM, error) {
			m, _, err := s.cache.Get(spec)
			return m, err
		},
	}
	if cfg.Workers <= 0 || cfg.Workers > s.cfg.Workers {
		cfg.Workers = s.cfg.Workers
	}
	return g, cfg, nil
}

// handleSweep serves POST /v1/sweep: a chunked multi-axis grid sweep
// streamed as NDJSON, one record per point, with per-point errors in
// place, optional adaptive refinement records, and a terminal
// {"done":true} summary. Cancelling the request (closing the connection)
// cancels the sweep mid-stream; the engine guarantees no goroutine
// survives the handler.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if aerr := s.decodeEnvelope(w, r, &req); aerr != nil {
		writeError(w, aerr)
		return
	}
	g, cfg, aerr := s.buildSweep(req)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	if columnarResponseFor(r) {
		s.runSweepColumnar(w, r, g, cfg)
		return
	}

	st := startStream(w, "application/x-ndjson")
	enc := sweep.NewPointEncoder(g.Axes, func(err error) any { return toAPIError(err) })
	stats, err := sweep.RunChunks(r.Context(), g, cfg, func(c *sweep.Chunk) error {
		for i := range c.Points {
			b, err := enc.Append(st.buf.AvailableBuffer(), &c.Points[i])
			if err != nil {
				return err
			}
			st.buf.Write(b)
			if err := st.endLine(); err != nil {
				return err
			}
		}
		return nil
	})
	s.countSweep(stats, err)
	st.finish(sweepDone(stats), err)
}

// sweepDone is the terminal summary of a sweep that ran to completion.
func sweepDone(st sweep.Stats) sweepSummary {
	return sweepSummary{Done: true, Stats: sweepStats{
		GridPoints: st.GridPoints, Chunks: st.Chunks,
		Evaluated: st.Evaluated, Errors: st.Errors,
		RefinedPoints: st.RefinedPoints, MaxDepth: st.MaxDepth,
		Workers: st.Workers,
	}}
}

// countSweep records one finished (or aborted) sweep run.
func (s *Server) countSweep(st sweep.Stats, err error) {
	m := s.metrics
	m.sweeps.inc()
	if err != nil {
		m.sweepsAborted.inc()
	}
	m.sweepPoints.add(st.Evaluated)
	m.sweepChunks.add(st.Chunks)
	m.sweepRefined.add(st.RefinedPoints)
}
