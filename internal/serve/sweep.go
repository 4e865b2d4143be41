package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

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

// sweepPoint is one NDJSON record: the resolved axis values, the Table 1
// answer, and — for failed points — the standard error object in place.
type sweepPoint struct {
	Values   map[string]float64 `json:"values"`
	VMax     float64            `json:"vmax,omitempty"`
	Case     string             `json:"case,omitempty"`
	CaseCode int                `json:"case_code,omitempty"`
	Depth    int                `json:"depth,omitempty"`
	Error    *apiError          `json:"error,omitempty"`
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

// sweepSummary is the terminal NDJSON record of a completed sweep.
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

// sweepRecordInto shapes one engine point for the wire into a reused
// record: resolved values (the rounded N, the extracted size) where
// available, raw axis values for failed points. Reuse matters at 10^5+
// points per stream — the Values map keys are the axis names on every
// point, so overwriting in place allocates nothing after the first call.
func sweepRecordInto(rec *sweepPoint, axes []sweep.Axis, pt sweep.Point) {
	if rec.Values == nil {
		rec.Values = make(map[string]float64, len(axes))
	}
	rec.Depth = pt.Depth
	rec.VMax = 0
	rec.Case = ""
	rec.CaseCode = 0
	rec.Error = nil
	for k, ax := range axes {
		v := pt.Values[k]
		if ax.Name == sweep.AxisN && pt.Err == nil {
			v = float64(pt.Params.N)
		}
		rec.Values[ax.Name] = v
	}
	if pt.Err != nil {
		rec.Error = toAPIError(pt.Err)
		return
	}
	rec.VMax = pt.VMax
	rec.Case = pt.Case.String()
	rec.CaseCode = int(pt.Case)
}

// sweepFlushEvery bounds how many NDJSON lines may buffer before a flush:
// clients observe progress incrementally without a per-line syscall.
const sweepFlushEvery = 64

// sweepBufPool recycles NDJSON encode buffers across sweep requests.
// Records are encoded into a pooled bytes.Buffer and written to the
// connection once per sweepFlushEvery lines, so the per-point cost is a
// JSON encode into memory, not a ResponseWriter round trip.
var sweepBufPool = sync.Pool{
	New: func() any { return new(bytes.Buffer) },
}

// sweepBufMaxRetain caps the capacity of a buffer returned to the pool; a
// stream of pathologically wide records must not pin its high-water mark
// for the life of the process.
const sweepBufMaxRetain = 1 << 16

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

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	buf := sweepBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= sweepBufMaxRetain {
			sweepBufPool.Put(buf)
		}
	}()
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	var rec sweepPoint
	lines := 0
	sink := func(pt sweep.Point) error {
		sweepRecordInto(&rec, g.Axes, pt)
		if err := enc.Encode(&rec); err != nil {
			return err
		}
		lines++
		if lines%sweepFlushEvery == 0 {
			if _, err := w.Write(buf.Bytes()); err != nil {
				return err
			}
			buf.Reset()
			if flusher != nil {
				flusher.Flush()
			}
		}
		return nil
	}
	stats, err := sweep.Run(r.Context(), g, cfg, sink)
	s.countSweep(stats, err)
	if err != nil {
		// The status line is long gone; report the abort as a terminal
		// NDJSON record in the same error envelope.
		_ = enc.Encode(map[string]*apiError{"error": toAPIError(err)})
	} else {
		_ = enc.Encode(sweepSummary{Done: true, Stats: sweepStats{
			GridPoints: stats.GridPoints, Chunks: stats.Chunks,
			Evaluated: stats.Evaluated, Errors: stats.Errors,
			RefinedPoints: stats.RefinedPoints, MaxDepth: stats.MaxDepth,
			Workers: stats.Workers,
		}})
	}
	_, _ = w.Write(buf.Bytes()) // drain the partial batch + terminal record
	buf.Reset()
	if flusher != nil {
		flusher.Flush()
	}
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
