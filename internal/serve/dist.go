package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"

	"ssnkit/internal/device"
	"ssnkit/internal/dist"
)

// distEvalConfig wires shard evaluation into the server's shared machinery:
// the one worker pool gates chunk concurrency and the extraction cache
// serves size-axis re-extractions.
func (s *Server) distEvalConfig() dist.EvalConfig {
	return dist.EvalConfig{
		Workers: s.cfg.Workers,
		Gate:    s.pool,
		Extract: func(spec device.ExtractSpec) (device.ASDM, error) {
			m, _, err := s.cache.Get(spec)
			return m, err
		},
	}
}

// handleShard serves POST /v1/shard: evaluate one shard of a distributed
// sweep spec and return its canonical NDJSON payload. This is the worker
// side of internal/dist — the body is fully resolved (no kit or package
// lookups), so any replica returns identical bytes.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	var req dist.ShardRequest
	if aerr := s.decodeJSON(w, r, &req); aerr != nil {
		writeError(w, aerr)
		return
	}
	if err := req.Spec.Validate(); err != nil {
		writeError(w, toAPIError(err))
		return
	}
	// The engine materializes every axis whatever the shard size, so an
	// axis over the limit is refused before one is built.
	for _, a := range req.Spec.Axes {
		if a.Points > s.cfg.MaxSweepPoints {
			writeError(w, &apiError{Code: CodeGridTooLarge,
				Message: fmt.Sprintf("axis %s of %d points exceeds the %d-point limit", a.Name, a.Points, s.cfg.MaxSweepPoints),
				Field:   "spec.axes", Value: a.Points,
				Constraint: fmt.Sprintf("at most %d points per axis", s.cfg.MaxSweepPoints)})
			return
		}
	}
	n := req.Spec.NumShards()
	if req.Shard < 0 || req.Shard >= n {
		writeError(w, &apiError{Code: CodeInvalidRequest,
			Message: fmt.Sprintf("shard %d outside the spec's %d-shard decomposition", req.Shard, n),
			Field:   "shard", Value: req.Shard,
			Constraint: fmt.Sprintf("must be within [0, %d)", n)})
		return
	}
	lo, hi := req.Spec.ShardRange(req.Shard)
	if hi-lo > s.cfg.MaxSweepPoints {
		writeError(w, &apiError{Code: CodeGridTooLarge,
			Message:    fmt.Sprintf("shard of %d points exceeds the %d-point limit", hi-lo, s.cfg.MaxSweepPoints),
			Field:      "spec.shard_points",
			Constraint: fmt.Sprintf("at most %d points per shard", s.cfg.MaxSweepPoints)})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	payload, err := dist.EvalShard(ctx, req.Spec, req.Shard, s.distEvalConfig())
	if err != nil {
		writeError(w, toAPIError(err))
		return
	}
	s.metrics.shards.inc()
	s.metrics.shardPoints.add(hi - lo)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(payload)
}

// distSweepRequest asks the server to coordinate a distributed sweep: the
// usual fixed-parameters + axes shape, plus the replica fan-out. Empty
// workers means the server evaluates shards in-process (still sharded, so
// the output bytes match any distributed run of the same spec).
type distSweepRequest struct {
	paramsEnvelope
	Axes        []SweepAxis `json:"axes"`
	Workers     []string    `json:"workers,omitempty"`
	ShardPoints int         `json:"shard_points,omitempty"`
	APIKey      string      `json:"api_key,omitempty"` // forwarded to replicas as X-API-Key
}

// distSummary is the terminal NDJSON record of a completed distributed
// sweep; an aborted one ends with the {"error":…} record instead.
type distSummary struct {
	Done    bool    `json:"done"`
	Shards  int     `json:"shards"`
	Points  int     `json:"points"`
	Reused  int     `json:"reused"`
	Retries int     `json:"retries"`
	Elapsed float64 `json:"elapsed_seconds"`
}

// buildDistSpec validates the request and assembles the self-contained
// sweep spec a coordinator (or worker) needs: axes checked, base parameters
// resolved through the kit/package machinery, extraction named explicitly.
func (s *Server) buildDistSpec(req distSweepRequest) (dist.SweepSpec, *apiError) {
	var spec dist.SweepSpec
	if req.ShardPoints < 0 {
		return spec, &apiError{Code: CodeInvalidRequest,
			Message: fmt.Sprintf("shard_points = %d must be non-negative", req.ShardPoints),
			Field:   "shard_points", Value: req.ShardPoints, Constraint: "must be >= 0"}
	}
	g, _, aerr := s.buildSweep(sweepRequest{paramsEnvelope: req.paramsEnvelope, Axes: req.Axes})
	if aerr != nil {
		return spec, aerr
	}
	spec = dist.SweepSpec{
		Base: dist.BaseParams{
			N: g.Base.N, K: g.Base.Dev.K, V0: g.Base.Dev.V0, A: g.Base.Dev.A,
			Vdd: g.Base.Vdd, Slope: g.Base.Slope, L: g.Base.L, C: g.Base.C,
		},
		ShardPoints: req.ShardPoints,
	}
	for _, ax := range g.Axes {
		spec.Axes = append(spec.Axes, dist.Axis{Name: ax.Name, From: ax.From, To: ax.To,
			Points: ax.Points, Log: ax.Log})
	}
	if g.Spec.Process != "" {
		spec.Extract = &dist.Extract{Process: g.Spec.Process,
			Corner: g.Spec.Corner.String(), Rail: g.Spec.Rail}
	}
	return spec, nil
}

// handleDistSweep serves POST /v1/distsweep: shard the grid, fan shards out
// to the named worker replicas (or evaluate in-process), and stream the
// merged NDJSON in global point order, ending with a {"done":true} summary.
// Progress is readable concurrently on GET /v1/distsweep/status.
func (s *Server) handleDistSweep(w http.ResponseWriter, r *http.Request) {
	var req distSweepRequest
	if aerr := s.decodeEnvelope(w, r, &req); aerr != nil {
		writeError(w, aerr)
		return
	}
	spec, aerr := s.buildDistSpec(req)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	tracker := dist.NewTracker()
	id := s.dist.add(tracker)
	s.metrics.distSweeps.inc()

	w.Header().Set("X-Dist-Run", id)
	st := startStream(w, "application/x-ndjson")
	opts := dist.Options{
		Workers: req.Workers,
		APIKey:  req.APIKey,
		Eval:    s.distEvalConfig(),
		Tracker: tracker,
	}
	summary, err := dist.Run(r.Context(), spec, opts, st)
	st.finish(distSummary{Done: true, Shards: summary.Shards,
		Points: summary.Points, Reused: summary.Reused,
		Retries: summary.Retries, Elapsed: summary.Duration.Seconds()}, err)
}

// distRuns is the bounded registry behind GET /v1/distsweep/status: the
// most recent coordinator runs, newest first, each a live Tracker the
// status handler snapshots.
type distRuns struct {
	mu   sync.Mutex
	max  int
	seq  int
	runs []distRunEntry // oldest first; evicted from the front
}

type distRunEntry struct {
	id      string
	tracker *dist.Tracker
}

func newDistRuns(max int) *distRuns { return &distRuns{max: max} }

func (d *distRuns) add(t *dist.Tracker) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seq++
	id := fmt.Sprintf("dist-%d", d.seq)
	d.runs = append(d.runs, distRunEntry{id: id, tracker: t})
	if len(d.runs) > d.max {
		d.runs = d.runs[len(d.runs)-d.max:]
	}
	return id
}

// distRunStatus is one run's entry in the status response.
type distRunStatus struct {
	ID       string        `json:"id"`
	Progress dist.Progress `json:"progress"`
}

// distStatusResponse is the GET /v1/distsweep/status body.
type distStatusResponse struct {
	Count int             `json:"count"`
	Runs  []distRunStatus `json:"runs"`
}

// handleDistStatus serves GET /v1/distsweep/status: snapshots of the
// retained coordinator runs, newest first. ?id= filters to one run.
func (s *Server) handleDistStatus(w http.ResponseWriter, r *http.Request) {
	want := r.URL.Query().Get("id")
	s.dist.mu.Lock()
	entries := make([]distRunEntry, len(s.dist.runs))
	copy(entries, s.dist.runs)
	s.dist.mu.Unlock()
	resp := distStatusResponse{Runs: []distRunStatus{}}
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		if want != "" && e.id != want {
			continue
		}
		resp.Runs = append(resp.Runs, distRunStatus{ID: e.id, Progress: e.tracker.Snapshot()})
	}
	if want != "" && len(resp.Runs) == 0 {
		writeError(w, &apiError{Code: CodeNotFound, Message: fmt.Sprintf("unknown dist run %q", want)})
		return
	}
	resp.Count = len(resp.Runs)
	writeJSON(w, http.StatusOK, resp)
}
