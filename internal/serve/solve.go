package serve

import (
	"context"
	"fmt"
	"net/http"

	"ssnkit/internal/ssn"
)

// SolveItem is one inverse-design query: the usual evaluation point plus a
// noise budget and the free variable to solve for. Mode "solve" (default)
// returns the boundary value of the variable at which Vmax meets the
// budget; mode "yield" Monte Carlos the process spreads and returns the
// probability that the point meets the budget.
type SolveItem struct {
	EvalItem
	VMaxBudget float64  `json:"vmax_budget"`
	Variable   string   `json:"variable,omitempty"` // n, l, c, slope, rise_time (solve mode)
	Mode       string   `json:"mode,omitempty"`     // "solve" (default) or "yield"
	Lo         *float64 `json:"lo,omitempty"`       // explicit search bracket
	Hi         *float64 `json:"hi,omitempty"`

	// Yield-mode options.
	Samples   int            `json:"samples,omitempty"` // default 10000
	Seed      int64          `json:"seed,omitempty"`
	Workers   int            `json:"workers,omitempty"`
	Variation *VariationSpec `json:"variation,omitempty"` // default K 5%, V0 3%, a 2%
}

// solveRequest accepts a single query (nested "params" or legacy inline
// fields, options beside the envelope) or a batch under "items" — the same
// envelope contract as /v1/maxssn.
type solveRequest struct {
	Items []SolveItem `json:"items"`
	paramsEnvelope
	VMaxBudget float64        `json:"vmax_budget"`
	Variable   string         `json:"variable,omitempty"`
	Mode       string         `json:"mode,omitempty"`
	Lo         *float64       `json:"lo,omitempty"`
	Hi         *float64       `json:"hi,omitempty"`
	Samples    int            `json:"samples,omitempty"`
	Seed       int64          `json:"seed,omitempty"`
	Workers    int            `json:"workers,omitempty"`
	Variation  *VariationSpec `json:"variation,omitempty"`
}

func (*solveRequest) batched() {}

// legacyInline mirrors maxSSNRequest: batches never read the inline fields.
func (q *solveRequest) legacyInline() bool {
	return len(q.Items) == 0 && q.paramsEnvelope.legacyInline()
}

// single assembles the one-item form into a SolveItem.
func (q *solveRequest) single() SolveItem {
	return SolveItem{
		EvalItem:   q.item(),
		VMaxBudget: q.VMaxBudget,
		Variable:   q.Variable,
		Mode:       q.Mode,
		Lo:         q.Lo,
		Hi:         q.Hi,
		Samples:    q.Samples,
		Seed:       q.Seed,
		Workers:    q.Workers,
		Variation:  q.Variation,
	}
}

// yieldResult is the JSON shape of ssn.YieldResult.
type yieldResult struct {
	Budget      float64          `json:"budget"`
	Samples     int              `json:"samples"`
	Pass        int              `json:"pass"`
	Probability float64          `json:"probability"`
	WilsonLo    float64          `json:"wilson_lo"` // 95% Wilson score interval
	WilsonHi    float64          `json:"wilson_hi"`
	Stats       monteCarloResult `json:"stats"`
}

// SolveResult is one /v1/solve answer. In batch responses Index identifies
// the request item; failed items carry Error and zero values elsewhere.
type SolveResult struct {
	Index    int    `json:"index"`
	Mode     string `json:"mode"`
	Variable string `json:"variable,omitempty"`

	// Solve mode: the boundary value and the operating point it lands on.
	Value      float64 `json:"value,omitempty"`
	MaxDrivers int     `json:"max_drivers,omitempty"` // floor(value), variable "n" only
	VMax       float64 `json:"vmax,omitempty"`        // within [vmax_budget-1e-9, vmax_budget]
	Case       string  `json:"case,omitempty"`
	CaseCode   int     `json:"case_code,omitempty"`
	Evals      int     `json:"evals,omitempty"` // closed-form evaluations spent

	// Yield mode.
	Yield *yieldResult `json:"yield,omitempty"`

	Error *apiError `json:"error,omitempty"`
}

// solveBatchResponse is the envelope of a batch inverse query.
type solveBatchResponse struct {
	Count   int           `json:"count"`
	Results []SolveResult `json:"results"`
}

// defaultFreeVariable fills the eval fields the solver overwrites anyway,
// mirroring buildSweep's swept-field defaulting: a query solving for n
// need not supply n, one solving for the edge need not supply an edge.
func defaultFreeVariable(it *SolveItem, v ssn.SolveVar) {
	switch v {
	case ssn.SolveN:
		if it.N == 0 {
			it.N = 1
		}
	case ssn.SolveSlope, ssn.SolveRiseTime:
		if it.Slope == 0 && it.RiseTime == 0 {
			it.RiseTime = 1e-9
		}
	}
}

// solveOne answers one inverse query; errors land in the result so batch
// siblings are unaffected.
func (s *Server) solveOne(ctx context.Context, index int, it SolveItem) SolveResult {
	res := SolveResult{Index: index, Mode: it.Mode}
	if res.Mode == "" {
		res.Mode = "solve"
	}
	switch res.Mode {
	case "solve":
		return s.solveBoundary(it, res)
	case "yield":
		return s.solveYield(ctx, it, res)
	default:
		res.Error = &apiError{Code: CodeInvalidRequest,
			Message: fmt.Sprintf("unknown mode %q", it.Mode),
			Field:   "mode", Value: it.Mode, Constraint: `must be "solve" or "yield"`}
		return res
	}
}

// solveBoundary runs a mode "solve" query.
func (s *Server) solveBoundary(it SolveItem, res SolveResult) SolveResult {
	v, err := ssn.ParseSolveVar(it.Variable)
	if err != nil {
		res.Error = toAPIError(err)
		res.Error.Field = "variable"
		return res
	}
	res.Variable = v.String()
	defaultFreeVariable(&it, v)
	p, err := it.EvalItem.resolve(s.cache)
	if err != nil {
		res.Error = toAPIError(err)
		return res
	}
	lo, hi := v.DefaultBracket(p)
	if it.Lo != nil {
		lo = *it.Lo
	}
	if it.Hi != nil {
		hi = *it.Hi
	}
	sol, err := ssn.SolveBracket(p, v, it.VMaxBudget, lo, hi)
	if err != nil {
		res.Error = toAPIError(err)
		return res
	}
	s.metrics.solves.inc("solve")
	res.Value = sol.Value
	res.MaxDrivers = sol.MaxDrivers()
	res.VMax = sol.VMax
	res.Case = sol.Case.String()
	res.CaseCode = int(sol.Case)
	res.Evals = sol.Evals
	return res
}

// solveYield runs a mode "yield" query synchronously: the deterministic
// parallel campaign is a closed-form hot loop, so even 10⁵ samples answer
// well inside the request timeout (unlike /v1/montecarlo, sized for 10⁷).
func (s *Server) solveYield(ctx context.Context, it SolveItem, res SolveResult) SolveResult {
	p, err := it.EvalItem.resolve(s.cache)
	if err != nil {
		res.Error = toAPIError(err)
		return res
	}
	n := it.Samples
	if n == 0 {
		n = 10000
	}
	if n > s.cfg.MaxMCSamples {
		res.Error = &apiError{Code: CodeInvalidRequest,
			Message: fmt.Sprintf("samples = %d exceeds the %d limit", n, s.cfg.MaxMCSamples),
			Field:   "samples", Value: n,
			Constraint: fmt.Sprintf("at most %d", s.cfg.MaxMCSamples)}
		return res
	}
	spec := it.Variation
	if spec == nil {
		// The paper's process knobs: ±spread on the ASDM triple.
		spec = &VariationSpec{K: 0.05, V0: 0.03, A: 0.02}
	}
	v := ssn.Variation{K: spec.K, V0: spec.V0, A: spec.A, L: spec.L, C: spec.C, Slope: spec.Slope}
	workers := it.Workers
	if workers <= 0 || workers > s.cfg.Workers {
		workers = s.cfg.Workers
	}
	y, err := ssn.YieldCtx(ctx, p, v, it.VMaxBudget, n, it.Seed, workers)
	if err != nil {
		if ctx.Err() != nil {
			res.Error = &apiError{Code: CodeTimeout, Message: "yield estimation aborted: " + ctx.Err().Error()}
		} else {
			res.Error = toAPIError(err)
		}
		return res
	}
	s.metrics.solves.inc("yield")
	cases := make(map[string]int, len(y.Stats.CaseCounts))
	for cse, cnt := range y.Stats.CaseCounts {
		cases[cse.String()] = cnt
	}
	res.Yield = &yieldResult{
		Budget:      y.Budget,
		Samples:     y.Samples,
		Pass:        y.Pass,
		Probability: y.Probability,
		WilsonLo:    y.WilsonLo,
		WilsonHi:    y.WilsonHi,
		Stats: monteCarloResult{Samples: y.Stats.Samples, Mean: y.Stats.Mean,
			StdDev: y.Stats.StdDev, Min: y.Stats.Min, Max: y.Stats.Max,
			P95: y.Stats.P95, P99: y.Stats.P99, Cases: cases},
	}
	return res
}

// handleSolve serves POST /v1/solve: inverse design (what value of one
// free variable meets the noise budget) and yield estimation (what
// fraction of process draws meets it), single or batched through the same
// envelope as /v1/maxssn.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req solveRequest
	if aerr := s.decodeEnvelope(w, r, &req); aerr != nil {
		writeError(w, aerr)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	if len(req.Items) == 0 {
		res := s.solveOne(ctx, 0, req.single())
		if res.Error != nil {
			writeError(w, res.Error)
			return
		}
		writeJSON(w, http.StatusOK, res)
		return
	}
	results := make([]SolveResult, len(req.Items))
	s.runBatch(ctx, len(req.Items), func(i int) {
		results[i] = s.solveOne(ctx, i, req.Items[i])
	}, func(i int, err error) {
		results[i] = SolveResult{Index: i,
			Error: &apiError{Code: CodeTimeout, Message: "solve aborted: " + err.Error()}}
	})
	writeJSON(w, http.StatusOK, solveBatchResponse{Count: len(results), Results: results})
}
