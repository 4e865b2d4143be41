package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ssnkit/internal/par"
	"ssnkit/internal/ssn"
	"ssnkit/internal/sweep"
)

// decodeJSON reads the whole size-limited body once, into a pooled reply
// buffer, and decodes it into dst. A dst with a strict scanner for its
// canonical form decodes through it when the scanner accepts the bytes;
// everything else, every error included, goes through unmarshalBody.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, dst any) *apiError {
	buf := getReplyBuf()
	defer putReplyBuf(buf)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return &apiError{Code: CodeBodyTooLarge,
				Message: fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit)}
		}
		return badRequest("malformed JSON: %v", err)
	}
	if sc, ok := dst.(scanner); ok && sc.scan(buf.Bytes(), s.cfg.MaxBatch) {
		return nil
	}
	if _, ok := dst.(batched); ok {
		if n := countItems(buf.Bytes()); n > s.cfg.MaxBatch {
			return batchTooLarge(n, s.cfg.MaxBatch)
		}
	}
	return unmarshalBody(buf.Bytes(), dst)
}

// scanner is a request type with a strict decoder for the canonical
// subset of its JSON. scan either decodes body exactly as unmarshalBody
// would, reporting true, or leaves the receiver untouched and reports
// false, so that encoding/json decodes the same bytes and every error
// reply and every lenient case comes from encoding/json. It reports false,
// having stored no item, for a batch that may hold more than maxItems
// items.
type scanner interface {
	scan(body []byte, maxItems int) bool
}

// batched is a request type with an "items" batch. decodeJSON counts the
// batch before encoding/json stores it and refuses one of more than
// MaxBatch items, so no body makes the server hold more.
type batched interface{ batched() }

// countItems counts the "items" batch of the first JSON value in body as
// encoding/json decodes it, into elements of zero size, which store
// nothing. A malformed body counts what encoding/json got to;
// unmarshalBody reports its error.
func countItems(body []byte) int {
	var c struct {
		Items []struct{} `json:"items"`
	}
	_ = json.NewDecoder(bytes.NewReader(body)).Decode(&c)
	return len(c.Items)
}

// batchTooLarge refuses a batch of n items over the limit of max.
func batchTooLarge(n, max int) *apiError {
	return &apiError{Code: CodeBatchTooLarge,
		Message:    fmt.Sprintf("batch of %d exceeds the %d-item limit", n, max),
		Field:      "items",
		Value:      n,
		Constraint: fmt.Sprintf("at most %d items", max),
	}
}

// unmarshalBody decodes the one JSON value in body into dst through
// encoding/json, refusing anything but whitespace after it.
func unmarshalBody(body []byte, dst any) *apiError {
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(dst); err != nil {
		return badRequest("malformed JSON: %v", err)
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
		return badRequest("trailing data after JSON body")
	}
	return nil
}

// writeJSON sends v with the given status. It encodes into a pooled
// buffer before the status line goes out, so a value encoding/json
// refuses (a NaN or an infinity) becomes a 500 internal error envelope
// rather than a 200 with an empty body. A jsonAppender (the /v1/maxssn
// replies) spells itself without reflection; anything else goes through
// sweep.AppendJSON.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := getReplyBuf()
	defer putReplyBuf(buf)
	var b []byte
	var err error
	if a, ok := v.(jsonAppender); ok {
		b, err = a.appendJSON(buf.AvailableBuffer())
	} else {
		b, err = sweep.AppendJSON(buf.AvailableBuffer(), v)
	}
	if err != nil {
		status = http.StatusInternalServerError
		b, _ = sweep.AppendJSON(buf.AvailableBuffer(), map[string]*apiError{"error": {Code: CodeInternal,
			Message: "encoding the reply: " + err.Error()}})
	}
	buf.Write(append(b, '\n')) // in place while b fits buf's storage
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes()) // a failed write means the client is gone
}

// jsonAppender is a reply type that appends its own JSON: byte for byte
// what encoding/json (SetEscapeHTML(false)) writes for it, and the same
// *json.UnsupportedValueError for a NaN or an infinity.
type jsonAppender interface {
	appendJSON(dst []byte) ([]byte, error)
}

// evalOne resolves and evaluates a single item; errors land in the result
// rather than aborting sibling items of a batch.
func (s *Server) evalOne(index int, it EvalItem) EvalResult {
	res := EvalResult{Index: index}
	p, err := it.resolve(s.cache)
	if err != nil {
		res.Error = toAPIError(err)
		return res
	}
	vmax, cse, tmax, err := evalPlan(p)
	if err != nil {
		res.Error = toAPIError(err)
		return res
	}
	res.VMax = vmax
	res.Case = cse.String()
	res.CaseCode = int(cse)
	res.Beta = p.Beta()
	res.Zeta = finiteOrNil(p.DampingRatio())
	res.TMax = tmax
	if it.Sensitivity {
		sens, err := ssn.LCSensitivity(p, 0)
		if err != nil {
			res.Error = toAPIError(err)
			return res
		}
		if sens.VMax == 0 {
			// The relative sensitivities divide by vmax: 0/0 has no answer.
			res.Error = &apiError{Code: CodeInvalidParams,
				Message:    "sensitivity requested where vmax = 0: relative sensitivity is undefined",
				Field:      "sensitivity",
				Value:      true,
				Constraint: "relative sensitivity is undefined at vmax = 0"}
			return res
		}
		res.Sens = &SensitivityResult{
			DVdN: sens.DVdN, DVdL: sens.DVdL, DVdS: sens.DVdS, DVdC: sens.DVdC,
			RelN: sens.RelN, RelL: sens.RelL, RelS: sens.RelS, RelC: sens.RelC,
		}
	}
	return res
}

// evalPlan compiles a PlanFixed plan for p and returns its Table 1
// answers. Compiling is cheaper than looking the answers up in a cache
// (bench/README.md), so every item compiles its own. With the JSON wire
// off reflection (evaljson.go), resolving and evaluating items is the
// largest share of a served /v1/maxssn batch, about 40%; decode and
// encode take about 30% each.
func evalPlan(p ssn.Params) (vmax float64, cse ssn.Case, tmax float64, err error) {
	var pl ssn.Plan
	if err := pl.Compile(p, ssn.PlanFixed); err != nil {
		return 0, 0, 0, err
	}
	return pl.VMax(), pl.Case(), pl.VMaxTime(), nil
}

// handleMaxSSN serves POST /v1/maxssn: a single item inline, or a batch
// under "items" (JSON) or as SSNC columnar rows. A canonical JSON body
// decodes through scanMaxSSNRequest and the JSON replies are appended
// (evaljson.go), with encoding/json's bytes either way. Both batch forms go
// through evalItems, which spreads the items over at most Workers
// goroutines on the shared pool; per-item failures are reported in place
// so one bad corner does not void a thousand good ones.
func (s *Server) handleMaxSSN(w http.ResponseWriter, r *http.Request) {
	if isColumnarBody(r) {
		s.handleMaxSSNColumnar(w, r)
		return
	}
	var req maxSSNRequest
	if aerr := s.decodeEnvelope(w, r, &req); aerr != nil {
		writeError(w, aerr)
		return
	}
	if len(req.Items) == 0 {
		res := s.evalOne(0, req.item())
		if res.Error != nil {
			writeError(w, res.Error)
			return
		}
		writeJSON(w, http.StatusOK, res)
		return
	}
	results := s.evalItems(r.Context(), req.Items)
	if columnarResponseFor(r) {
		s.writeColumnarBatch(w, results)
		return
	}
	writeJSON(w, http.StatusOK, maxSSNBatchResponse{Count: len(results), Results: results})
}

// evalItems runs a batch under the request timeout on runBatch's bounded
// workers; items not yet started at the deadline fail in place.
func (s *Server) evalItems(ctx context.Context, items []EvalItem) []EvalResult {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()
	results := make([]EvalResult, len(items))
	s.runBatch(ctx, len(items), func(i int) {
		results[i] = s.evalOne(i, items[i])
	}, func(i int, err error) {
		results[i] = EvalResult{Index: i,
			Error: &apiError{Code: CodeTimeout, Message: "evaluation aborted: " + err.Error()}}
	})
	return results
}

// runBatch calls run(i) for every i < n on par.For's min(Workers, n)
// workers, so a one-worker server spawns none. Each item holds a pool
// slot while run(i) works, which keeps batch items on the one pool every
// route shares. An item claimed after ctx ends, or whose slot wait ctx
// cuts short, gets abort(i, err) instead of a slot, so the deadline stops
// new items from starting while the ones already running finish.
func (s *Server) runBatch(ctx context.Context, n int, run func(i int), abort func(i int, err error)) {
	par.For(n, s.cfg.Workers, func(int) func(int) {
		return func(i int) {
			err := ctx.Err()
			if err == nil {
				err = s.pool.Acquire(ctx)
			}
			if err != nil {
				abort(i, err)
				return
			}
			defer s.pool.Release()
			run(i)
		}
	})
}

// handleWaveform serves POST /v1/waveform: the sampled closed-form V(t)
// and inductor I(t) of one item, from the LC model (default) or the
// inductance-only model.
func (s *Server) handleWaveform(w http.ResponseWriter, r *http.Request) {
	var req waveformRequest
	if aerr := s.decodeEnvelope(w, r, &req); aerr != nil {
		writeError(w, aerr)
		return
	}
	n := req.Samples
	if n == 0 {
		n = 256
	}
	if n < 2 || n > 65536 {
		writeError(w, &apiError{Code: CodeInvalidRequest,
			Message: fmt.Sprintf("samples = %d outside [2, 65536]", n),
			Field:   "samples", Value: n, Constraint: "must be within [2, 65536]"})
		return
	}
	p, err := req.item().resolve(s.cache)
	if err != nil {
		writeError(w, toAPIError(err))
		return
	}

	var resp waveformResponse
	switch req.Model {
	case "", "lc":
		m, err := ssn.NewLCModel(p)
		if err != nil {
			writeError(w, toAPIError(err))
			return
		}
		vw, iw, err := m.Waveforms(req.RampStart, n)
		if err != nil {
			writeError(w, toAPIError(err))
			return
		}
		resp = waveformResponse{Case: m.Case().String(), Times: vw.Times, V: vw.Values, I: iw.Values}
	case "l":
		m, err := ssn.NewLModel(p)
		if err != nil {
			writeError(w, toAPIError(err))
			return
		}
		vw, iw, err := m.Waveforms(req.RampStart, n)
		if err != nil {
			writeError(w, toAPIError(err))
			return
		}
		resp = waveformResponse{Times: vw.Times, V: vw.Values, I: iw.Values}
	default:
		writeError(w, &apiError{Code: CodeInvalidRequest,
			Message: fmt.Sprintf("unknown model %q", req.Model),
			Field:   "model", Value: req.Model, Constraint: `must be "lc" or "l"`})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMonteCarlo serves POST /v1/montecarlo: validate synchronously,
// then run the sampling as an asynchronous job on the worker pool and
// return 202 with a pollable job ID.
func (s *Server) handleMonteCarlo(w http.ResponseWriter, r *http.Request) {
	var req monteCarloRequest
	if aerr := s.decodeEnvelope(w, r, &req); aerr != nil {
		writeError(w, aerr)
		return
	}
	p, err := req.item().resolve(s.cache)
	if err != nil {
		writeError(w, toAPIError(err))
		return
	}
	n := req.Samples
	if n == 0 {
		n = 10000
	}
	if n > s.cfg.MaxMCSamples {
		writeError(w, &apiError{Code: CodeInvalidRequest,
			Message: fmt.Sprintf("samples = %d exceeds the %d limit", n, s.cfg.MaxMCSamples),
			Field:   "samples", Value: n,
			Constraint: fmt.Sprintf("at most %d", s.cfg.MaxMCSamples)})
		return
	}
	v := ssn.Variation{K: req.Variation.K, V0: req.Variation.V0, A: req.Variation.A,
		L: req.Variation.L, C: req.Variation.C, Slope: req.Variation.Slope}
	// Pre-flight the cheap input checks so obviously bad jobs fail now,
	// with a 400, instead of after a poll cycle.
	if _, err := ssn.MonteCarloCtx(preflightCtx, p, v, n, req.Seed, 1); err != nil && !errors.Is(err, context.Canceled) {
		writeError(w, toAPIError(err))
		return
	}
	workers := req.Workers
	if workers <= 0 || workers > s.cfg.Workers {
		workers = s.cfg.Workers
	}
	job := s.jobs.submit(func(ctx context.Context) (any, error) {
		res, err := ssn.MonteCarloCtx(ctx, p, v, n, req.Seed, workers)
		if err != nil {
			return nil, err
		}
		cases := make(map[string]int, len(res.CaseCounts))
		for cse, cnt := range res.CaseCounts {
			cases[cse.String()] = cnt
		}
		return monteCarloResult{Samples: res.Samples, Mean: res.Mean, StdDev: res.StdDev,
			Min: res.Min, Max: res.Max, P95: res.P95, P99: res.P99, Cases: cases}, nil
	})
	writeJSON(w, http.StatusAccepted, jobResponse{Job: job, StatusURL: "/v1/jobs/" + job.ID})
}

// preflightCtx is already cancelled: MonteCarloCtx with it runs all input
// validation and then aborts before sampling.
var preflightCtx = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// handleJob serves GET /v1/jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.jobs.lookup(id)
	if !ok {
		writeError(w, &apiError{Code: CodeNotFound, Message: fmt.Sprintf("unknown job %q", id)})
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		JobsInFlight:  s.jobs.inFlight(),
		CacheEntries:  s.cache.Len(),
	})
}

// handleMetrics serves GET /metrics in the Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = s.metrics.WriteTo(w)
}

// instrument wraps a handler with latency/status accounting and panic
// containment under the route's canonical path label.
func (s *Server) instrument(path string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		startAt := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				rec.code = http.StatusInternalServerError
				writeJSON(rec, http.StatusInternalServerError,
					map[string]*apiError{"error": {Code: CodeInternal, Message: fmt.Sprint(p)}})
			}
			s.metrics.requests.inc(path, statusLabel(rec.code))
			s.metrics.latency.observe(time.Since(startAt).Seconds(), path)
		}()
		h(rec, r)
	})
}

// statusLabels holds the decimal text of every three-digit status code,
// so labelling a request by its code does not allocate.
var statusLabels = func() (t [1000]string) {
	for c := 100; c < len(t); c++ {
		t[c] = strconv.Itoa(c)
	}
	return t
}()

func statusLabel(code int) string {
	if code >= 100 && code < len(statusLabels) {
		return statusLabels[code]
	}
	return strconv.Itoa(code)
}

// statusRecorder captures the response code for metrics.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.code = code
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(p)
}

// Flush forwards a streaming handler's flush; without it w.(http.Flusher)
// fails behind instrument and a stream waits for net/http's buffer.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		r.wrote = true
		f.Flush()
	}
}
