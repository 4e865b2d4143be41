package serve

import (
	"net/http"
	"strconv"
)

// This file is the single definition of the v1 wire conventions: the
// request envelope every endpoint decodes, the error envelope every
// failure serializes to, and the frozen registry of error codes. Handlers
// must not invent codes — envelope_test.go walks the package AST and
// rejects any apiError composite literal whose Code is not one of the
// Code* constants below.

// The frozen v1 error-code registry. Codes are API surface: clients switch
// on them, so a new code is an API change and belongs here, mapped in
// errorCodeStatus, before any handler may emit it.
const (
	// CodeInvalidRequest rejects structurally bad requests: malformed
	// JSON, unknown enum values, out-of-range options.
	CodeInvalidRequest = "invalid_request"
	// CodeInvalidParams rejects well-formed requests whose evaluation
	// point fails model validation (ssn.ValidationError) or whose sweep
	// axes leave the model domain (sweep.DomainError). The error body
	// carries the offending field, value and constraint.
	CodeInvalidParams = "invalid_params"
	// CodeBodyTooLarge rejects bodies over Config.MaxBodyBytes.
	CodeBodyTooLarge = "body_too_large"
	// CodeBatchTooLarge rejects batches over Config.MaxBatch items.
	CodeBatchTooLarge = "batch_too_large"
	// CodeGridTooLarge rejects sweeps over Config.MaxSweepPoints points.
	CodeGridTooLarge = "grid_too_large"
	// CodeTimeout reports work abandoned at a deadline or disconnect.
	CodeTimeout = "timeout"
	// CodeNotFound reports an unknown job or run identifier.
	CodeNotFound = "not_found"
	// CodeOverloaded sheds requests when the admission queue is full.
	CodeOverloaded = "overloaded"
	// CodeQuotaExhausted sheds requests over the per-client token budget.
	CodeQuotaExhausted = "quota_exhausted"
	// CodeCanceled reports an asynchronous job cancelled before finishing.
	CodeCanceled = "canceled"
	// CodeUnsolvable reports an inverse query whose budget has no boundary
	// inside the search bracket (ssn.SolveError).
	CodeUnsolvable = "unsolvable"
	// CodeInternal reports a handler panic.
	CodeInternal = "internal"
)

// errorCodeStatus maps every registered code to its HTTP status. The map
// doubles as the registry's authoritative member list: statusFor refuses
// codes outside it only in tests (envelope_test.go); at runtime unknown
// codes degrade to 400 rather than panicking mid-response.
var errorCodeStatus = map[string]int{
	CodeInvalidRequest: http.StatusBadRequest,
	CodeInvalidParams:  http.StatusBadRequest,
	CodeBodyTooLarge:   http.StatusRequestEntityTooLarge,
	CodeBatchTooLarge:  http.StatusBadRequest,
	CodeGridTooLarge:   http.StatusBadRequest,
	CodeTimeout:        http.StatusGatewayTimeout,
	CodeNotFound:       http.StatusNotFound,
	CodeOverloaded:     http.StatusTooManyRequests,
	CodeQuotaExhausted: http.StatusTooManyRequests,
	CodeCanceled:       http.StatusBadRequest,
	CodeUnsolvable:     http.StatusUnprocessableEntity,
	CodeInternal:       http.StatusInternalServerError,
}

// statusFor maps an apiError code onto its registered HTTP status.
func statusFor(e *apiError) int {
	if st, ok := errorCodeStatus[e.Code]; ok {
		return st
	}
	return http.StatusBadRequest
}

// writeError serializes the one error envelope every endpoint shares:
// {"error": {code, message, field, value, constraint}}, plus a Retry-After
// header when the error carries a backoff hint.
func writeError(w http.ResponseWriter, e *apiError) {
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfter))
	}
	writeJSON(w, statusFor(e), map[string]*apiError{"error": e})
}

// paramsEnvelope is the request shape every endpoint shares: the canonical
// form nests the evaluation point under "params"; the legacy form inlines
// the EvalItem fields at the top level. A non-nil "params" wins. Endpoint
// options (samples, model, axes, ...) always sit beside the envelope.
type paramsEnvelope struct {
	Params *EvalItem `json:"params"`
	EvalItem
}

// item returns the evaluation point, preferring the canonical nested form.
func (e paramsEnvelope) item() EvalItem {
	if e.Params != nil {
		return *e.Params
	}
	return e.EvalItem
}

// legacyInline reports whether the request used the deprecated top-level
// parameter form: no nested "params" object, but inline EvalItem fields
// present.
func (e paramsEnvelope) legacyInline() bool {
	return e.Params == nil && e.EvalItem != (EvalItem{})
}

// enveloped is any request body carrying the shared parameter envelope.
type enveloped interface {
	legacyInline() bool
}

// legacySunset is the Sunset header (RFC 8594) accompanying deprecated
// inline-parameter responses: the envelope-only cutover date.
const legacySunset = "Sun, 01 Aug 2027 00:00:00 GMT"

// decodeEnvelope is the one decoder behind every enveloped endpoint: it
// reads the size-limited JSON body and, when the request used the legacy
// inline-parameter form, stamps the deprecation headers and counts the
// response in ssnserve_legacy_envelope_total so operators can watch the
// old shape drain before the sunset date.
func (s *Server) decodeEnvelope(w http.ResponseWriter, r *http.Request, dst enveloped) *apiError {
	if aerr := s.decodeJSON(w, r, dst); aerr != nil {
		return aerr
	}
	if dst.legacyInline() {
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Sunset", legacySunset)
		s.metrics.legacyEnvelope.inc()
	}
	return nil
}
