package serve

import (
	"errors"
	"fmt"
	"math"

	"ssnkit/internal/device"
	"ssnkit/internal/pkgmodel"
	"ssnkit/internal/ssn"
	"ssnkit/internal/sweep"
)

// apiError is the wire shape of every error body: {"error": {...}}. The
// field/value/constraint triple is populated when the cause is a
// structured ssn.ValidationError, so clients can point at the offending
// input instead of parsing the message.
type apiError struct {
	Code       string `json:"code"`
	Message    string `json:"message"`
	Field      string `json:"field,omitempty"`
	Value      any    `json:"value,omitempty"`
	Constraint string `json:"constraint,omitempty"`

	// retryAfter, when positive, becomes a Retry-After response header
	// (seconds): shed responses tell clients when to come back.
	retryAfter int
}

func (e *apiError) Error() string { return e.Message }

// badRequest builds an invalid_request apiError.
func badRequest(format string, args ...any) *apiError {
	return &apiError{Code: CodeInvalidRequest, Message: fmt.Sprintf(format, args...)}
}

// toAPIError maps any error onto the wire shape. Structured model errors
// keep their structure — and their own codes: a point that fails model
// validation or leaves the sweep domain is invalid_params (the request was
// well-formed; the physics rejected it), an inverse query with no boundary
// in the bracket is unsolvable.
func toAPIError(err error) *apiError {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae
	}
	var ve *ssn.ValidationError
	if errors.As(err, &ve) {
		return &apiError{
			Code:       CodeInvalidParams,
			Message:    ve.Error(),
			Field:      ve.Field,
			Value:      ve.Value,
			Constraint: ve.Constraint,
		}
	}
	var de *sweep.DomainError
	if errors.As(err, &de) {
		return &apiError{
			Code:       CodeInvalidParams,
			Message:    de.Error(),
			Field:      "axes",
			Value:      de.Bound,
			Constraint: fmt.Sprintf("axis %s %s", de.Axis, de.Constraint),
		}
	}
	var se *ssn.SolveError
	if errors.As(err, &se) {
		return &apiError{
			Code:       CodeUnsolvable,
			Message:    se.Error(),
			Field:      "vmax_budget",
			Value:      se.Budget,
			Constraint: fmt.Sprintf("no %s boundary within [%g, %g]", se.Var, se.Lo, se.Hi),
		}
	}
	return &apiError{Code: CodeInvalidRequest, Message: err.Error()}
}

// DeviceSpec is an explicit ASDM supplied inline, bypassing extraction.
type DeviceSpec struct {
	K  float64 `json:"k"`
	V0 float64 `json:"v0"`
	A  float64 `json:"a"`
}

// EvalItem is one evaluation point: which driver device (a process corner
// to extract, or an explicit ASDM), which ground net (a package class or
// explicit L/C), and the input edge. It is the request body of the
// synchronous endpoints and the common prefix of the asynchronous ones.
type EvalItem struct {
	// Device selection: either Dev (+Vdd) or a process kit to extract.
	Process string      `json:"process,omitempty"` // default "c018"
	Corner  string      `json:"corner,omitempty"`  // "tt" (default), "ss", "ff"
	Rail    bool        `json:"rail,omitempty"`    // pull-up drivers (rail droop)
	Size    float64     `json:"size,omitempty"`    // driver width multiple
	Dev     *DeviceSpec `json:"dev,omitempty"`
	Vdd     float64     `json:"vdd,omitempty"` // required with Dev; else kit supply

	// Circuit.
	N       int      `json:"n"`
	Package string   `json:"package,omitempty"` // default "pga" when L unset
	Pads    int      `json:"pads,omitempty"`    // paralleled ground pads, default 1
	L       *float64 `json:"l,omitempty"`       // explicit inductance, H
	C       *float64 `json:"c,omitempty"`       // explicit capacitance, F

	// Input edge: one of slope (V/s) or rise_time (s).
	Slope    float64 `json:"slope,omitempty"`
	RiseTime float64 `json:"rise_time,omitempty"`

	// Sensitivity asks for first-order dVmax/d{N,L,s,C} in the result.
	Sensitivity bool `json:"sensitivity,omitempty"`
}

// extractSpec names the ASDM extraction the item asks for (only valid
// when no explicit Dev is supplied).
func (it EvalItem) extractSpec() (device.ExtractSpec, error) {
	proc := it.Process
	if proc == "" {
		proc = "c018"
	}
	corner, err := device.CornerByName(it.Corner)
	if err != nil {
		return device.ExtractSpec{}, badRequest("%v", err)
	}
	return device.ExtractSpec{Process: proc, Corner: corner, Rail: it.Rail, Size: it.Size}, nil
}

// resolve turns the wire item into model parameters, pulling device
// extraction through the cache.
func (it EvalItem) resolve(cache *ExtractCache) (ssn.Params, error) {
	var p ssn.Params
	p.N = it.N

	vdd := it.Vdd
	if it.Dev != nil {
		if vdd <= 0 {
			return p, badRequest("dev requires an explicit vdd > 0")
		}
		p.Dev = device.ASDM{K: it.Dev.K, V0: it.Dev.V0, A: it.Dev.A}
	} else {
		spec, err := it.extractSpec()
		if err != nil {
			return p, err
		}
		asdm, _, err := cache.Get(spec)
		if err != nil {
			return p, badRequest("%v", err)
		}
		p.Dev = asdm
		if vdd <= 0 {
			if vdd, err = spec.Vdd(); err != nil {
				return p, badRequest("%v", err)
			}
		}
	}
	p.Vdd = vdd

	switch {
	case it.L != nil:
		p.L = *it.L
		if it.C != nil {
			p.C = *it.C
		}
	default:
		pkg := it.Package
		if pkg == "" {
			pkg = "pga"
		}
		pack, err := pkgmodel.ByName(pkg)
		if err != nil {
			return p, badRequest("%v", err)
		}
		pads := it.Pads
		if pads < 1 {
			pads = 1
		}
		gnd := pack.Ground(pads)
		p.L, p.C = gnd.L, gnd.C
		if it.C != nil {
			p.C = *it.C
		}
	}

	switch {
	case it.Slope > 0:
		p.Slope = it.Slope
	case it.RiseTime > 0:
		p.Slope = p.Vdd / it.RiseTime
	default:
		return p, badRequest("one of slope or rise_time must be positive")
	}

	return p, p.Validate()
}

// SensitivityResult is the JSON shape of ssn.Sensitivity.
type SensitivityResult struct {
	DVdN float64 `json:"dvmax_dn"`
	DVdL float64 `json:"dvmax_dl"`
	DVdS float64 `json:"dvmax_dslope"`
	DVdC float64 `json:"dvmax_dc"`
	RelN float64 `json:"rel_n"`
	RelL float64 `json:"rel_l"`
	RelS float64 `json:"rel_slope"`
	RelC float64 `json:"rel_c"`
}

// EvalResult is one /v1/maxssn answer. In batch responses Index identifies
// the request item; failed items carry Error and zero values elsewhere.
type EvalResult struct {
	Index    int                `json:"index"`
	VMax     float64            `json:"vmax"`
	Case     string             `json:"case,omitempty"`
	CaseCode int                `json:"case_code,omitempty"`
	Beta     float64            `json:"beta,omitempty"`
	Zeta     *float64           `json:"zeta,omitempty"`  // nil when C = 0 (no ringing)
	TMax     float64            `json:"t_max,omitempty"` // time of max after turn-on, s
	Sens     *SensitivityResult `json:"sensitivity,omitempty"`
	Error    *apiError          `json:"error,omitempty"`
}

// maxSSNRequest accepts a single point ("params" nested, or legacy inline
// fields) or a batch ({"items": [...]}); a non-empty items list wins.
type maxSSNRequest struct {
	Items []EvalItem `json:"items"`
	paramsEnvelope
}

func (*maxSSNRequest) batched() {}

// legacyInline ignores the inline fields when a batch is supplied: items
// requests never read them, so they cannot deprecate anything.
func (q *maxSSNRequest) legacyInline() bool {
	return len(q.Items) == 0 && q.paramsEnvelope.legacyInline()
}

// maxSSNBatchResponse is the envelope of a batch evaluation.
type maxSSNBatchResponse struct {
	Count   int          `json:"count"`
	Results []EvalResult `json:"results"`
}

// waveformRequest asks for the sampled model waveforms of one item.
type waveformRequest struct {
	paramsEnvelope
	Model     string  `json:"model,omitempty"`      // "lc" (default) or "l"
	Samples   int     `json:"samples,omitempty"`    // default 256, max 65536
	RampStart float64 `json:"ramp_start,omitempty"` // absolute ramp start time, s
}

// waveformResponse carries the sampled bounce voltage and inductor current
// on a shared time grid (absolute circuit time).
type waveformResponse struct {
	Case  string    `json:"case,omitempty"`
	Times []float64 `json:"times"`
	V     []float64 `json:"v"`
	I     []float64 `json:"i"`
}

// VariationSpec mirrors ssn.Variation on the wire.
type VariationSpec struct {
	K     float64 `json:"k,omitempty"`
	V0    float64 `json:"v0,omitempty"`
	A     float64 `json:"a,omitempty"`
	L     float64 `json:"l,omitempty"`
	C     float64 `json:"c,omitempty"`
	Slope float64 `json:"slope,omitempty"`
}

// monteCarloRequest submits an asynchronous Monte Carlo job.
type monteCarloRequest struct {
	paramsEnvelope
	Samples   int           `json:"samples"`
	Seed      int64         `json:"seed,omitempty"`
	Workers   int           `json:"workers,omitempty"`
	Variation VariationSpec `json:"variation"`
}

// monteCarloResult is the JSON shape of ssn.MCResult.
type monteCarloResult struct {
	Samples int            `json:"samples"`
	Mean    float64        `json:"mean"`
	StdDev  float64        `json:"std_dev"`
	Min     float64        `json:"min"`
	Max     float64        `json:"max"`
	P95     float64        `json:"p95"`
	P99     float64        `json:"p99"`
	Cases   map[string]int `json:"cases"`
}

// jobResponse is returned by POST /v1/montecarlo.
type jobResponse struct {
	Job       Job    `json:"job"`
	StatusURL string `json:"status_url"`
}

// healthResponse is the /healthz body.
type healthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	JobsInFlight  int     `json:"jobs_in_flight"`
	CacheEntries  int     `json:"cache_entries"`
}

// finiteOrNil boxes a float for JSON, dropping non-finite values (which
// encoding/json rejects).
func finiteOrNil(x float64) *float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return nil
	}
	return &x
}
