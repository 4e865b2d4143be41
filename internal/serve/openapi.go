package serve

// OpenAPI 3.0 description of the v1 surface. The spec is authored here as
// Go data — the single source of truth — and rendered to api/openapi.yaml
// by a deterministic emitter; openapi_test.go byte-compares the committed
// file against this definition (drift fails CI, `go test -run OpenAPI
// -update-openapi ./internal/serve/` regenerates) and replays live
// httptest fixtures through a miniature JSON-schema validator so the spec
// cannot silently diverge from what the handlers actually speak.
//
// The stdlib has no YAML parser, so nothing here ever reads YAML back:
// the committed file is write-only output, and all validation runs against
// the in-memory form.

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// kv is one ordered key/value pair of a spec node; obj is an
// order-preserving object (YAML mappings emit in authoring order, which
// keeps the rendered bytes stable without sorting heuristics).
type kv struct {
	K string
	V any
}

type obj []kv

// get returns the value of key k, if present.
func (o obj) get(k string) (any, bool) {
	for _, p := range o {
		if p.K == k {
			return p.V, true
		}
	}
	return nil, false
}

// --- schema-building helpers ---

func ref(name string) obj { return obj{{"$ref", "#/components/schemas/" + name}} }

func typ(t string, extra ...kv) obj { return append(obj{{"type", t}}, extra...) }

func arrOf(items any) obj { return obj{{"type", "array"}, {"items", items}} }

func oneOf(schemas ...any) obj { return obj{{"oneOf", []any(schemas)}} }

func anySlice(ss ...string) []any {
	out := make([]any, len(ss))
	for i, s := range ss {
		out[i] = s
	}
	return out
}

// strictObj is an object schema that rejects unknown keys — every response
// schema uses it, so a handler growing a field breaks the fixture test
// until the spec (and the committed YAML) is updated.
func strictObj(props obj, required ...string) obj {
	s := obj{{"type", "object"}}
	if len(required) > 0 {
		s = append(s, kv{"required", anySlice(required...)})
	}
	return append(s, kv{"properties", props}, kv{"additionalProperties", false})
}

// jsonContent wraps a schema as an application/json media object.
func jsonContent(schema any) obj {
	return obj{{"application/json", obj{{"schema", schema}}}}
}

// ndjsonContent describes a streamed NDJSON body. OpenAPI has no native
// per-line schema, so the line shape rides in the x-line-schema extension,
// which the fixture test applies to every line of the stream.
func ndjsonContent(lineSchema any) obj {
	return obj{{"application/x-ndjson", obj{
		{"schema", typ("string", kv{"description", "newline-delimited JSON records"})},
		{"x-line-schema", lineSchema},
	}}}
}

// columnarContent describes an SSNC binary columnar body (the byte-exact
// layout is specified in the README "Columnar wire format" section); the
// x-block-meta extension names the schema of the embedded meta JSON.
func columnarContent(desc string, metaSchema any) obj {
	media := obj{{"schema", typ("string",
		kv{"format", "binary"},
		kv{"description", desc})}}
	if metaSchema != nil {
		media = append(media, kv{"x-block-meta", metaSchema})
	}
	return obj{{"application/x-ssn-columnar", media}}
}

// withContent merges media-type entries into one content object.
func withContent(contents ...obj) obj {
	var merged obj
	for _, c := range contents {
		merged = append(merged, c...)
	}
	return merged
}

func response(desc string, content any) obj {
	o := obj{{"description", desc}}
	if content != nil {
		o = append(o, kv{"content", content})
	}
	return o
}

var errorResponse = response("structured error envelope", jsonContent(ref("ErrorEnvelope")))

// post describes a POST operation with a required JSON request body.
func post(summary string, reqSchema any, responses obj) obj {
	return obj{{"post", obj{
		{"summary", summary},
		{"requestBody", obj{{"required", true}, {"content", jsonContent(reqSchema)}}},
		{"responses", responses},
	}}}
}

// evalItemProps is the shared parameter surface: device selection, ground
// net, input edge. Request schemas embed these inline (the deprecated
// legacy form) and nested under "params" (canonical).
func evalItemProps() obj {
	return obj{
		{"process", typ("string", kv{"description", "process kit to extract, default c018"})},
		{"corner", typ("string", kv{"enum", anySlice("", "tt", "ss", "ff")})},
		{"rail", typ("boolean", kv{"description", "pull-up drivers (rail droop)"})},
		{"size", typ("number", kv{"description", "driver width multiple"})},
		{"dev", ref("DeviceSpec")},
		{"vdd", typ("number", kv{"description", "supply, V; required with dev"})},
		{"n", typ("integer", kv{"description", "simultaneously switching drivers"})},
		{"package", typ("string", kv{"description", "package class, default pga when l unset"})},
		{"pads", typ("integer", kv{"description", "paralleled ground pads, default 1"})},
		{"l", typ("number", kv{"description", "explicit ground inductance, H"})},
		{"c", typ("number", kv{"description", "explicit ground capacitance, F"})},
		{"slope", typ("number", kv{"description", "input edge slope, V/s"})},
		{"rise_time", typ("number", kv{"description", "input edge rise time, s"})},
		{"sensitivity", typ("boolean", kv{"description", "include the analytic dVmax/d{N,L,s,C} of the Table 1 case"})},
	}
}

// solveItemProps is the inverse-design surface layered on an eval point.
func solveItemProps() obj {
	return append(evalItemProps(), obj{
		{"vmax_budget", typ("number", kv{"description", "noise budget, V"})},
		{"variable", typ("string", kv{"enum", anySlice("n", "l", "c", "slope", "rise_time", "tr")})},
		{"mode", typ("string", kv{"enum", anySlice("", "solve", "yield")})},
		{"lo", typ("number", kv{"description", "search bracket lower bound"})},
		{"hi", typ("number", kv{"description", "search bracket upper bound"})},
		{"samples", typ("integer", kv{"description", "yield mode: Monte Carlo samples, default 10000"})},
		{"seed", typ("integer")},
		{"workers", typ("integer")},
		{"variation", ref("VariationSpec")},
	}...)
}

// requestSchema builds an envelope request: canonical nested "params"
// (plus optional "items" batch), with the flat legacy fields inline.
func requestSchema(desc string, itemProps obj, itemsSchema any, extra obj) obj {
	props := obj{{"params", ref("EvalItem")}}
	if itemsSchema != nil {
		props = append(props, kv{"items", arrOf(itemsSchema)})
	}
	props = append(props, extra...)
	props = append(props, itemProps...)
	s := strictObj(props)
	return append(obj{{"description", desc +
		" Parameters belong under \"params\" (canonical); the flat inline form is deprecated, sunset 2027-08-01."}}, s...)
}

// openAPISpec assembles the whole document.
func openAPISpec() obj {
	schemas := obj{
		{"Error", strictObj(obj{
			{"code", typ("string", kv{"enum", anySlice(
				CodeInvalidRequest, CodeInvalidParams, CodeBodyTooLarge, CodeBatchTooLarge,
				CodeGridTooLarge, CodeTimeout, CodeNotFound, CodeOverloaded,
				CodeQuotaExhausted, CodeCanceled, CodeUnsolvable, CodeInternal)})},
			{"message", typ("string")},
			{"field", typ("string")},
			{"value", obj{{"description", "the offending input value"}}},
			{"constraint", typ("string")},
		}, "code", "message")},
		{"ErrorEnvelope", strictObj(obj{{"error", ref("Error")}}, "error")},
		{"DeviceSpec", strictObj(obj{
			{"k", typ("number")}, {"v0", typ("number")}, {"a", typ("number")},
		}, "k", "v0", "a")},
		{"EvalItem", strictObj(evalItemProps())},
		{"SensitivityResult", strictObj(obj{
			{"dvmax_dn", typ("number")}, {"dvmax_dl", typ("number")},
			{"dvmax_dslope", typ("number")}, {"dvmax_dc", typ("number")},
			{"rel_n", typ("number")}, {"rel_l", typ("number")},
			{"rel_slope", typ("number")}, {"rel_c", typ("number")},
		}, "dvmax_dn", "dvmax_dl", "dvmax_dslope", "dvmax_dc", "rel_n", "rel_l", "rel_slope", "rel_c")},
		{"EvalResult", strictObj(obj{
			{"index", typ("integer")},
			{"vmax", typ("number", kv{"description", "maximum over the input ramp, 0 <= tau <= tau_r, V"})},
			{"case", typ("string")},
			{"case_code", typ("integer")},
			{"beta", typ("number")},
			{"zeta", typ("number", kv{"nullable", true})},
			{"t_max", typ("number")},
			{"sensitivity", ref("SensitivityResult")},
			{"error", ref("Error")},
		}, "index", "vmax")},
		{"MaxSSNRequest", requestSchema("Evaluate one point or a batch.",
			evalItemProps(), ref("EvalItem"), nil)},
		{"MaxSSNBatchResponse", strictObj(obj{
			{"count", typ("integer")},
			{"results", arrOf(ref("EvalResult"))},
		}, "count", "results")},
		{"ColumnarBatchMeta", strictObj(obj{
			{"params", ref("EvalItem")},
		})},
		{"ColumnarBatchResponseMeta", strictObj(obj{
			{"count", typ("integer")},
			{"errors", obj{{"type", "object"},
				{"description", "failed rows by decimal row index"},
				{"additionalProperties", ref("Error")}}},
		}, "count")},
		{"VariationSpec", strictObj(obj{
			{"k", typ("number")}, {"v0", typ("number")}, {"a", typ("number")},
			{"l", typ("number")}, {"c", typ("number")}, {"slope", typ("number")},
		})},
		{"SolveItem", strictObj(solveItemProps())},
		{"SolveRequest", requestSchema("Inverse design or yield, one query or a batch.",
			solveItemProps(), ref("SolveItem"), nil)},
		{"MonteCarloResult", strictObj(obj{
			{"samples", typ("integer")}, {"mean", typ("number")}, {"std_dev", typ("number")},
			{"min", typ("number")}, {"max", typ("number")},
			{"p95", typ("number")}, {"p99", typ("number")},
			{"cases", obj{{"type", "object"}, {"additionalProperties", typ("integer")}}},
		}, "samples", "mean", "std_dev", "min", "max", "p95", "p99", "cases")},
		{"YieldResult", strictObj(obj{
			{"budget", typ("number")}, {"samples", typ("integer")}, {"pass", typ("integer")},
			{"probability", typ("number")},
			{"wilson_lo", typ("number")}, {"wilson_hi", typ("number")},
			{"stats", ref("MonteCarloResult")},
		}, "budget", "samples", "pass", "probability", "wilson_lo", "wilson_hi", "stats")},
		{"SolveResult", strictObj(obj{
			{"index", typ("integer")},
			{"mode", typ("string", kv{"enum", anySlice("solve", "yield")})},
			{"variable", typ("string")},
			{"value", typ("number")},
			{"max_drivers", typ("integer")},
			{"vmax", typ("number", kv{"description", "maximum over the input ramp, 0 <= tau <= tau_r, V"})},
			{"case", typ("string")},
			{"case_code", typ("integer")},
			{"evals", typ("integer")},
			{"yield", ref("YieldResult")},
			{"error", ref("Error")},
		}, "index", "mode")},
		{"SolveBatchResponse", strictObj(obj{
			{"count", typ("integer")},
			{"results", arrOf(ref("SolveResult"))},
		}, "count", "results")},
		{"WaveformRequest", requestSchema("Sample the closed-form waveforms of one point.",
			evalItemProps(), nil, obj{
				{"model", typ("string", kv{"enum", anySlice("", "lc", "l")})},
				{"samples", typ("integer", kv{"description", "default 256, max 65536"})},
				{"ramp_start", typ("number")},
			})},
		{"WaveformResponse", strictObj(obj{
			{"case", typ("string")},
			{"times", arrOf(typ("number"))},
			{"v", arrOf(typ("number"))},
			{"i", arrOf(typ("number"))},
		}, "times", "v", "i")},
		{"MonteCarloRequest", requestSchema("Submit an asynchronous Monte Carlo job.",
			evalItemProps(), nil, obj{
				{"samples", typ("integer")},
				{"seed", typ("integer")},
				{"workers", typ("integer")},
				{"variation", ref("VariationSpec")},
			})},
		{"Job", strictObj(obj{
			{"id", typ("string")},
			{"state", typ("string", kv{"enum", anySlice("queued", "running", "done", "failed", "canceled")})},
			{"created", typ("string", kv{"format", "date-time"})},
			{"started", typ("string", kv{"format", "date-time"})},
			{"finished", typ("string", kv{"format", "date-time"})},
			{"result", obj{{"description", "job-type-specific payload (MonteCarloResult for /v1/montecarlo)"}}},
			{"error", ref("Error")},
		}, "id", "state", "created")},
		{"JobResponse", strictObj(obj{
			{"job", ref("Job")},
			{"status_url", typ("string")},
		}, "job", "status_url")},
		{"HealthResponse", strictObj(obj{
			{"status", typ("string")},
			{"uptime_seconds", typ("number")},
			{"jobs_in_flight", typ("integer")},
			{"cache_entries", typ("integer")},
		}, "status", "uptime_seconds", "jobs_in_flight", "cache_entries")},
		{"SweepAxis", strictObj(obj{
			{"axis", typ("string", kv{"enum", anySlice("n", "l", "c", "slope", "tr", "size")})},
			{"from", typ("number")},
			{"to", typ("number")},
			{"points", typ("integer")},
			{"log", typ("boolean")},
		}, "axis", "from", "to", "points")},
		{"SweepRequest", requestSchema("Stream a multi-axis grid sweep as NDJSON.",
			evalItemProps(), nil, obj{
				{"axes", arrOf(ref("SweepAxis"))},
				{"chunk_size", typ("integer")},
				{"workers", typ("integer")},
				{"refine_depth", typ("integer")},
			})},
		{"SweepPoint", strictObj(obj{
			{"values", obj{{"type", "object"}, {"additionalProperties", typ("number")}}},
			{"vmax", typ("number", kv{"description", "maximum over the input ramp, 0 <= tau <= tau_r, V"})},
			{"case", typ("string")},
			{"case_code", typ("integer")},
			{"depth", typ("integer")},
			{"error", ref("Error")},
		}, "values")},
		{"SweepStats", strictObj(obj{
			{"grid_points", typ("integer")}, {"chunks", typ("integer")},
			{"evaluated", typ("integer")}, {"errors", typ("integer")},
			{"refined_points", typ("integer")}, {"max_refine_depth", typ("integer")},
			{"workers", typ("integer")},
		}, "grid_points", "chunks", "evaluated", "errors", "refined_points", "max_refine_depth", "workers")},
		{"SweepSummary", strictObj(obj{
			{"done", typ("boolean")},
			{"stats", ref("SweepStats")},
		}, "done", "stats")},
		{"ImpedanceRequest", append(obj{{"description",
			"PDN input-impedance analysis of a package-class RLC grid: one frequency (point), a streamed |Z(f)| profile (sweep), or greedy adjoint-guided decap placement (optimize)."}},
			strictObj(obj{
				{"package", typ("string", kv{"enum", anySlice("", "pga", "qfp", "bga", "cob")})},
				{"rows", typ("integer", kv{"description", "mesh rows, default 4"})},
				{"cols", typ("integer", kv{"description", "mesh columns, default 4"})},
				{"pads", typ("integer", kv{"description", "package pads on the mesh perimeter, default 4"})},
				{"mode", typ("string", kv{"enum", anySlice("", "point", "sweep", "optimize")})},
				{"freq", typ("number", kv{"description", "point mode: the analysis frequency, Hz"})},
				{"from", typ("number", kv{"description", "sweep start, Hz, default 1e6"})},
				{"to", typ("number", kv{"description", "sweep stop, Hz, default 1e10"})},
				{"points", typ("integer", kv{"description", "sweep points, default 200"})},
				{"linear", typ("boolean", kv{"description", "linear spacing (default logarithmic)"})},
				{"with_sens", typ("boolean", kv{"description", "adjoint d|Z|/d(element) per point (JSON responses only)"})},
				{"workers", typ("integer")},
				{"decap_c", typ("number", kv{"description", "optimize: unit decap capacitance, F, default 1e-9"})},
				{"decap_esr", typ("number", kv{"description", "optimize: unit decap ESR, Ohm, default 5e-3"})},
				{"max_decaps", typ("integer", kv{"description", "optimize: placement budget, default 4, max 64"})},
				{"decap_sites", arrOf(typ("integer"))},
			})...)},
		{"ImpedanceSens", strictObj(obj{
			{"name", typ("string")},
			{"kind", typ("string", kv{"enum", anySlice("R", "L", "C")})},
			{"value", typ("number")},
			{"dabs", typ("number", kv{"description", "d|Z|/d(value)"})},
		}, "name", "kind", "value", "dabs")},
		{"ImpedancePoint", strictObj(obj{
			{"freq", typ("number")},
			{"z_re", typ("number")},
			{"z_im", typ("number")},
			{"z_mag", typ("number")},
			{"sens", arrOf(ref("ImpedanceSens"))},
		}, "freq", "z_re", "z_im", "z_mag")},
		{"ImpedanceStats", strictObj(obj{
			{"points", typ("integer")},
			{"peak_freq", typ("number")},
			{"peak_z", typ("number")},
			{"workers", typ("integer")},
		}, "points", "peak_freq", "peak_z", "workers")},
		{"ImpedanceSummary", strictObj(obj{
			{"done", typ("boolean")},
			{"stats", ref("ImpedanceStats")},
		}, "done", "stats")},
		{"ImpedancePlacement", strictObj(obj{
			{"site", typ("integer")},
			{"node", typ("integer")},
			{"grad", typ("number", kv{"description", "d|Z_peak|/dC at decision time"})},
			{"peak_freq", typ("number", kv{"description", "refined Hz of the peak being attacked"})},
			{"peak_before", typ("number")},
			{"peak_after", typ("number")},
		}, "site", "node", "grad", "peak_freq", "peak_before", "peak_after")},
		{"ImpedanceOptimizeResponse", strictObj(obj{
			{"peak_before", typ("number")},
			{"peak_after", typ("number")},
			{"placements", arrOf(ref("ImpedancePlacement"))},
		}, "peak_before", "peak_after", "placements")},
		{"BaseParams", strictObj(obj{
			{"n", typ("integer")}, {"k", typ("number")}, {"v0", typ("number")},
			{"a", typ("number")}, {"vdd", typ("number")}, {"slope", typ("number")},
			{"l", typ("number")}, {"c", typ("number")},
		}, "n", "k", "v0", "a", "vdd", "slope", "l", "c")},
		{"DistAxis", strictObj(obj{
			{"axis", typ("string")}, {"from", typ("number")}, {"to", typ("number")},
			{"points", typ("integer")}, {"log", typ("boolean")},
		}, "axis", "from", "to", "points")},
		{"ExtractSpec", strictObj(obj{
			{"process", typ("string")},
			{"corner", typ("string")},
			{"rail", typ("boolean")},
		}, "process")},
		{"SweepSpec", strictObj(obj{
			{"base", ref("BaseParams")},
			{"axes", arrOf(ref("DistAxis"))},
			{"extract", ref("ExtractSpec")},
			{"shard_points", typ("integer")},
		}, "base", "axes", "shard_points")},
		{"ShardRequest", strictObj(obj{
			{"spec", ref("SweepSpec")},
			{"shard", typ("integer")},
		}, "spec", "shard")},
		{"DistSweepRequest", requestSchema("Coordinate a sweep across worker replicas.",
			evalItemProps(), nil, obj{
				{"axes", arrOf(ref("SweepAxis"))},
				{"workers", arrOf(typ("string"))},
				{"shard_points", typ("integer")},
				{"api_key", typ("string")},
			})},
		{"DistSummary", strictObj(obj{
			{"done", typ("boolean")},
			{"shards", typ("integer")},
			{"points", typ("integer")},
			{"reused", typ("integer")},
			{"retries", typ("integer")},
			{"elapsed_seconds", typ("number")},
		}, "done", "shards", "points", "reused", "retries", "elapsed_seconds")},
		{"WorkerProgress", strictObj(obj{
			{"url", typ("string")},
			{"in_flight", typ("integer")},
			{"shards", typ("integer")},
			{"failures", typ("integer")},
		}, "url", "in_flight", "shards", "failures")},
		{"DistProgress", strictObj(obj{
			{"shards_total", typ("integer")}, {"shards_done", typ("integer")},
			{"shards_reused", typ("integer")},
			{"points_total", typ("integer")}, {"points_done", typ("integer")},
			{"points_per_sec", typ("number")},
			{"retries", typ("integer")},
			{"elapsed_seconds", typ("number")},
			{"done", typ("boolean")},
			{"error", typ("string")},
			{"workers", arrOf(ref("WorkerProgress"))},
		}, "shards_total", "shards_done", "shards_reused", "points_total", "points_done",
			"points_per_sec", "retries", "elapsed_seconds", "done")},
		{"DistRunStatus", strictObj(obj{
			{"id", typ("string")},
			{"progress", ref("DistProgress")},
		}, "id", "progress")},
		{"DistStatusResponse", strictObj(obj{
			{"count", typ("integer")},
			{"runs", arrOf(ref("DistRunStatus"))},
		}, "count", "runs")},
	}

	sweepLine := oneOf(ref("SweepPoint"), ref("SweepSummary"), ref("ErrorEnvelope"))
	distLine := oneOf(ref("SweepPoint"), ref("DistSummary"), ref("ErrorEnvelope"))
	impedanceLine := oneOf(ref("ImpedancePoint"), ref("ImpedanceSummary"))

	paths := obj{
		{"/v1/maxssn", obj{{"post", obj{
			{"summary", "Maximum SSN of one point or a batch"},
			{"requestBody", obj{{"required", true}, {"content", withContent(
				jsonContent(ref("MaxSSNRequest")),
				columnarContent("SSNC block: meta is the params envelope; per-row override columns n, l, c, slope, rise_time, vdd, pads, size",
					ref("ColumnarBatchMeta")),
			)}}},
			{"responses", obj{
				{"200", response("evaluation result (single) or batch envelope; columnar batches negotiate SSNC output",
					withContent(
						jsonContent(oneOf(ref("EvalResult"), ref("MaxSSNBatchResponse"))),
						columnarContent("SSNC block: columns vmax, case_code, t_max, beta; failed rows NaN with errors in the meta",
							ref("ColumnarBatchResponseMeta")),
					))},
				{"default", errorResponse},
			}},
		}}}},
		{"/v1/solve", post("Inverse design / yield for a vmax budget", ref("SolveRequest"), obj{
			{"200", response("solved boundary (single) or batch envelope",
				jsonContent(oneOf(ref("SolveResult"), ref("SolveBatchResponse"))))},
			{"422", response("no boundary inside the search bracket", jsonContent(ref("ErrorEnvelope")))},
			{"default", errorResponse},
		})},
		{"/v1/waveform", post("Sampled closed-form V(t) and I(t)", ref("WaveformRequest"), obj{
			{"200", response("waveforms on a shared time grid", jsonContent(ref("WaveformResponse")))},
			{"default", errorResponse},
		})},
		{"/v1/sweep", post("Multi-axis grid sweep, streamed", ref("SweepRequest"), obj{
			{"200", response("NDJSON: points, then a terminal summary; Accept: application/x-ssn-columnar streams SSNC blocks instead",
				withContent(
					ndjsonContent(sweepLine),
					columnarContent("SSNC block stream: per-axis value columns plus vmax, case_code, depth; terminal zero-row block carries done/stats (or the error envelope) in its meta",
						oneOf(ref("SweepSummary"), ref("ErrorEnvelope"))),
				))},
			{"default", errorResponse},
		})},
		{"/v1/impedance", post("Frequency-domain PDN impedance: point, sweep, or decap optimization", ref("ImpedanceRequest"), obj{
			{"200", response("point/optimize answer as JSON; sweep streams NDJSON points then a terminal summary, or SSNC blocks when negotiated",
				withContent(
					jsonContent(oneOf(ref("ImpedancePoint"), ref("ImpedanceOptimizeResponse"))),
					ndjsonContent(impedanceLine),
					columnarContent("SSNC block stream: columns freq, z_re, z_im, z_mag; terminal zero-row block carries done/stats in its meta",
						ref("ImpedanceSummary")),
				))},
			{"default", errorResponse},
		})},
		{"/v1/shard", post("Evaluate one distributed-sweep shard", ref("ShardRequest"), obj{
			{"200", response("NDJSON: the shard's points in global order", ndjsonContent(ref("SweepPoint")))},
			{"default", errorResponse},
		})},
		{"/v1/montecarlo", post("Submit an asynchronous Monte Carlo job", ref("MonteCarloRequest"), obj{
			{"202", response("job accepted", jsonContent(ref("JobResponse")))},
			{"default", errorResponse},
		})},
		{"/v1/distsweep", post("Coordinate a sweep across replicas", ref("DistSweepRequest"), obj{
			{"200", response("NDJSON: merged points, then a terminal summary", ndjsonContent(distLine))},
			{"default", errorResponse},
		})},
		{"/v1/distsweep/status", obj{{"get", obj{
			{"summary", "Progress of recent coordinator runs"},
			{"parameters", []any{obj{
				{"name", "id"}, {"in", "query"}, {"required", false},
				{"schema", typ("string")},
			}}},
			{"responses", obj{
				{"200", response("run snapshots, newest first", jsonContent(ref("DistStatusResponse")))},
				{"default", errorResponse},
			}},
		}}}},
		{"/v1/jobs/{id}", obj{{"get", obj{
			{"summary", "Job status and result"},
			{"parameters", []any{obj{
				{"name", "id"}, {"in", "path"}, {"required", true},
				{"schema", typ("string")},
			}}},
			{"responses", obj{
				{"200", response("job record", jsonContent(ref("Job")))},
				{"default", errorResponse},
			}},
		}}}},
		{"/healthz", obj{{"get", obj{
			{"summary", "Liveness and basic gauges"},
			{"responses", obj{
				{"200", response("healthy", jsonContent(ref("HealthResponse")))},
			}},
		}}}},
		{"/metrics", obj{{"get", obj{
			{"summary", "Prometheus text exposition"},
			{"responses", obj{
				{"200", response("metrics", obj{{"text/plain", obj{{"schema", typ("string")}}}})},
			}},
		}}}},
	}

	return obj{
		{"openapi", "3.0.3"},
		{"info", obj{
			{"title", "ssnkit evaluation service"},
			{"description", "Closed-form simultaneous switching noise models (Ding & Mazumder, DATE 2002): forward evaluation, inverse design, yield, sweeps and Monte Carlo behind one envelope-checked v1 API."},
			{"version", "1.0.0"},
		}},
		{"paths", paths},
		{"components", obj{{"schemas", schemas}}},
	}
}

// --- deterministic YAML emission ---

// OpenAPIYAML renders the spec. Byte-for-byte stable: mappings emit in
// authoring order, strings always double-quoted, numbers via strconv.
func OpenAPIYAML() []byte {
	var b bytes.Buffer
	b.WriteString("# Generated from internal/serve/openapi.go — do not edit by hand.\n")
	b.WriteString("# Regenerate: go test -run OpenAPI -update-openapi ./internal/serve/\n")
	spec := openAPISpec()
	for _, p := range spec {
		writeYAMLKey(&b, p, 0)
	}
	return b.Bytes()
}

func yamlKey(k string) string {
	if k == "" {
		return `""`
	}
	for i := 0; i < len(k); i++ {
		c := k[i]
		ok := c == '_' || c == '$' || c == '/' || c == '.' || c == '-' || c == '{' || c == '}' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
		if !ok {
			return strconv.Quote(k)
		}
	}
	if k[0] >= '0' && k[0] <= '9' {
		return strconv.Quote(k) // status codes are strings in OpenAPI
	}
	return k
}

func writeYAMLKey(b *bytes.Buffer, p kv, indent int) {
	b.WriteString(strings.Repeat("  ", indent))
	b.WriteString(yamlKey(p.K))
	b.WriteByte(':')
	writeYAMLValue(b, p.V, indent)
}

// writeYAMLValue continues after "key:" or "-": scalars inline, nested
// structures as an indented block.
func writeYAMLValue(b *bytes.Buffer, v any, indent int) {
	switch t := v.(type) {
	case obj:
		if len(t) == 0 {
			b.WriteString(" {}\n")
			return
		}
		b.WriteByte('\n')
		for _, p := range t {
			writeYAMLKey(b, p, indent+1)
		}
	case []any:
		if len(t) == 0 {
			b.WriteString(" []\n")
			return
		}
		b.WriteByte('\n')
		for _, item := range t {
			b.WriteString(strings.Repeat("  ", indent+1))
			b.WriteByte('-')
			writeYAMLValue(b, item, indent+1)
		}
	case string:
		b.WriteString(" " + strconv.Quote(t) + "\n")
	case bool:
		b.WriteString(" " + strconv.FormatBool(t) + "\n")
	case int:
		b.WriteString(" " + strconv.Itoa(t) + "\n")
	case float64:
		b.WriteString(" " + strconv.FormatFloat(t, 'g', -1, 64) + "\n")
	default:
		panic(fmt.Sprintf("openapi: unsupported YAML value %T", v))
	}
}

// --- miniature schema validator (fixture round-trips) ---

// schemaIndex resolves $ref against components.schemas.
type schemaIndex map[string]obj

func buildSchemaIndex(spec obj) schemaIndex {
	ix := schemaIndex{}
	comp, _ := spec.get("components")
	schemas, _ := comp.(obj).get("schemas")
	for _, p := range schemas.(obj) {
		ix[p.K] = p.V.(obj)
	}
	return ix
}

// Validate checks a decoded JSON value (map[string]any / []any / float64 /
// string / bool / nil) against a schema node. It covers the subset the
// spec uses: $ref, type, enum, nullable, required, properties,
// additionalProperties (false or a schema), items, oneOf.
func (ix schemaIndex) Validate(path string, val any, schema any) error {
	s, ok := schema.(obj)
	if !ok {
		return fmt.Errorf("%s: schema node is %T, not obj", path, schema)
	}
	if r, ok := s.get("$ref"); ok {
		name := strings.TrimPrefix(r.(string), "#/components/schemas/")
		target, ok := ix[name]
		if !ok {
			return fmt.Errorf("%s: dangling $ref %q", path, name)
		}
		return ix.Validate(path, val, target)
	}
	if alts, ok := s.get("oneOf"); ok {
		matches := 0
		var errs []string
		for i, alt := range alts.([]any) {
			if err := ix.Validate(path, val, alt); err == nil {
				matches++
			} else if len(errs) < 3 {
				errs = append(errs, fmt.Sprintf("alt %d: %v", i, err))
			}
		}
		if matches != 1 {
			return fmt.Errorf("%s: oneOf matched %d alternatives (%s)", path, matches, strings.Join(errs, "; "))
		}
		return nil
	}
	if val == nil {
		if n, ok := s.get("nullable"); ok && n == true {
			return nil
		}
		if _, typed := s.get("type"); !typed {
			return nil // untyped schema accepts anything
		}
		return fmt.Errorf("%s: null for non-nullable schema", path)
	}
	if enum, ok := s.get("enum"); ok {
		for _, allowed := range enum.([]any) {
			if val == allowed {
				return nil
			}
		}
		return fmt.Errorf("%s: %v not in enum %v", path, val, enum)
	}
	tv, ok := s.get("type")
	if !ok {
		return nil
	}
	switch tv {
	case "object":
		m, ok := val.(map[string]any)
		if !ok {
			return fmt.Errorf("%s: %T is not an object", path, val)
		}
		props := obj{}
		if pv, ok := s.get("properties"); ok {
			props = pv.(obj)
		}
		if rv, ok := s.get("required"); ok {
			for _, name := range rv.([]any) {
				if _, present := m[name.(string)]; !present {
					return fmt.Errorf("%s: missing required field %q", path, name)
				}
			}
		}
		addl, hasAddl := s.get("additionalProperties")
		for key, sub := range m {
			if schemaFor, known := props.get(key); known {
				if err := ix.Validate(path+"."+key, sub, schemaFor); err != nil {
					return err
				}
				continue
			}
			if !hasAddl {
				continue // open object
			}
			if addl == false {
				return fmt.Errorf("%s: unknown field %q (schema is closed)", path, key)
			}
			if err := ix.Validate(path+"."+key, sub, addl); err != nil {
				return err
			}
		}
	case "array":
		items, ok := val.([]any)
		if !ok {
			return fmt.Errorf("%s: %T is not an array", path, val)
		}
		itemSchema, _ := s.get("items")
		for i, item := range items {
			if err := ix.Validate(fmt.Sprintf("%s[%d]", path, i), item, itemSchema); err != nil {
				return err
			}
		}
	case "string":
		if _, ok := val.(string); !ok {
			return fmt.Errorf("%s: %T is not a string", path, val)
		}
	case "boolean":
		if _, ok := val.(bool); !ok {
			return fmt.Errorf("%s: %T is not a boolean", path, val)
		}
	case "number":
		if _, ok := val.(float64); !ok {
			return fmt.Errorf("%s: %T is not a number", path, val)
		}
	case "integer":
		f, ok := val.(float64)
		if !ok || f != float64(int64(f)) {
			return fmt.Errorf("%s: %v is not an integer", path, val)
		}
	default:
		return fmt.Errorf("%s: unsupported schema type %q", path, tv)
	}
	return nil
}

// operationFor returns the spec node for method+path, or nil.
func operationFor(spec obj, method, path string) obj {
	paths, _ := spec.get("paths")
	item, ok := paths.(obj).get(path)
	if !ok {
		return nil
	}
	op, ok := item.(obj).get(strings.ToLower(method))
	if !ok {
		return nil
	}
	return op.(obj)
}

// specPaths lists method+path pairs the spec documents, sorted.
func specPaths(spec obj) []string {
	paths, _ := spec.get("paths")
	var out []string
	for _, item := range paths.(obj) {
		for _, op := range item.V.(obj) {
			out = append(out, strings.ToUpper(op.K)+" "+item.K)
		}
	}
	sort.Strings(out)
	return out
}
