package serve

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"testing"
)

// solveParamsJSON is a deep-under-damped point (C well above critical) so
// both peak and boundary cases are reachable by the solver.
const solveParamsJSON = `{"dev": {"k": 0.02, "v0": 0.5, "a": 1.6}, "vdd": 1.8, "n": 8, "l": 5e-9, "c": 2e-11, "rise_time": 1e-9}`

func decodeSolve(t *testing.T, body []byte) SolveResult {
	t.Helper()
	var res SolveResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("decoding solve result: %v\n%s", err, body)
	}
	return res
}

// TestSolveSingleRoundTrip: solve n for a budget through the nested
// envelope, then verify via /v1/maxssn that the solved point meets it.
func TestSolveSingleRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{"params": ` + solveParamsJSON + `, "vmax_budget": 0.4, "variable": "n"}`
	resp, body := postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve failed: %d %s", resp.StatusCode, body)
	}
	res := decodeSolve(t, body)
	if res.Mode != "solve" || res.Variable != "n" {
		t.Fatalf("mode/variable = %q/%q, want solve/n", res.Mode, res.Variable)
	}
	if res.Value <= 0 || res.MaxDrivers < 1 || res.MaxDrivers > int(res.Value)+1 {
		t.Fatalf("implausible boundary: value %g, max_drivers %d", res.Value, res.MaxDrivers)
	}
	if res.VMax < 0.4-1e-9 || res.VMax > 0.4 {
		t.Fatalf("vmax %g outside [budget-1e-9, budget]", res.VMax)
	}
	if res.Evals <= 0 {
		t.Fatalf("evals = %d, want > 0", res.Evals)
	}

	// The integer driver count must satisfy the budget per /v1/maxssn ...
	check := fmt.Sprintf(`{"params": {"dev": {"k": 0.02, "v0": 0.5, "a": 1.6}, "vdd": 1.8, "l": 5e-9, "c": 2e-11, "rise_time": 1e-9, "n": %d}}`, res.MaxDrivers)
	resp, body = postJSON(t, ts.URL+"/v1/maxssn", check)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("maxssn check failed: %d %s", resp.StatusCode, body)
	}
	var ev EvalResult
	if err := json.Unmarshal(body, &ev); err != nil {
		t.Fatal(err)
	}
	if ev.VMax > 0.4 {
		t.Errorf("max_drivers=%d evaluates to vmax %g > budget 0.4", res.MaxDrivers, ev.VMax)
	}
	// ... and one more driver must exceed it.
	over := fmt.Sprintf(`{"params": {"dev": {"k": 0.02, "v0": 0.5, "a": 1.6}, "vdd": 1.8, "l": 5e-9, "c": 2e-11, "rise_time": 1e-9, "n": %d}}`, res.MaxDrivers+1)
	resp, body = postJSON(t, ts.URL+"/v1/maxssn", over)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("maxssn over-check failed: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &ev); err != nil {
		t.Fatal(err)
	}
	if ev.VMax <= 0.4 {
		t.Errorf("max_drivers+1=%d still meets the budget (vmax %g)", res.MaxDrivers+1, ev.VMax)
	}
}

// TestSolveVariables: every free variable solves through the API and
// reports the canonical variable name.
func TestSolveVariables(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, v := range []string{"n", "l", "c", "slope", "rise_time", "tr"} {
		req := fmt.Sprintf(`{"params": %s, "vmax_budget": 0.4, "variable": %q}`, solveParamsJSON, v)
		resp, body := postJSON(t, ts.URL+"/v1/solve", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %s failed: %d %s", v, resp.StatusCode, body)
		}
		res := decodeSolve(t, body)
		want := v
		if v == "tr" {
			want = "rise_time"
		}
		if res.Variable != want {
			t.Errorf("variable %q reported as %q", v, res.Variable)
		}
		if res.VMax < 0.4-1e-9 || res.VMax > 0.4 {
			t.Errorf("solve %s: vmax %g outside the budget window", v, res.VMax)
		}
	}
}

var updateSolveGolden = flag.Bool("update-solve", false, "rewrite testdata/solve_batch.json from a fresh run")

// TestSolveBatch pins a mixed /v1/solve batch reply byte for byte, evals
// included: one item per free variable, an unsolvable budget, a yield
// query and an unknown variable, the last three answered in place.
// Regenerate with go test ./internal/serve -run 'TestSolveBatch$'
// -update-solve.
func TestSolveBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const pt = `"dev": {"k": 0.02, "v0": 0.5, "a": 1.6}, "vdd": 1.8, "n": 8, "l": 5e-9, "c": 2e-11, "rise_time": 1e-9`
	req := `{"items": [
		{` + pt + `, "vmax_budget": 0.4, "variable": "n"},
		{` + pt + `, "vmax_budget": 0.3, "variable": "l"},
		{` + pt + `, "vmax_budget": 0.4, "variable": "c"},
		{` + pt + `, "vmax_budget": 0.4, "variable": "slope"},
		{` + pt + `, "vmax_budget": 0.4, "variable": "rise_time"},
		{` + pt + `, "vmax_budget": 1e6, "variable": "l"},
		{` + pt + `, "vmax_budget": 0.6, "mode": "yield", "samples": 500, "seed": 7, "workers": 1},
		{` + pt + `, "vmax_budget": 0.4, "variable": "bogus"}
	]}`
	resp, body := postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	checkGolden(t, "solve_batch.json", body, *updateSolveGolden)
}

// TestSolveYieldMode: mode "yield" returns a pass probability with a
// Wilson interval, deterministic for a fixed seed.
func TestSolveYieldMode(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{"params": ` + solveParamsJSON + `, "vmax_budget": 0.05, "mode": "yield",
		"samples": 4000, "seed": 42, "workers": 4}`
	resp, body := postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("yield failed: %d %s", resp.StatusCode, body)
	}
	res := decodeSolve(t, body)
	if res.Mode != "yield" || res.Yield == nil {
		t.Fatalf("mode %q, yield %v", res.Mode, res.Yield)
	}
	y := res.Yield
	if y.Samples != 4000 || y.Pass < 0 || y.Pass > y.Samples {
		t.Fatalf("samples %d pass %d", y.Samples, y.Pass)
	}
	if math.Abs(y.Probability-float64(y.Pass)/float64(y.Samples)) > 1e-12 {
		t.Errorf("probability %g != pass/samples", y.Probability)
	}
	if !(y.WilsonLo <= y.Probability && y.Probability <= y.WilsonHi) {
		t.Errorf("Wilson interval [%g, %g] does not cover %g", y.WilsonLo, y.WilsonHi, y.Probability)
	}
	if y.Stats.Samples != 4000 || !(y.Stats.Mean > 0) {
		t.Errorf("stats: %+v", y.Stats)
	}

	// Same seed, same answer.
	resp2, body2 := postJSON(t, ts.URL+"/v1/solve", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("yield rerun failed: %d", resp2.StatusCode)
	}
	res2 := decodeSolve(t, body2)
	if res2.Yield.Pass != y.Pass || res2.Yield.Probability != y.Probability ||
		res2.Yield.WilsonLo != y.WilsonLo || res2.Yield.WilsonHi != y.WilsonHi {
		t.Errorf("yield not deterministic for a fixed seed: %+v vs %+v", res2.Yield, y)
	}
}

// TestSolveUnsolvableIs422: a budget unreachable in the bracket returns
// the unsolvable code with HTTP 422.
func TestSolveUnsolvableIs422(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Saturation: the L-only supremum is beta; no driver count reaches a
	// budget above it once saturation clamps growth. Use a huge budget.
	req := `{"params": ` + solveParamsJSON + `, "vmax_budget": 1e6, "variable": "l"}`
	resp, body := postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, body)
	}
	aerr := errEnvelope(t, body)
	if aerr.Code != "unsolvable" {
		t.Fatalf("code %q, want unsolvable", aerr.Code)
	}
	if aerr.Field != "vmax_budget" || aerr.Constraint == "" {
		t.Errorf("error lacks field/constraint detail: %+v", aerr)
	}
}

// TestSolveValidationErrors: bad requests get structured 400s.
func TestSolveValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body, code string
		status           int
	}{
		{"missing variable", `{"params": ` + solveParamsJSON + `, "vmax_budget": 0.4}`, "invalid_params", 400},
		{"bad mode", `{"params": ` + solveParamsJSON + `, "vmax_budget": 0.4, "mode": "dream"}`, "invalid_request", 400},
		{"negative budget", `{"params": ` + solveParamsJSON + `, "vmax_budget": -1, "variable": "n"}`, "invalid_params", 400},
		{"inverted bracket", `{"params": ` + solveParamsJSON + `, "vmax_budget": 0.4, "variable": "n", "lo": 100, "hi": 1}`, "invalid_params", 400},
		{"yield bad budget", `{"params": ` + solveParamsJSON + `, "vmax_budget": 0, "mode": "yield"}`, "invalid_params", 400},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/solve", tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d: %s", tc.name, resp.StatusCode, tc.status, body)
			continue
		}
		if aerr := errEnvelope(t, body); aerr.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, aerr.Code, tc.code)
		}
	}
}

// TestSolveLegacyInlineDeprecated: /v1/solve shares the envelope decoder,
// so inline params carry the deprecation stamp.
func TestSolveLegacyInlineDeprecated(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := `{"dev": {"k": 0.02, "v0": 0.5, "a": 1.6}, "vdd": 1.8, "l": 5e-9, "c": 2e-11, "rise_time": 1e-9,
		"vmax_budget": 0.4, "variable": "n"}`
	resp, body := postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("legacy inline solve failed: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Deprecation") != "true" || resp.Header.Get("Sunset") == "" {
		t.Error("legacy inline solve response missing deprecation headers")
	}
	if n := s.metrics.value("ssnserve_legacy_envelope_total"); n != 1 {
		t.Errorf("legacy counter %d, want 1", n)
	}
}

// TestSolveMetrics: solves are counted by mode in the exposition.
func TestSolveMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	solve := `{"params": ` + solveParamsJSON + `, "vmax_budget": 0.4, "variable": "n"}`
	yield := `{"params": ` + solveParamsJSON + `, "vmax_budget": 0.05, "mode": "yield", "samples": 200, "seed": 1}`
	for _, req := range []string{solve, solve, yield} {
		if resp, body := postJSON(t, ts.URL+"/v1/solve", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("request failed: %d %s", resp.StatusCode, body)
		}
	}
	resp, body := getURL(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	for _, want := range []string{
		`ssnserve_solves_total{mode="solve"} 2`,
		`ssnserve_solves_total{mode="yield"} 1`,
	} {
		if !containsLine(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// containsLine reports whether text contains the exact line.
func containsLine(text, line string) bool {
	for len(text) > 0 {
		i := 0
		for i < len(text) && text[i] != '\n' {
			i++
		}
		if text[:i] == line {
			return true
		}
		if i == len(text) {
			break
		}
		text = text[i+1:]
	}
	return false
}
