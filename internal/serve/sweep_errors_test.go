package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

// These tests pin the /v1/sweep and /v1/maxssn failure surfaces: every
// rejection must arrive as the structured error envelope (code, message,
// and — when the failure is attributable — field/value/constraint), never
// as a bare string or a half-started stream.

// errEnvelope decodes the standard {"error": {...}} body.
func errEnvelope(t *testing.T, body []byte) *apiError {
	t.Helper()
	var env struct {
		Error *apiError `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
		t.Fatalf("response is not an error envelope: %s", body)
	}
	return env.Error
}

func TestSweepMalformedAxisSpec(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body     string
		wantCode       string
		wantField      string
		wantConstraint string
	}{
		{
			name:     "truncated JSON",
			body:     `{"axes": [{"axis": "n", "from": 1`,
			wantCode: "invalid_request",
		},
		{
			name:     "axis bound of wrong type",
			body:     `{"params": {"rise_time": 1e-9}, "axes": [{"axis": "n", "from": "four", "to": 16, "points": 4}]}`,
			wantCode: "invalid_request",
		},
		{
			name:     "axes not an array",
			body:     `{"params": {"rise_time": 1e-9}, "axes": {"axis": "n"}}`,
			wantCode: "invalid_request",
		},
		{
			name:     "inverted range",
			body:     `{"params": {"rise_time": 1e-9}, "axes": [{"axis": "n", "from": 16, "to": 4, "points": 4}]}`,
			wantCode: "invalid_request",
		},
		{
			name:     "duplicate axis",
			body:     `{"params": {"rise_time": 1e-9}, "axes": [{"axis": "l", "from": 1e-9, "to": 4e-9, "points": 2}, {"axis": "l", "from": 1e-9, "to": 4e-9, "points": 2}]}`,
			wantCode: "invalid_request",
		},
		{
			name:     "tr and slope sweep the same knob",
			body:     `{"params": {"rise_time": 1e-9}, "axes": [{"axis": "tr", "from": 1e-10, "to": 1e-9, "points": 2}, {"axis": "slope", "from": 1e9, "to": 4e9, "points": 2}]}`,
			wantCode: "invalid_request",
		},
		{
			name:           "negative points",
			body:           `{"params": {"rise_time": 1e-9}, "axes": [{"axis": "n", "from": 1, "to": 4, "points": -3}]}`,
			wantCode:       "invalid_request",
			wantField:      "axes",
			wantConstraint: "points >= 1",
		},
		{
			name:           "zero-point axis",
			body:           `{"params": {"rise_time": 1e-9}, "axes": [{"axis": "n", "from": 1, "to": 4, "points": 0}]}`,
			wantCode:       "invalid_request",
			wantField:      "axes",
			wantConstraint: "points >= 1",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/sweep", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Errorf("error content type %q, want application/json", ct)
			}
			aerr := errEnvelope(t, body)
			if aerr.Code != tc.wantCode {
				t.Errorf("code %q, want %q (%s)", aerr.Code, tc.wantCode, body)
			}
			if aerr.Message == "" {
				t.Errorf("empty error message: %s", body)
			}
			if tc.wantField != "" && aerr.Field != tc.wantField {
				t.Errorf("field %q, want %q", aerr.Field, tc.wantField)
			}
			if tc.wantConstraint != "" && aerr.Constraint != tc.wantConstraint {
				t.Errorf("constraint %q, want %q", aerr.Constraint, tc.wantConstraint)
			}
		})
	}
}

// TestSweepZeroPointAxisRejectedBeforeStreaming pins the ordering
// guarantee: a zero-point axis must be caught while a 400 status line is
// still possible, not after the NDJSON stream has started.
func TestSweepZeroPointAxisRejectedBeforeStreaming(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"params": {"dev": {"k": 0.02, "v0": 0.5, "a": 1.6}, "vdd": 1.8, "rise_time": 1e-9},
	          "axes": [{"axis": "n", "from": 4, "to": 16, "points": 4},
	                   {"axis": "c", "from": 1e-13, "to": 1e-12, "points": 0}]}`
	resp, out := postJSON(t, ts.URL+"/v1/sweep", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, out)
	}
	if strings.Contains(string(out), "\"values\"") {
		t.Fatalf("stream records emitted before validation: %s", out)
	}
	aerr := errEnvelope(t, out)
	if aerr.Value == nil {
		t.Errorf("zero-point rejection lost the offending value: %s", out)
	}
}

// TestSweepDisconnectBeforeFirstRecord hangs up immediately after the
// request is sent (the other mid-stream test reads a few lines first):
// the server must record the abort and not leak the run.
func TestSweepDisconnectBeforeFirstRecord(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := `{"params": {"dev": {"k": 0.02, "v0": 0.5, "a": 1.6}, "vdd": 1.8, "n": 16, "rise_time": 1e-9},
	          "axes": [{"axis": "l", "from": 1e-10, "to": 8e-9, "points": 900},
	                   {"axis": "c", "from": 1e-13, "to": 4e-11, "points": 900}],
	          "chunk_size": 32}`
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Hang up without reading a single record.
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if s.metrics.value("ssnserve_sweeps_aborted_total") >= 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never recorded as aborted after early disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMaxSSNInvalidParamsEnvelope sends the canonical nested-params form
// with one bad field and asserts the full structured ValidationError
// surface: code, field, value AND constraint — clients route on these.
func TestMaxSSNInvalidParamsEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body     string
		wantField      string
		wantConstraint string
		wantValue      any
	}{
		{
			name:      "negative inductance",
			body:      `{"params": {"dev": {"k": 0.02, "v0": 0.5, "a": 1.6}, "vdd": 1.8, "rise_time": 1e-9, "n": 4, "l": -1e-9}}`,
			wantField: "L", wantConstraint: "must be positive", wantValue: -1e-9,
		},
		{
			name:      "negative capacitance",
			body:      `{"params": {"dev": {"k": 0.02, "v0": 0.5, "a": 1.6}, "vdd": 1.8, "rise_time": 1e-9, "n": 4, "l": 5e-9, "c": -2e-12}}`,
			wantField: "C", wantConstraint: "must be non-negative", wantValue: -2e-12,
		},
		{
			name:      "vdd below displacement voltage",
			body:      `{"params": {"dev": {"k": 0.02, "v0": 0.5, "a": 1.6}, "vdd": 0.3, "rise_time": 1e-9, "n": 4, "l": 5e-9}}`,
			wantField: "Vdd", wantConstraint: "must exceed the device displacement voltage", wantValue: 0.3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/maxssn", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
			}
			aerr := errEnvelope(t, body)
			if aerr.Code != "invalid_params" {
				t.Errorf("code %q, want invalid_params", aerr.Code)
			}
			if aerr.Field != tc.wantField {
				t.Errorf("field %q, want %q (%s)", aerr.Field, tc.wantField, body)
			}
			if aerr.Constraint != tc.wantConstraint {
				t.Errorf("constraint %q, want %q", aerr.Constraint, tc.wantConstraint)
			}
			got, ok := aerr.Value.(float64)
			want, isNum := tc.wantValue.(float64)
			if !ok || !isNum || got != want {
				t.Errorf("value %v, want %v", aerr.Value, tc.wantValue)
			}
		})
	}
}
