package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// sweepBody is a small two-axis request with an inline device (no
// extraction), in the canonical nested-params form.
const sweepBody = `{
  "params": {"dev": {"k": 0.02, "v0": 0.5, "a": 1.6}, "vdd": 1.8, "rise_time": 1e-9},
  "axes": [
    {"axis": "n", "from": 4, "to": 16, "points": 4},
    {"axis": "l", "from": 1e-9, "to": 4e-9, "points": 3}
  ]
}`

// decodeNDJSON splits an NDJSON body into one generic map per line.
func decodeNDJSON(t *testing.T, body []byte) []map[string]any {
	t.Helper()
	var recs []map[string]any
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		recs = append(recs, m)
	}
	return recs
}

func TestSweepNDJSONStream(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/sweep", sweepBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	recs := decodeNDJSON(t, body)
	if len(recs) != 13 { // 4*3 points + terminal summary
		t.Fatalf("got %d records, want 13:\n%s", len(recs), body)
	}
	for i, rec := range recs[:12] {
		vals, ok := rec["values"].(map[string]any)
		if !ok {
			t.Fatalf("record %d has no values: %v", i, rec)
		}
		if _, ok := vals["n"]; !ok {
			t.Errorf("record %d missing axis n: %v", i, rec)
		}
		if _, ok := vals["l"]; !ok {
			t.Errorf("record %d missing axis l: %v", i, rec)
		}
		if v, _ := rec["vmax"].(float64); v <= 0 {
			t.Errorf("record %d vmax %v", i, rec["vmax"])
		}
		if rec["case"] == "" || rec["case"] == nil {
			t.Errorf("record %d missing case: %v", i, rec)
		}
	}
	last := recs[12]
	if done, _ := last["done"].(bool); !done {
		t.Fatalf("terminal record not done: %v", last)
	}
	stats, _ := last["stats"].(map[string]any)
	if stats == nil || stats["grid_points"].(float64) != 12 || stats["evaluated"].(float64) != 12 {
		t.Errorf("terminal stats: %v", stats)
	}
	sweeps := s.metrics.value("ssnserve_sweeps_total")
	aborted := s.metrics.value("ssnserve_sweeps_aborted_total")
	points := s.metrics.value("ssnserve_sweep_points_total")
	if sweeps != 1 || aborted != 0 || points != 12 {
		t.Errorf("sweep metrics: %d sweeps, %d aborted, %d points", sweeps, aborted, points)
	}
}

// TestSweepLegacyInlineParams sends the fixed parameters inline at the top
// level (the pre-envelope wire form) and expects identical behavior.
func TestSweepLegacyInlineParams(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"dev": {"k": 0.02, "v0": 0.5, "a": 1.6}, "vdd": 1.8, "n": 8, "rise_time": 1e-9,
	          "axes": [{"axis": "c", "from": 1e-13, "to": 2e-11, "points": 5, "log": true}]}`
	resp, out := postJSON(t, ts.URL+"/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	recs := decodeNDJSON(t, out)
	if len(recs) != 6 {
		t.Fatalf("got %d records, want 6", len(recs))
	}
}

// TestSweepNAxisReportsRoundedN checks the wire reports the integer driver
// count actually evaluated, not the raw grid coordinate.
func TestSweepNAxisReportsRoundedN(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"params": {"dev": {"k": 0.02, "v0": 0.5, "a": 1.6}, "vdd": 1.8, "rise_time": 1e-9},
	          "axes": [{"axis": "n", "from": 1, "to": 8, "points": 3}]}` // 1, 4.5, 8
	resp, out := postJSON(t, ts.URL+"/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	recs := decodeNDJSON(t, out)
	n := recs[1]["values"].(map[string]any)["n"].(float64)
	if n != 4 && n != 5 {
		t.Errorf("midpoint n = %v, want the rounded integer", n)
	}
}

func TestSweepValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSweepPoints: 100})
	cases := []struct {
		name, body, code string
	}{
		{"no axes", `{"params": {"n": 8, "rise_time": 1e-9}}`, "invalid_request"},
		{"zero points", `{"axes": [{"axis": "n", "from": 1, "to": 4}]}`, "invalid_request"},
		{"too large", `{"params": {"rise_time": 1e-9},
			"axes": [{"axis": "n", "from": 1, "to": 64, "points": 11},
			         {"axis": "l", "from": 1e-9, "to": 4e-9, "points": 11}]}`, "grid_too_large"},
		{"bad refine", `{"params": {"rise_time": 1e-9},
			"axes": [{"axis": "n", "from": 1, "to": 4, "points": 2}], "refine_depth": 99}`, "invalid_request"},
		{"size with dev", `{"params": {"dev": {"k": 0.02, "v0": 0.5, "a": 1.6}, "vdd": 1.8, "rise_time": 1e-9},
			"axes": [{"axis": "size", "from": 1, "to": 4, "points": 2}]}`, "invalid_request"},
		{"unknown axis", `{"params": {"rise_time": 1e-9},
			"axes": [{"axis": "zz", "from": 1, "to": 4, "points": 2}]}`, "invalid_request"},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/sweep", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d: %s", tc.name, resp.StatusCode, body)
			continue
		}
		var out struct {
			Error *apiError `json:"error"`
		}
		if err := json.Unmarshal(body, &out); err != nil || out.Error == nil {
			t.Errorf("%s: bad error envelope %s", tc.name, body)
			continue
		}
		if out.Error.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, out.Error.Code, tc.code)
		}
	}
}

// TestSweepOverflowGuard asks for a grid whose point count overflows int64
// multiplication; the cap must reject it instead of wrapping around.
func TestSweepOverflowGuard(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	axes := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		axes = append(axes, `{"axis": "l", "from": 1e-9, "to": 4e-9, "points": 100000}`)
	}
	// Duplicate axes would fail grid validation, but the size cap is
	// checked first — which is the point: no 10^40 allocation attempts.
	body := `{"params": {"rise_time": 1e-9}, "axes": [` + strings.Join(axes, ",") + `]}`
	resp, out := postJSON(t, ts.URL+"/v1/sweep", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if !strings.Contains(string(out), "grid_too_large") {
		t.Errorf("expected grid_too_large: %s", out)
	}
}

// TestSweepRefinement runs a sweep across the critical capacitance with
// refinement on and expects depth >= 1 records between grid points.
func TestSweepRefinement(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"params": {"dev": {"k": 0.004, "v0": 0.6, "a": 1.2}, "vdd": 1.8, "n": 16,
	                     "l": 1.25e-9, "rise_time": 1e-9},
	          "axes": [{"axis": "c", "from": 1e-14, "to": 4e-11, "points": 12, "log": true}],
	          "refine_depth": 3}`
	resp, out := postJSON(t, ts.URL+"/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	recs := decodeNDJSON(t, out)
	last := recs[len(recs)-1]
	stats, _ := last["stats"].(map[string]any)
	if stats == nil {
		t.Fatalf("no terminal stats: %v", last)
	}
	if refined, _ := stats["refined_points"].(float64); refined == 0 {
		t.Errorf("no refinement happened: %v", stats)
	}
	deep := 0
	for _, rec := range recs[:len(recs)-1] {
		if d, _ := rec["depth"].(float64); d >= 1 {
			deep++
		}
	}
	if deep == 0 {
		t.Error("no depth >= 1 records in the stream")
	}
}

// TestSweepCancelMidStream opens a large sweep, reads a few lines, then
// cancels the request; the server must abort the run (metrics show it) and
// unwind its goroutines.
func TestSweepCancelMidStream(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	body := `{"params": {"dev": {"k": 0.02, "v0": 0.5, "a": 1.6}, "vdd": 1.8, "n": 16, "rise_time": 1e-9},
	          "axes": [{"axis": "l", "from": 1e-10, "to": 8e-9, "points": 700},
	                   {"axis": "c", "from": 1e-13, "to": 4e-11, "points": 700}],
	          "chunk_size": 64}`
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// Read a handful of lines mid-stream, then hang up.
	r := bufio.NewReader(resp.Body)
	for i := 0; i < 5; i++ {
		if _, err := r.ReadString('\n'); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
	}
	cancel()
	_, _ = io.Copy(io.Discard, resp.Body) // drain until the server notices

	// The abort must land in the metrics and the workers must unwind.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if s.metrics.value("ssnserve_sweeps_aborted_total") == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never recorded as aborted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 { // httptest conn teardown lags
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d, baseline %d", runtime.NumGoroutine(), base)
}

// TestParamsEnvelopeAllEndpoints sends the canonical nested form to every
// evaluation endpoint: one wire format, four handlers.
func TestParamsEnvelopeAllEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	params := `"params": {"dev": {"k": 0.02, "v0": 0.5, "a": 1.6}, "vdd": 1.8, "n": 8,
	                      "l": 2.5e-9, "c": 2e-12, "rise_time": 1e-9}`

	resp, body := postJSON(t, ts.URL+"/v1/maxssn", `{`+params+`}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("maxssn: %d: %s", resp.StatusCode, body)
	}
	var res EvalResult
	if err := json.Unmarshal(body, &res); err != nil || res.VMax <= 0 {
		t.Fatalf("maxssn nested params: %s", body)
	}

	resp, body = postJSON(t, ts.URL+"/v1/waveform", `{`+params+`, "samples": 16}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("waveform: %d: %s", resp.StatusCode, body)
	}
	var wf waveformResponse
	if err := json.Unmarshal(body, &wf); err != nil || len(wf.Times) != 16 {
		t.Fatalf("waveform nested params: %s", body)
	}

	resp, body = postJSON(t, ts.URL+"/v1/montecarlo",
		`{`+params+`, "samples": 100, "variation": {"l": 0.1}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("montecarlo: %d: %s", resp.StatusCode, body)
	}

	resp, body = postJSON(t, ts.URL+"/v1/sweep",
		`{`+params+`, "axes": [{"axis": "n", "from": 2, "to": 8, "points": 3}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d: %s", resp.StatusCode, body)
	}
	if recs := decodeNDJSON(t, body); len(recs) != 4 {
		t.Fatalf("sweep nested params: %d records", len(recs))
	}
}

// TestParamsEnvelopePrecedence: when both the nested and inline forms are
// present, the nested one wins.
func TestParamsEnvelopePrecedence(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	nested := `"params": {"dev": {"k": 0.02, "v0": 0.5, "a": 1.6},
	           "vdd": 1.8, "n": 8, "l": 2.5e-9, "rise_time": 1e-9}`
	resp, out := postJSON(t, ts.URL+"/v1/maxssn", `{`+nested+`}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	var want EvalResult
	if err := json.Unmarshal(out, &want); err != nil {
		t.Fatal(err)
	}
	// The same nested point plus a conflicting inline n must not change
	// the answer: the canonical form wins.
	resp, out = postJSON(t, ts.URL+"/v1/maxssn", `{"n": 999999, `+nested+`}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	var got EvalResult
	if err := json.Unmarshal(out, &got); err != nil {
		t.Fatal(err)
	}
	if got.VMax != want.VMax || got.Case != want.Case {
		t.Errorf("inline n leaked through the envelope: got %+v, want %+v", got, want)
	}
}
