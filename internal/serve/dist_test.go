package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"ssnkit/internal/dist"
)

// distTestSpec mirrors the fixture internal/dist tests use: awkward sizes,
// small enough to be instant.
func distTestSpec() dist.SweepSpec {
	return dist.SweepSpec{
		Base: dist.BaseParams{
			N: 16, K: 4e-3, V0: 0.6, A: 1.2,
			Vdd: 1.8, Slope: 1.8e9, L: 1.25e-9, C: 2e-12,
		},
		Axes: []dist.Axis{
			{Name: "n", From: 1, To: 64, Points: 8},
			{Name: "l", From: 5e-10, To: 8e-9, Points: 9},
		},
		ShardPoints: 16,
	}
}

// TestShardEndpoint pins the worker surface: POST /v1/shard returns the
// exact canonical payload dist.EvalShard computes for the same spec.
func TestShardEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := distTestSpec()
	want, err := dist.EvalShard(context.Background(), spec, 3, dist.EvalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(dist.ShardRequest{Spec: spec, Shard: 3})
	if err != nil {
		t.Fatal(err)
	}
	resp, got := postJSON(t, ts.URL+"/v1/shard", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("endpoint payload differs from EvalShard (%d vs %d bytes)", len(got), len(want))
	}
}

func TestShardEndpointRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSweepPoints: 100})
	spec := distTestSpec()
	cases := []struct {
		name     string
		req      dist.ShardRequest
		wantCode string
	}{
		{"shard out of range", dist.ShardRequest{Spec: spec, Shard: 99}, "invalid_request"},
		{"negative shard", dist.ShardRequest{Spec: spec, Shard: -1}, "invalid_request"},
		{"bad axis domain", func() dist.ShardRequest {
			s := distTestSpec()
			s.Axes[1].From = -1e-9
			return dist.ShardRequest{Spec: s, Shard: 0}
		}(), "invalid_params"},
		{"oversized shard", func() dist.ShardRequest {
			s := distTestSpec()
			s.Axes[0].Points = 20 // 180-point grid
			s.ShardPoints = 150   // > MaxSweepPoints, not clamped by the total
			return dist.ShardRequest{Spec: s, Shard: 0}
		}(), "grid_too_large"},
		{"point count overflows int", func() dist.ShardRequest {
			s := distTestSpec()
			s.Axes = []dist.Axis{
				{Name: "n", From: 1, To: 64, Points: 1000003},
				{Name: "l", From: 5e-10, To: 8e-9, Points: 1000033},
				{Name: "c", From: 1e-12, To: 2e-12, Points: 1000037},
				{Name: "slope", From: 1e9, To: 2e9, Points: 19},
			}
			return dist.ShardRequest{Spec: s, Shard: 0}
		}(), "invalid_request"},
	}
	for _, tc := range cases {
		body, _ := json.Marshal(tc.req)
		resp, got := postJSON(t, ts.URL+"/v1/shard", string(body))
		if resp.StatusCode == http.StatusOK {
			t.Errorf("%s: got 200", tc.name)
			continue
		}
		if e := errEnvelope(t, got); e.Code != tc.wantCode {
			t.Errorf("%s: code %q, want %q", tc.name, e.Code, tc.wantCode)
		}
	}
}

// TestShardAxisLimitBounded posts a 16-point shard of an 8,388,608-point
// axis: the engine would materialize the whole axis, about 9 bytes per
// axis point (75 MB here), so the axis is refused with grid_too_large
// before any engine is built, allocating a few KB.
func TestShardAxisLimitBounded(t *testing.T) {
	h := New(Config{}).Handler()
	spec := distTestSpec()
	spec.Axes = []dist.Axis{{Name: "n", From: 1, To: 64, Points: 1 << 23}}
	body, err := json.Marshal(dist.ShardRequest{Spec: spec, Shard: 0})
	if err != nil {
		t.Fatal(err)
	}
	postBody(h, "/v1/shard", body) // warm the pools
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rec := postBody(h, "/v1/shard", body)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if e := errEnvelope(t, rec.Body.Bytes()); e.Code != CodeGridTooLarge || e.Field != "spec.axes" {
		t.Errorf("error %+v, want grid_too_large on spec.axes", e)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("refusing the shard allocated %d bytes, want <= %d", got, 1<<20)
	}
}

// TestDistSweepEndpoint pins the server-side coordinator: the streamed
// NDJSON (minus the terminal summary) is byte-identical to the local
// baseline, and the run shows up on /v1/distsweep/status.
func TestDistSweepEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := `{
		"params": {"n": 16, "package": "pga", "rise_time": 1e-9},
		"axes": [{"axis": "n", "from": 1, "to": 64, "points": 8},
		         {"axis": "l", "from": 5e-10, "to": 8e-9, "points": 9}],
		"shard_points": 16
	}`
	resp, got := postJSON(t, ts.URL+"/v1/distsweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if resp.Header.Get("X-Dist-Run") == "" {
		t.Error("no X-Dist-Run header")
	}

	lines := bytes.Split(bytes.TrimSuffix(got, []byte("\n")), []byte("\n"))
	if len(lines) != 72+1 {
		t.Fatalf("%d lines, want 72 points + summary", len(lines))
	}
	var summary distSummary
	if err := json.Unmarshal(lines[len(lines)-1], &summary); err != nil {
		t.Fatalf("terminal record: %v", err)
	}
	if !summary.Done || summary.Points != 72 {
		t.Fatalf("summary %+v", summary)
	}

	// The streamed points equal the canonical local evaluation of the same
	// spec (the server resolves the same base params the request named).
	spec, aerr := s.buildDistSpec(distSweepRequest{
		paramsEnvelope: paramsEnvelope{Params: &EvalItem{N: 16, Package: "pga", RiseTime: 1e-9}},
		Axes: []SweepAxis{
			{Axis: "n", From: 1, To: 64, Points: 8},
			{Axis: "l", From: 5e-10, To: 8e-9, Points: 9},
		},
		ShardPoints: 16,
	})
	if aerr != nil {
		t.Fatal(aerr)
	}
	want, err := dist.EvalRange(context.Background(), spec, 0, spec.Total(), dist.EvalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	stream := bytes.Join(lines[:len(lines)-1], []byte("\n"))
	stream = append(stream, '\n')
	if !bytes.Equal(want, stream) {
		t.Fatal("distsweep stream differs from the canonical local evaluation")
	}

	// Status endpoint reports the finished run.
	resp2, sbody := getURL(t, ts.URL+"/v1/distsweep/status")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status endpoint: %d", resp2.StatusCode)
	}
	var status distStatusResponse
	if err := json.Unmarshal(sbody, &status); err != nil {
		t.Fatal(err)
	}
	if status.Count != 1 || !status.Runs[0].Progress.Done ||
		status.Runs[0].Progress.PointsDone != 72 {
		t.Fatalf("status %+v", status)
	}
	if _, sbody := getURL(t, ts.URL+"/v1/distsweep/status?id="+status.Runs[0].ID); !bytes.Contains(sbody, []byte(status.Runs[0].ID)) {
		t.Error("status by id did not return the run")
	}
	if resp3, _ := getURL(t, ts.URL+"/v1/distsweep/status?id=nope"); resp3.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", resp3.StatusCode)
	}
}

// TestDistSweepValidatesBeforeStreaming pins the 400-before-first-byte
// contract on the coordinator endpoint too.
func TestDistSweepValidatesBeforeStreaming(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{
		"params": {"n": 16, "package": "pga", "rise_time": 1e-9},
		"axes": [{"axis": "l", "from": -1e-9, "to": 8e-9, "points": 9}]
	}`
	resp, got := postJSON(t, ts.URL+"/v1/distsweep", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, got)
	}
	if e := errEnvelope(t, got); e.Code != "invalid_params" || e.Field != "axes" {
		t.Errorf("error %+v", e)
	}
}

// TestSweepDomainRejectedBeforeStream is the /v1/sweep regression test for
// the streaming-before-validation bug: an axis whose range provably
// contains invalid points (tr from -1ns, l from 0) must produce a
// structured 400 — never a 200 NDJSON stream of per-point errors.
func TestSweepDomainRejectedBeforeStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
	}{
		{
			"tr axis crossing zero",
			`{"params": {"n": 16, "package": "pga"}, "axes": [{"axis": "tr", "from": -1e-9, "to": 1e-9, "points": 8}]}`,
		},
		{
			"l axis starting at zero",
			`{"params": {"n": 16, "package": "pga", "rise_time": 1e-9}, "axes": [{"axis": "l", "from": 0, "to": 4e-9, "points": 8}]}`,
		},
		{
			"slope axis negative",
			`{"params": {"n": 16, "package": "pga"}, "axes": [{"axis": "slope", "from": -1e9, "to": 1e9, "points": 4}]}`,
		},
		{
			"c axis negative",
			`{"params": {"n": 16, "package": "pga", "rise_time": 1e-9}, "axes": [{"axis": "c", "from": -1e-12, "to": 1e-12, "points": 4}]}`,
		},
	}
	for _, tc := range cases {
		resp, got := postJSON(t, ts.URL+"/v1/sweep", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %.120s", tc.name, resp.StatusCode, got)
			continue
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
			t.Errorf("%s: Content-Type %q, want JSON error envelope", tc.name, ct)
		}
		// The body must be exactly one structured error envelope — no NDJSON
		// stream started before the rejection.
		if bytes.Contains(bytes.TrimSpace(got), []byte("\n")) {
			t.Errorf("%s: multi-line body; stream started before validation: %.200s", tc.name, got)
		}
		e := errEnvelope(t, got)
		if e.Code != "invalid_params" || e.Field != "axes" || e.Constraint == "" {
			t.Errorf("%s: error %+v", tc.name, e)
		}
	}
}

// TestSweepNDJSONMatchesEvalRange pins the invariant the distributed
// layer rests on: /v1/sweep's point lines (terminal summary stripped) are
// byte-identical to dist.EvalRange over the same spec. The grid includes
// the n axis, so the rounded-N path is covered.
func TestSweepNDJSONMatchesEvalRange(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, got := postJSON(t, ts.URL+"/v1/sweep", `{
		"params": {"n": 16, "package": "pga", "rise_time": 1e-9},
		"axes": [{"axis": "n", "from": 1, "to": 40, "points": 7},
		         {"axis": "l", "from": 5e-10, "to": 8e-9, "points": 5}]
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	end := bytes.LastIndexByte(bytes.TrimSuffix(got, []byte("\n")), '\n') + 1
	if !bytes.Contains(got[end:], []byte(`"done":true`)) {
		t.Fatalf("last line is not the terminal summary: %s", got[end:])
	}

	spec, aerr := s.buildDistSpec(distSweepRequest{
		paramsEnvelope: paramsEnvelope{Params: &EvalItem{N: 16, Package: "pga", RiseTime: 1e-9}},
		Axes: []SweepAxis{
			{Axis: "n", From: 1, To: 40, Points: 7},
			{Axis: "l", From: 5e-10, To: 8e-9, Points: 5},
		},
	})
	if aerr != nil {
		t.Fatal(aerr)
	}
	want, err := dist.EvalRange(context.Background(), spec, 0, spec.Total(), dist.EvalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got[:end]) {
		t.Fatalf("/v1/sweep points differ from dist.EvalRange:\nsweep:\n%s\nEvalRange:\n%s", got[:end], want)
	}
}
