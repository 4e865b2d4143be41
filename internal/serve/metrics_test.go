package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"ssnkit/internal/colwire"
	"ssnkit/internal/dist"
)

var updateMetricsGolden = flag.Bool("update-metrics", false, "rewrite testdata/metrics.golden from a fresh run")

// latencyValue matches the request-histogram samples whose values depend
// on wall-clock time: every finite bucket and the sum. The +Inf bucket and
// the count are exact and stay in the comparison.
var latencyValue = regexp.MustCompile(`(?m)^(ssnserve_request_duration_seconds_(?:bucket\{.*,le="[^+"][^"]*"|sum\{.*)\}) \S+$`)

// TestMetricsGolden pins the whole /metrics text: family order, HELP and
// TYPE lines, label order and quoting, always-printed unlabeled series and
// a labeled family with no series (admission sheds). Every other family
// is driven through the real request paths. Only the wall-clock-dependent
// latency values are masked; TestMetricsRendering pins their formatting.
func TestMetricsGolden(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	post := func(path, body string) {
		t.Helper()
		if resp, out := postJSON(t, ts.URL+path, body); resp.StatusCode/100 != 2 {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, out)
		}
	}

	// /v1/maxssn: one extraction miss then a hit, a 400, a deprecated
	// inline request, and SSNC payloads in both directions.
	post("/v1/maxssn", itemJSON)
	post("/v1/maxssn", `{"items":[`+itemJSON+`]}`)
	if resp, _ := postJSON(t, ts.URL+"/v1/maxssn", `{"process":"c018","n":0,"rise_time":1e-9}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid item: status %d", resp.StatusCode)
	}
	post("/v1/maxssn", legacyInlineJSON)
	if resp, out := postColumnar(t, ts.URL+"/v1/maxssn", columnarBatchBlock(t, []float64{0, 1e-12}), ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("columnar batch: status %d: %s", resp.StatusCode, out)
	}

	// /v1/sweep: NDJSON, refinement and an SSNC stream.
	post("/v1/sweep", sweepBody)
	post("/v1/sweep", `{"params": {"dev": {"k": 0.004, "v0": 0.6, "a": 1.2}, "vdd": 1.8, "n": 16,
	                     "l": 1.25e-9, "rise_time": 1e-9},
	          "axes": [{"axis": "c", "from": 1e-14, "to": 4e-11, "points": 12, "log": true}],
	          "refine_depth": 3}`)
	if resp, out := postJSONAccept(t, ts.URL+"/v1/sweep", sweepBody, colwire.ContentType); resp.StatusCode != http.StatusOK {
		t.Fatalf("columnar sweep: status %d: %s", resp.StatusCode, out)
	}

	// /v1/impedance: every mode, a profile-cache miss then a hit, and an
	// SSNC response.
	post("/v1/impedance", `{"rows":2,"cols":2,"pads":2,"freq":1e8}`)
	post("/v1/impedance", `{"rows":3,"cols":3,"pads":4,"points":24}`)
	post("/v1/impedance", `{"rows":3,"cols":3,"pads":4,"points":24}`)
	post("/v1/impedance", `{"rows":3,"cols":3,"pads":4,"mode":"optimize","points":20,"decap_c":2e-9,"decap_esr":0.01,"max_decaps":1}`)
	if resp, out := postJSONAccept(t, ts.URL+"/v1/impedance", `{"rows":2,"cols":2,"pads":2,"points":8}`, colwire.ContentType); resp.StatusCode != http.StatusOK {
		t.Fatalf("columnar impedance: status %d: %s", resp.StatusCode, out)
	}

	// /v1/solve in both modes.
	post("/v1/solve", `{"params": `+solveParamsJSON+`, "vmax_budget": 0.4, "variable": "n"}`)
	post("/v1/solve", `{"params": `+solveParamsJSON+`, "vmax_budget": 0.05, "mode": "yield", "samples": 200, "seed": 1}`)

	// /v1/shard and an in-process /v1/distsweep.
	shard, err := json.Marshal(dist.ShardRequest{Spec: distTestSpec(), Shard: 1})
	if err != nil {
		t.Fatal(err)
	}
	post("/v1/shard", string(shard))
	post("/v1/distsweep", `{"params": {"n": 16, "package": "pga", "rise_time": 1e-9},
		"axes": [{"axis": "n", "from": 1, "to": 8, "points": 4}], "shard_points": 2}`)

	// One Monte Carlo job, run to completion before a single poll.
	resp, body := postJSON(t, ts.URL+"/v1/montecarlo",
		`{"process":"c018","n":16,"package":"pga","pads":2,"rise_time":1e-9,"samples":200,"seed":7}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("montecarlo: status %d: %s", resp.StatusCode, body)
	}
	var jr jobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if err := s.jobs.drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if resp, out := getURL(t, ts.URL+jr.StatusURL); resp.StatusCode != http.StatusOK || !bytes.Contains(out, []byte(`"state":"done"`)) {
		t.Fatalf("job poll: status %d: %s", resp.StatusCode, out)
	}
	getURL(t, ts.URL+"/healthz")

	resp, body = getURL(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	got := latencyValue.ReplaceAll(body, []byte("$1 <t>"))
	golden := filepath.Join("testdata", "metrics.golden")
	if *updateMetricsGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("/metrics differs from %s (rerun with -update-metrics to inspect):\n%s", golden, got)
	}
}

// value reads one counter series by family name and label values.
func (m *Metrics) value(name string, values ...string) uint64 {
	for _, f := range m.families {
		if c, ok := f.(*counterVec); ok && c.name == name {
			c.mu.Lock()
			defer c.mu.Unlock()
			return c.series[keyOf(values)]
		}
	}
	panic("no counter family " + name)
}

// observeRequest records a finished request the way instrument does.
func observeRequest(m *Metrics, path string, code int, d time.Duration) {
	m.requests.inc(path, statusLabel(code))
	m.latency.observe(d.Seconds(), path)
}

func TestMetricsRendering(t *testing.T) {
	m := NewMetrics()
	observeRequest(m, "/v1/maxssn", 200, 300*time.Microsecond)
	observeRequest(m, "/v1/maxssn", 200, 2*time.Millisecond)
	observeRequest(m, "/v1/maxssn", 400, 50*time.Microsecond)
	observeRequest(m, "/healthz", 200, 10*time.Second) // beyond the last bucket
	m.cacheHits.inc()
	m.cacheHits.inc()
	m.cacheMisses.inc()
	m.jobs.inc("queued")
	m.jobs.inc("running")
	m.jobs.inc("done")

	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`ssnserve_requests_total{path="/healthz",code="200"} 1`,
		`ssnserve_requests_total{path="/v1/maxssn",code="200"} 2`,
		`ssnserve_requests_total{path="/v1/maxssn",code="400"} 1`,
		`ssnserve_request_duration_seconds_bucket{path="/v1/maxssn",le="0.0005"} 2`,
		`ssnserve_request_duration_seconds_bucket{path="/v1/maxssn",le="+Inf"} 3`,
		`ssnserve_request_duration_seconds_count{path="/v1/maxssn"} 3`,
		`ssnserve_request_duration_seconds_bucket{path="/healthz",le="2.5"} 0`,
		`ssnserve_request_duration_seconds_bucket{path="/healthz",le="+Inf"} 1`,
		"ssnserve_cache_hits_total 2",
		"ssnserve_cache_misses_total 1",
		`ssnserve_jobs_total{state="done"} 1`,
		"ssnserve_jobs_in_flight 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	// The whole /v1/maxssn histogram, exactly: cumulative buckets in
	// bound order, shortest-form le labels, a %g sum and the count.
	const block = `ssnserve_request_duration_seconds_bucket{path="/v1/maxssn",le="0.0001"} 1
ssnserve_request_duration_seconds_bucket{path="/v1/maxssn",le="0.00025"} 1
ssnserve_request_duration_seconds_bucket{path="/v1/maxssn",le="0.0005"} 2
ssnserve_request_duration_seconds_bucket{path="/v1/maxssn",le="0.001"} 2
ssnserve_request_duration_seconds_bucket{path="/v1/maxssn",le="0.0025"} 3
ssnserve_request_duration_seconds_bucket{path="/v1/maxssn",le="0.005"} 3
ssnserve_request_duration_seconds_bucket{path="/v1/maxssn",le="0.01"} 3
ssnserve_request_duration_seconds_bucket{path="/v1/maxssn",le="0.025"} 3
ssnserve_request_duration_seconds_bucket{path="/v1/maxssn",le="0.05"} 3
ssnserve_request_duration_seconds_bucket{path="/v1/maxssn",le="0.1"} 3
ssnserve_request_duration_seconds_bucket{path="/v1/maxssn",le="0.25"} 3
ssnserve_request_duration_seconds_bucket{path="/v1/maxssn",le="0.5"} 3
ssnserve_request_duration_seconds_bucket{path="/v1/maxssn",le="1"} 3
ssnserve_request_duration_seconds_bucket{path="/v1/maxssn",le="2.5"} 3
ssnserve_request_duration_seconds_bucket{path="/v1/maxssn",le="+Inf"} 3
ssnserve_request_duration_seconds_sum{path="/v1/maxssn"} 0.00235
ssnserve_request_duration_seconds_count{path="/v1/maxssn"} 3
`
	if !strings.Contains(text, block) {
		t.Errorf("/v1/maxssn histogram block not rendered exactly; want:\n%s\ngot:\n%s", block, text)
	}
}

func TestMetricsDeterministicOutput(t *testing.T) {
	m := NewMetrics()
	observeRequest(m, "/b", 200, time.Millisecond)
	observeRequest(m, "/a", 200, time.Millisecond)
	m.jobs.inc("running")
	m.jobs.inc("queued")
	var one, two bytes.Buffer
	if _, err := m.WriteTo(&one); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteTo(&two); err != nil {
		t.Fatal(err)
	}
	if one.String() != two.String() {
		t.Error("two renders differ")
	}
	if strings.Index(one.String(), `path="/a"`) > strings.Index(one.String(), `path="/b"`) {
		t.Error("series not sorted by label")
	}
}

// TestMetricsConcurrentUpdates drives every family kind from several
// goroutines while scrapes render, then checks no update was lost.
func TestMetricsConcurrentUpdates(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				observeRequest(m, "/v1/maxssn", 200, time.Duration(i)*time.Microsecond)
				m.cacheHits.inc()
				m.jobs.inc("queued")
				m.jobsInFlight.Add(1)
				m.jobsInFlight.Add(-1)
				if i%50 == 0 {
					_, _ = m.WriteTo(io.Discard)
				}
			}
		}()
	}
	wg.Wait()
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`ssnserve_requests_total{path="/v1/maxssn",code="200"} 1600`,
		`ssnserve_request_duration_seconds_count{path="/v1/maxssn"} 1600`,
		"ssnserve_cache_hits_total 1600",
		`ssnserve_jobs_total{state="queued"} 1600`,
		"ssnserve_jobs_in_flight 0",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("lost updates, missing %q:\n%s", want, buf.String())
		}
	}
}

// TestMetricsObserveDoesNotAllocate pins the per-request cost of
// instrument: once a route's series exist, counting and timing a request
// allocates nothing.
func TestMetricsObserveDoesNotAllocate(t *testing.T) {
	m := NewMetrics()
	observeRequest(m, "/v1/maxssn", 200, time.Millisecond)
	if n := testing.AllocsPerRun(1000, func() {
		observeRequest(m, "/v1/maxssn", 200, time.Millisecond)
	}); n != 0 {
		t.Errorf("%v allocations per observed request, want 0", n)
	}
}
