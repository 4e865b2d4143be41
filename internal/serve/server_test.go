package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ssnkit/internal/ssn"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

const itemJSON = `{"process":"c018","n":16,"package":"pga","pads":2,"rise_time":1e-9}`

func TestMaxSSNSingle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/maxssn", itemJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res EvalResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.VMax <= 0 || res.VMax >= 1.8 {
		t.Errorf("vmax %g implausible for c018", res.VMax)
	}
	if res.Case == "" || res.Beta <= 0 {
		t.Errorf("incomplete result: %+v", res)
	}
}

func TestMaxSSNSensitivityAndExplicitDevice(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{"dev":{"k":0.02,"v0":0.5,"a":1.6},"vdd":1.8,"n":8,"l":2.5e-9,"c":2e-12,"slope":1.8e9,"sensitivity":true}`
	resp, body := postJSON(t, ts.URL+"/v1/maxssn", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res EvalResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Sens == nil {
		t.Fatal("sensitivity requested but absent")
	}
	if res.Sens.RelN <= 0 || res.Sens.RelL <= 0 {
		t.Errorf("relative sensitivities must be positive: %+v", res.Sens)
	}
}

func TestMaxSSNBatch(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var items []string
	for i := 0; i < 100; i++ {
		items = append(items, fmt.Sprintf(
			`{"process":"c018","corner":%q,"n":%d,"package":"pga","pads":2,"rise_time":1e-9}`,
			[]string{"tt", "ss", "ff"}[i%3], 4+i%32))
	}
	resp, body := postJSON(t, ts.URL+"/v1/maxssn", `{"items":[`+strings.Join(items, ",")+`]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out maxSSNBatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 100 || len(out.Results) != 100 {
		t.Fatalf("count %d, results %d", out.Count, len(out.Results))
	}
	// Every item must equal the scalar LC model on the same resolved
	// params, bit for bit. Items 96-99 repeat items 0-3, so a repeated
	// point is held to the same answer as its first occurrence.
	ref := NewExtractCache(8, nil)
	distinct := map[string]bool{}
	for i, r := range out.Results {
		if r.Error != nil {
			t.Fatalf("item %d failed: %+v", i, r.Error)
		}
		if r.Index != i {
			t.Fatalf("item %d has index %d", i, r.Index)
		}
		if r.VMax <= 0 {
			t.Errorf("item %d vmax %g", i, r.VMax)
		}
		var it EvalItem
		if err := json.Unmarshal([]byte(items[i]), &it); err != nil {
			t.Fatal(err)
		}
		p, err := it.resolve(ref)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ssn.NewLCModel(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(r.VMax) != math.Float64bits(m.VMax()) ||
			r.CaseCode != int(m.Case()) ||
			math.Float64bits(r.TMax) != math.Float64bits(m.VMaxTime()) {
			t.Errorf("item %d: served (%v, %d, %v) != model (%v, %d, %v)",
				i, r.VMax, r.CaseCode, r.TMax, m.VMax(), int(m.Case()), m.VMaxTime())
		}
		distinct[items[i]] = true
	}
	if len(distinct) == len(items) {
		t.Fatal("the batch must repeat items")
	}
	// 100 items over 3 corners: the extraction cache must have absorbed
	// the repeats.
	hits, misses := s.metrics.value("ssnserve_cache_hits_total"), s.metrics.value("ssnserve_cache_misses_total")
	if misses != 3 {
		t.Errorf("expected 3 cache misses (one per corner), got %d", misses)
	}
	if hits != 97 {
		t.Errorf("expected 97 cache hits, got %d", hits)
	}
}

func TestMaxSSNMalformedAndInvalid(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
		wantCode   int
		wantField  string
	}{
		{"malformed JSON", `{"n": `, http.StatusBadRequest, ""},
		{"trailing data", itemJSON + ` {"x":1}`, http.StatusBadRequest, ""},
		{"bad N", `{"process":"c018","n":0,"rise_time":1e-9}`, http.StatusBadRequest, "N"},
		{"bad process", `{"process":"c999","n":4,"rise_time":1e-9}`, http.StatusBadRequest, ""},
		{"no edge", `{"process":"c018","n":4}`, http.StatusBadRequest, ""},
		{"bad corner", `{"process":"c018","corner":"xx","n":4,"rise_time":1e-9}`, http.StatusBadRequest, ""},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/maxssn", tc.body)
		if resp.StatusCode != tc.wantCode {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.wantCode, body)
			continue
		}
		var env struct {
			Error *apiError `json:"error"`
		}
		if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
			t.Errorf("%s: error body missing: %s", tc.name, body)
			continue
		}
		if tc.wantField != "" && env.Error.Field != tc.wantField {
			t.Errorf("%s: field %q, want %q", tc.name, env.Error.Field, tc.wantField)
		}
	}
}

func TestMaxSSNOversizedBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 4})
	items := strings.Repeat(itemJSON+",", 5)
	resp, body := postJSON(t, ts.URL+"/v1/maxssn", `{"items":[`+strings.TrimSuffix(items, ",")+`]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "batch_too_large") {
		t.Errorf("missing batch_too_large code: %s", body)
	}
}

func TestMaxSSNOversizedBody(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 256})
	resp, body := postJSON(t, ts.URL+"/v1/maxssn",
		`{"items":[`+strings.TrimSuffix(strings.Repeat(itemJSON+",", 20), ",")+`]}`)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
}

func TestBatchPartialFailure(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{"items":[` + itemJSON + `,{"process":"c018","n":0,"rise_time":1e-9},` + itemJSON + `]}`
	resp, body := postJSON(t, ts.URL+"/v1/maxssn", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out maxSSNBatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Results[0].Error != nil || out.Results[2].Error != nil {
		t.Error("good items must succeed")
	}
	if out.Results[1].Error == nil || out.Results[1].Error.Field != "N" {
		t.Errorf("bad item must carry a structured error: %+v", out.Results[1].Error)
	}
}

func TestWaveformEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/waveform",
		`{"process":"c018","n":16,"package":"pga","pads":2,"rise_time":1e-9,"samples":64}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var wf waveformResponse
	if err := json.Unmarshal(body, &wf); err != nil {
		t.Fatal(err)
	}
	if len(wf.Times) != 64 || len(wf.V) != 64 || len(wf.I) != 64 {
		t.Fatalf("lengths %d/%d/%d, want 64", len(wf.Times), len(wf.V), len(wf.I))
	}
	maxV := 0.0
	for _, v := range wf.V {
		if v > maxV {
			maxV = v
		}
	}
	if maxV <= 0 {
		t.Error("waveform never rises above zero")
	}
	// L-only model must also work and differ from LC.
	resp, body = postJSON(t, ts.URL+"/v1/waveform",
		`{"process":"c018","n":16,"package":"pga","pads":2,"rise_time":1e-9,"samples":64,"model":"l"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("L-only status %d: %s", resp.StatusCode, body)
	}
	// Unknown model is a structured 400.
	resp, body = postJSON(t, ts.URL+"/v1/waveform", `{"process":"c018","n":4,"rise_time":1e-9,"model":"rc"}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "model") {
		t.Errorf("unknown model: status %d body %s", resp.StatusCode, body)
	}
}

func TestMonteCarloJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/montecarlo",
		`{"process":"c018","n":16,"package":"pga","pads":2,"rise_time":1e-9,
		  "samples":2000,"seed":7,"variation":{"k":0.05,"l":0.1,"slope":0.05}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var jr jobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.Job.ID == "" || jr.StatusURL != "/v1/jobs/"+jr.Job.ID {
		t.Fatalf("bad job response: %+v", jr)
	}

	deadline := time.Now().Add(10 * time.Second)
	var job Job
	for {
		r, err := http.Get(ts.URL + jr.StatusURL)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(r.Body).Decode(&job)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if job.State == JobDone || job.State == JobFailed || job.State == JobCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", job.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if job.State != JobDone {
		t.Fatalf("job ended %s: %+v", job.State, job.Error)
	}
	raw, err := json.Marshal(job.Result)
	if err != nil {
		t.Fatal(err)
	}
	var mc monteCarloResult
	if err := json.Unmarshal(raw, &mc); err != nil {
		t.Fatal(err)
	}
	if mc.Samples != 2000 || mc.Mean <= 0 || mc.P99 < mc.P95 {
		t.Errorf("implausible MC result: %+v", mc)
	}
	if job.Started == nil || job.Finished == nil {
		t.Error("timestamps missing on finished job")
	}

	// A bad Monte Carlo request fails synchronously with 400, not via the
	// job API.
	resp, body = postJSON(t, ts.URL+"/v1/montecarlo",
		`{"process":"c018","n":16,"rise_time":1e-9,"samples":5}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("undersampled MC: status %d body %s", resp.StatusCode, body)
	}

	// Unknown job IDs are 404.
	r, err := http.Get(ts.URL + "/v1/jobs/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d", r.StatusCode)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/maxssn", itemJSON)

	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthResponse
	err = json.NewDecoder(r.Body).Decode(&h)
	r.Body.Close()
	if err != nil || h.Status != "ok" {
		t.Fatalf("healthz: %+v, %v", h, err)
	}

	r, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(r.Body)
	r.Body.Close()
	text := buf.String()
	for _, want := range []string{
		`ssnserve_requests_total{path="/v1/maxssn",code="200"} 1`,
		"ssnserve_cache_misses_total 1",
		"ssnserve_request_duration_seconds_bucket",
		`ssnserve_request_duration_seconds_count{path="/v1/maxssn"} 1`,
		"ssnserve_jobs_in_flight 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestBatch1000UnderRace is the acceptance workload: a 1000-item batch
// evaluated concurrently with other traffic, correct per-item results,
// cache and latency series visible on /metrics.
func TestBatch1000UnderRace(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBatch: 2000})
	corners := []string{"tt", "ss", "ff"}
	var items []string
	for i := 0; i < 1000; i++ {
		items = append(items, fmt.Sprintf(
			`{"process":"c018","corner":%q,"n":%d,"package":"pga","pads":2,"rise_time":1e-9}`,
			corners[i%3], 1+i%64))
	}
	req := `{"items":[` + strings.Join(items, ",") + `]}`

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/maxssn", "application/json", strings.NewReader(req))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var out maxSSNBatchResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- err
				return
			}
			if out.Count != 1000 {
				errs <- fmt.Errorf("count %d", out.Count)
				return
			}
			for i, r := range out.Results {
				if r.Error != nil {
					errs <- fmt.Errorf("item %d: %+v", i, r.Error)
					return
				}
				if r.VMax <= 0 {
					errs <- fmt.Errorf("item %d vmax %g", i, r.VMax)
					return
				}
			}
		}()
	}
	// Interleave single evaluations and health checks while the batches run.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, err := http.Post(ts.URL+"/v1/maxssn", "application/json", strings.NewReader(itemJSON))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if r, err := http.Get(ts.URL + "/healthz"); err == nil {
					r.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	hits, misses := s.metrics.value("ssnserve_cache_hits_total"), s.metrics.value("ssnserve_cache_misses_total")
	if misses != 3 {
		t.Errorf("cache misses %d, want 3 (one per corner)", misses)
	}
	if hits < 4000 {
		t.Errorf("cache hits %d, want >= 4000", hits)
	}
	var buf bytes.Buffer
	if _, err := s.metrics.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `ssnserve_request_duration_seconds_count{path="/v1/maxssn"}`) {
		t.Error("latency histogram missing from /metrics")
	}
}

// TestGracefulShutdownDrainsJobs submits a slow job and verifies Shutdown
// waits for it rather than dropping it.
func TestGracefulShutdownDrainsJobs(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/montecarlo", "application/json", strings.NewReader(
		`{"process":"c018","n":16,"package":"pga","pads":2,"rise_time":1e-9,
		  "samples":200000,"seed":3,"variation":{"k":0.05,"l":0.1}}`))
	if err != nil {
		t.Fatal(err)
	}
	var jr jobResponse
	err = json.NewDecoder(resp.Body).Decode(&jr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown errored: %v", err)
	}
	job, ok := s.jobs.lookup(jr.Job.ID)
	if !ok {
		t.Fatal("job evicted during shutdown")
	}
	if job.State != JobDone {
		t.Errorf("drained job ended %s, want done", job.State)
	}
}

// TestShutdownDeadlineCancelsJobs verifies the forced path: when the
// drain deadline passes, running jobs are cancelled, not leaked.
func TestShutdownDeadlineCancelsJobs(t *testing.T) {
	s := New(Config{Workers: 1})
	// A job that only ends on cancellation.
	blocked := make(chan struct{})
	s.jobs.submit(func(ctx context.Context) (any, error) {
		close(blocked)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	<-blocked
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := s.Shutdown(ctx)
	if err == nil {
		t.Fatal("deadline shutdown must report the context error")
	}
	// After Shutdown returns, the job goroutine has unwound and the job
	// is terminal.
	if n := s.jobs.inFlight(); n != 0 {
		t.Errorf("%d jobs still in flight after forced shutdown", n)
	}
}

// TestInstrumentFlushes: a line that a streaming handler behind instrument
// flushes reaches the client while the handler is still running.
func TestInstrumentFlushes(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	release := make(chan struct{})
	ts := httptest.NewServer(s.instrument("/test", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("line\n"))
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		<-release
	}))
	defer ts.Close()
	defer close(release)

	got := make(chan string, 1)
	go func() {
		resp, err := http.Get(ts.URL)
		if err != nil {
			got <- err.Error()
			return
		}
		defer resp.Body.Close()
		line, _ := bufio.NewReader(resp.Body).ReadString('\n')
		got <- line
	}()
	select {
	case line := <-got:
		if line != "line\n" {
			t.Errorf("first line %q, want %q", line, "line\n")
		}
	case <-time.After(5 * time.Second):
		t.Error("the flushed line did not reach the client while the handler ran")
	}
}
