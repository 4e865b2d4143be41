package serve

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestAdmissionShedsWhenSaturated pins the overload contract
// deterministically: with every concurrency slot held and the wait queue
// full, the next request is shed with 429, a Retry-After header, and a
// structured error body — and the shed shows up in the metrics.
func TestAdmissionShedsWhenSaturated(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxConcurrent: 1, MaxQueue: 1,
		RetryAfter: 2 * time.Second})

	// Saturate: one admitted holder and one queued waiter. The slot is
	// released exactly once, further down, to hand it to the waiter.
	release, aerr := s.adm.admit(context.Background(), "")
	if aerr != nil {
		t.Fatalf("first admit: %v", aerr)
	}
	queued := make(chan *apiError, 1)
	qctx, qcancel := context.WithCancel(context.Background())
	defer qcancel()
	go func() {
		rel, aerr := s.adm.admit(qctx, "")
		if rel != nil {
			rel()
		}
		queued <- aerr
	}()
	// Wait until the waiter is actually queued.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.adm.mu.Lock()
		q := s.adm.queued
		s.adm.mu.Unlock()
		if q == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := postJSON(t, ts.URL+"/v1/maxssn", itemJSON)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}
	e := errEnvelope(t, body)
	if e.Code != "overloaded" {
		t.Errorf("code = %q, want overloaded", e.Code)
	}
	if n := s.metrics.value("ssnserve_admission_shed_total", "queue_full"); n != 1 {
		t.Errorf("queue_full sheds = %d, want 1", n)
	}

	// The metrics endpoint renders the admission series.
	resp2, metricsBody := getURL(t, ts.URL+"/metrics")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp2.StatusCode)
	}
	for _, want := range []string{
		`ssnserve_admission_shed_total{reason="queue_full"} 1`,
		"ssnserve_admission_queue_depth",
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	// Unblock the queued waiter and confirm it was admitted, not shed.
	release()
	select {
	case aerr := <-queued:
		if aerr != nil {
			t.Errorf("queued waiter: %v", aerr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued waiter never finished")
	}
}

// TestQuotaShedsPerKey pins per-client quotas: a key that burns its burst
// gets 429 quota_exhausted with a Retry-After hint, while a different key
// still gets through.
func TestQuotaShedsPerKey(t *testing.T) {
	s, ts := newTestServer(t, Config{QuotaRPS: 0.5, QuotaBurst: 2})
	_ = s

	doWithKey := func(key string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/maxssn", strings.NewReader(itemJSON))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-API-Key", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp, body
	}

	for i := 0; i < 2; i++ {
		if resp, body := doWithKey("alice"); resp.StatusCode != http.StatusOK {
			t.Fatalf("burst request %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	resp, body := doWithKey("alice")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("quota shed carries no Retry-After")
	}
	if e := errEnvelope(t, body); e.Code != "quota_exhausted" {
		t.Errorf("code = %q, want quota_exhausted", e.Code)
	}
	if resp, body := doWithKey("bob"); resp.StatusCode != http.StatusOK {
		t.Errorf("other key caught in alice's quota: %d: %s", resp.StatusCode, body)
	}
	if n := s.metrics.value("ssnserve_admission_shed_total", "quota"); n == 0 {
		t.Errorf("quota sheds = %d, want > 0", n)
	}
}

// TestQuotaTableRefill pins the bucket math with an injected clock.
func TestQuotaTableRefill(t *testing.T) {
	now := time.Unix(1000, 0)
	q := newQuotaTable(2, 2) // 2 rps, burst 2
	q.now = func() time.Time { return now }

	if ok, _ := q.take("k"); !ok {
		t.Fatal("fresh bucket denied")
	}
	if ok, _ := q.take("k"); !ok {
		t.Fatal("burst capacity denied")
	}
	ok, wait := q.take("k")
	if ok {
		t.Fatal("dry bucket granted")
	}
	if wait <= 0 || wait > time.Second {
		t.Errorf("wait hint %v outside (0, 1s]", wait)
	}
	now = now.Add(time.Second) // refills 2 tokens
	if ok, _ := q.take("k"); !ok {
		t.Fatal("refilled bucket denied")
	}
}

// TestHealthAndMetricsStayUngated pins that probes bypass admission: a
// saturated server must still answer its load balancer.
func TestHealthAndMetricsStayUngated(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 1})
	release, aerr := s.adm.admit(context.Background(), "")
	if aerr != nil {
		t.Fatal(aerr)
	}
	defer release()
	for _, path := range []string{"/healthz", "/metrics"} {
		resp, _ := getURL(t, ts.URL+path)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s under load: status %d", path, resp.StatusCode)
		}
	}
}

// getURL fetches a URL and returns the response plus its body.
func getURL(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp, body
}
