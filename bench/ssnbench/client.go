package main

import (
	"bytes"
	"fmt"
	"net/http"
	"time"
)

// sample is the outcome of one request, timed from send to the last body
// byte. ops counts the ops the request asked for; failed requests fail
// all of them.
type sample struct {
	lat time.Duration
	// spanLat runs from send to the client span recorded, in a traced
	// round: lat plus the span's cost on the caller's critical path.
	spanLat time.Duration
	bytes   int
	ops     int
	runNS   int64 // server-side run time, where the child reports one
	err     error
}

// newClient returns an HTTP client that keeps one connection alive.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{DisableCompression: true}}
}

// drive sends reqs closed-loop from one caller, which sends its next
// request only after the previous reply is fully read and checked. A
// non-nil expect holds each request's expected reply; the digest must
// match it bit for bit. When tr is non-nil, every request records a client
// span in it. After each request the caller times the reference loop for
// its share of the request time so far; the loop is returned with its
// timings.
func drive(client *http.Client, base string, w *workload, reqs []request, expect []reply, tr *tracer) ([]sample, *refLoop) {
	samples := make([]sample, len(reqs))
	ref := newRefLoop()
	var buf bytes.Buffer
	var busy time.Duration
	for i, rq := range reqs {
		var want *reply
		if expect != nil {
			want = &expect[i]
		}
		samples[i] = send(client, base, w, rq, want, &buf, tr, i)
		busy += samples[i].lat
		ref.keepUp(busy)
	}
	return samples, ref
}

func send(client *http.Client, base string, w *workload, rq request, want *reply, buf *bytes.Buffer, tr *tracer, i int) sample {
	s := sample{ops: opsOf(rq)}
	req, err := http.NewRequest(http.MethodPost, base+w.path, bytes.NewReader(rq.body))
	if err != nil {
		s.err = err
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	if w.accept != "" {
		req.Header.Set("Accept", w.accept)
	}
	start := time.Now()
	resp, err := client.Do(req)
	if err == nil {
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", resp.StatusCode, buf.Bytes())
		}
	}
	end := time.Now()
	s.lat = end.Sub(start)
	if tr != nil {
		// The same request with and without its span's cost:
		// trace.overhead_ratio compares the two.
		tr.record(fmt.Sprintf("%s/%d", w.name, i), 0, "http.request", start, end, 1)
		s.spanLat = time.Since(start)
	}
	s.bytes = buf.Len()
	if err != nil {
		s.err = err
		return s
	}
	got, err := w.check(buf.Bytes())
	switch {
	case err != nil:
		s.err = err
	case want != nil && (got.digest != want.digest || got.ops != want.ops):
		s.err = fmt.Errorf("reply differs from in-process evaluation (digest %x, want %x)", got.digest, want.digest)
	}
	s.runNS = got.runNS
	return s
}

// opsOf counts the ops one request asks for: design points for the
// oracle, one otherwise.
func opsOf(rq request) int {
	if q, ok := rq.spec.(oracleQuery); ok {
		return q.Points
	}
	return 1
}
