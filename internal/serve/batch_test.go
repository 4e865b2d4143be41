package serve

import (
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
)

// zeroVMaxItem resolves to a point whose Table 1 vmax is exactly 0, so its
// relative sensitivities would be 0/0.
const zeroVMaxItem = `{"dev":{"k":0.8605825827536612,"v0":1.8528228447362542,"a":0.7564190481325894},` +
	`"vdd":2.0194356244662623,"n":3266,"l":0.0009468425807803504,"c":3.969858186656619e-15,` +
	`"slope":25817661.822278433,"sensitivity":true}`

// TestMaxSSNSensitivityAtZeroVMax pins the refusal of relative
// sensitivities at vmax = 0: a 400 on the single route, an in-place
// invalid_params on the batch route with the siblings' bytes untouched,
// and never a 200 with an empty body.
func TestMaxSSNSensitivityAtZeroVMax(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	checkErr := func(where string, e *apiError) {
		t.Helper()
		if e == nil {
			t.Fatalf("%s: no error", where)
		}
		if e.Code != CodeInvalidParams || e.Field != "sensitivity" ||
			e.Constraint != "relative sensitivity is undefined at vmax = 0" {
			t.Errorf("%s: error %+v", where, e)
		}
	}

	resp, body := postJSON(t, ts.URL+"/v1/maxssn", `{"params":`+zeroVMaxItem+`}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("single: status %d, body %q", resp.StatusCode, body)
	}
	var single struct{ Error *apiError }
	if err := json.Unmarshal(body, &single); err != nil {
		t.Fatalf("single: %v in %q", err, body)
	}
	checkErr("single", single.Error)

	// The bad item between two good ones, and the same batch with the bad
	// item swapped for a good one: the siblings' encoded results must match.
	sens := strings.Replace(itemJSON, `}`, `,"sensitivity":true}`, 1)
	batch := func(mid string) []json.RawMessage {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/maxssn", `{"items":[`+itemJSON+`,`+mid+`,`+sens+`]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch: status %d, body %q", resp.StatusCode, body)
		}
		var out struct {
			Count   int
			Results []json.RawMessage
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("batch: %v in %q", err, body)
		}
		if out.Count != 3 || len(out.Results) != 3 {
			t.Fatalf("batch: count %d, %d results", out.Count, len(out.Results))
		}
		return out.Results
	}
	bad, good := batch(zeroVMaxItem), batch(itemJSON)
	var mid EvalResult
	if err := json.Unmarshal(bad[1], &mid); err != nil {
		t.Fatal(err)
	}
	if mid.Index != 1 || mid.Sens != nil {
		t.Errorf("failed item: index %d, sensitivity %+v", mid.Index, mid.Sens)
	}
	checkErr("batch", mid.Error)
	for _, i := range []int{0, 2} {
		if !bytes.Equal(bad[i], good[i]) {
			t.Errorf("sibling %d changed:\n%s\n%s", i, bad[i], good[i])
		}
	}
}

// TestWriteJSONRefusesUnencodable pins writeJSON's backstop: a value
// encoding/json cannot encode becomes a 500 internal error envelope.
func TestWriteJSONRefusesUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, EvalResult{VMax: math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var out struct{ Error *apiError }
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("%v in %q", err, rec.Body.Bytes())
	}
	if out.Error == nil || out.Error.Code != CodeInternal || !strings.Contains(out.Error.Message, "NaN") {
		t.Errorf("error %+v", out.Error)
	}
}

// batchItems builds n distinct items over corners, rails, sizes and
// sensitivity, with every 16th item invalid so errors ride in the mix.
func batchItems(t *testing.T, n int) []EvalItem {
	t.Helper()
	items := make([]EvalItem, n)
	for i := range items {
		src := fmt.Sprintf(
			`{"process":%q,"corner":%q,"rail":%t,"size":%d,"n":%d,"package":"pga","pads":%d,"rise_time":1e-9,"sensitivity":%t}`,
			[]string{"c018", "c025", "c035"}[i%3], []string{"tt", "ss", "ff"}[i/3%3],
			i%2 == 1, i%4, i%16, 1+i%3, i%5 == 0)
		if err := json.Unmarshal([]byte(src), &items[i]); err != nil {
			t.Fatal(err)
		}
	}
	return items
}

// TestMaxSSNBatchHammer posts 64-item batches from several clients at
// once to a four-worker server. Every reply must be byte for byte the
// serial evalOne answers, so worker interleaving moves no result, no bit
// and no index. CI repeats it under the race detector.
func TestMaxSSNBatchHammer(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	items := batchItems(t, 64)
	body, err := json.Marshal(maxSSNRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	serial := make([]EvalResult, len(items))
	for i, it := range items {
		serial[i] = s.evalOne(i, it)
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, maxSSNBatchResponse{Count: len(serial), Results: serial})
	want := rec.Body.Bytes()
	if !bytes.Contains(want, []byte(`"error"`)) || !bytes.Contains(want, []byte(`"sensitivity"`)) {
		t.Fatal("the batch must mix errors and sensitivities")
	}

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 8; k++ {
				resp, err := http.Post(ts.URL+"/v1/maxssn", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var got bytes.Buffer
				_, err = got.ReadFrom(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("status %d, %v", resp.StatusCode, err)
					return
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Errorf("reply differs from serial evalOne:\n%s\nwant\n%s", got.Bytes(), want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestMaxSSNBatchDeadline pins the deadline path: an item that has not
// started when the request's budget runs out comes back as a timeout
// under its own index, and the items that ran before it are untouched.
func TestMaxSSNBatchDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, RequestTimeout: 20 * time.Millisecond})
	items := batchItems(t, 6)
	body, err := json.Marshal(maxSSNRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	isTimeout := func(r EvalResult, i int) bool {
		return r.Index == i && r.Error != nil && r.Error.Code == CodeTimeout && r.VMax == 0 && r.Case == ""
	}

	// Every pool slot held: no item can start before the deadline.
	for i := 0; i < s.cfg.Workers; i++ {
		if err := s.pool.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	resp, raw := postJSON(t, ts.URL+"/v1/maxssn", string(body))
	for i := 0; i < s.cfg.Workers; i++ {
		s.pool.Release()
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out maxSSNBatchResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Count != len(items) || len(out.Results) != len(items) {
		t.Fatalf("count %d, %d results", out.Count, len(out.Results))
	}
	for i, r := range out.Results {
		if !isTimeout(r, i) {
			t.Errorf("item %d: %+v, want a timeout at index %d", i, r, i)
		}
	}

	// Past the deadline no item starts, even with every slot free.
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	for i, r := range s.evalItems(gone, batchItems(t, 64)) {
		if !isTimeout(r, i) {
			t.Fatalf("item %d started after the deadline: %+v", i, r)
		}
	}

	// A deadline mid-batch on one worker: the results are a prefix of
	// items that ran, each equal to evalOne, then timeouts only. The test
	// hands its slot to the worker waiting on item 0 and queues for it
	// again, so it gets the slot back once item 0 is done and cancels
	// while the worker waits on item 1. The assertions hold under any
	// schedule; the retry only covers one where the test requeues before
	// the worker waits, and no item runs.
	one := New(Config{Workers: 1})
	defer one.Shutdown(context.Background())
	mixed := false
	for attempt := 0; attempt < 20 && !mixed; attempt++ {
		if err := one.pool.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan []EvalResult)
		go func() { done <- one.evalItems(ctx, items) }()
		time.Sleep(5 * time.Millisecond) // let the worker block on item 0's slot
		one.pool.Release()
		if err := one.pool.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
		cancel()
		got := <-done
		one.pool.Release()
		ran := 0
		for ran < len(got) && (got[ran].Error == nil || got[ran].Error.Code != CodeTimeout) {
			if want := one.evalOne(ran, items[ran]); !equalResults(got[ran], want) {
				t.Fatalf("item %d: %+v, want %+v", ran, got[ran], want)
			}
			ran++
		}
		for i := ran; i < len(got); i++ {
			if !isTimeout(got[i], i) {
				t.Fatalf("item %d after the deadline: %+v", i, got[i])
			}
		}
		mixed = ran > 0 && ran < len(got)
	}
	if !mixed {
		t.Error("never saw a batch cut mid-way by its deadline")
	}
}

// equalResults compares two results by their wire bytes.
func equalResults(a, b EvalResult) bool {
	x, errX := json.Marshal(a)
	y, errY := json.Marshal(b)
	return errX == nil && errY == nil && bytes.Equal(x, y)
}
