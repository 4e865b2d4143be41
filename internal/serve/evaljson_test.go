package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ssnkit/internal/ssn"
)

// drawBenchItem samples one item shaped like the maxssn benchmark
// workload's: a process kit at a corner, rail and size, a driver count, a
// package with paralleled pads, a rise time, and sometimes sensitivity.
func drawBenchItem(r *rand.Rand) EvalItem {
	return EvalItem{
		Process:     []string{"c018", "c025", "c035"}[r.IntN(3)],
		Corner:      []string{"tt", "ss", "ff"}[r.IntN(3)],
		Rail:        r.IntN(2) == 1,
		Size:        float64(1 + r.IntN(2)),
		N:           1 + r.IntN(256),
		Package:     []string{"pga", "qfp", "bga", "cob"}[r.IntN(4)],
		Pads:        1 + r.IntN(8),
		RiseTime:    0.2e-9 * math.Pow(25, r.Float64()),
		Sensitivity: r.IntN(8) == 0,
	}
}

// drawAnyItem also sets the fields the benchmark leaves out: an explicit
// device and supply, explicit L and C, a slope and odd names.
func drawAnyItem(r *rand.Rand) EvalItem {
	it := drawBenchItem(r)
	f := func() float64 { return math.Float64frombits(r.Uint64()&^(0x7ff<<52) | uint64(r.IntN(2046)+1)<<52) }
	if r.IntN(3) == 0 {
		it.Dev = &DeviceSpec{K: f(), V0: f(), A: f()}
		it.Vdd = f()
	}
	if r.IntN(3) == 0 {
		l := f()
		it.L = &l
	}
	if r.IntN(3) == 0 {
		c := f()
		it.C = &c
	}
	if r.IntN(2) == 0 {
		it.Slope, it.RiseTime = f(), 0
	}
	if r.IntN(4) == 0 {
		it.Process, it.Package = "c999", "plcc 44"
	}
	it.N -= r.IntN(300)
	return it
}

// batchBody marshals items as {"items":[…]}, as the benchmark's client does.
func batchBody(t testing.TB, items []EvalItem) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Items []EvalItem `json:"items"`
	}{items})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkScan fails when scanMaxSSNRequest accepts body but encoding/json
// refuses it or decodes something else.
func checkScan(t *testing.T, body []byte) bool {
	t.Helper()
	got, ok := scanMaxSSNRequest(body, math.MaxInt)
	if !ok {
		return false
	}
	var want maxSSNRequest
	if aerr := unmarshalBody(body, &want); aerr != nil {
		t.Fatalf("scanner accepted %q; encoding/json refused it: %v", body, aerr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scanner decoded %q as\n%+v\nencoding/json as\n%+v", body, got, want)
	}
	return true
}

// TestMaxSSNScanMatchesEncodingJSON runs 256 generated batches and single
// items through the scanner: each must be accepted and decode exactly as
// encoding/json decodes it.
func TestMaxSSNScanMatchesEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for k := 0; k < 256; k++ {
		items := make([]EvalItem, r.IntN(70))
		for i := range items {
			items[i] = drawAnyItem(r)
		}
		body := batchBody(t, items)
		if k%4 == 0 { // JSON whitespace between every token
			var buf bytes.Buffer
			if err := json.Indent(&buf, body, " \r", "\t"); err != nil {
				t.Fatal(err)
			}
			body = append(buf.Bytes(), "\n "...)
		}
		if !checkScan(t, body) {
			t.Fatalf("batch %d fell back: %s", k, body)
		}
		single, err := json.Marshal(struct {
			Params EvalItem `json:"params"`
		}{drawAnyItem(r)})
		if err != nil {
			t.Fatal(err)
		}
		if !checkScan(t, single) {
			t.Fatalf("single %d fell back: %s", k, single)
		}
	}
	for _, body := range []string{`{"items":[]}`, `{"params":{}}`, `{"items":[{}]}`,
		`{"params":{"n":-0,"size":-0.0,"rise_time":1E-9,"slope":2e+3,"dev":{}}}`} {
		if !checkScan(t, []byte(body)) {
			t.Errorf("%s fell back", body)
		}
	}
}

// TestMaxSSNScanFallsBack lists bodies outside the canonical subset: the
// scanner must refuse each, leaving the decode (or the error reply) to
// encoding/json.
func TestMaxSSNScanFallsBack(t *testing.T) {
	for _, body := range []string{
		`null`,
		`{"items":null}`,
		`{"items":[null]}`,
		`{"params":null}`,
		`{"params":{"l":null}}`,
		`{"params":{"\u006e":4,"rise_time":1e-9}}`,               // escaped key
		`{"params":{"process":"c0\u00318","n":4}}`,               // escaped value
		`{"params":{"process":"cé","n":4}}`,                      // non-ASCII value
		`{"params":{"N":4,"rise_time":1e-9}}`,                    // case-folded key
		`{"Items":[{"n":4}]}`,                                    // case-folded envelope
		`{"params":{"n":4,"n":5,"rise_time":1e-9}}`,              // duplicate key
		`{"params":{"dev":{"k":1,"k":2},"n":4}}`,                 // duplicate dev key
		`{"params":{"n":1.0,"rise_time":1e-9}}`,                  // float for an int
		`{"params":{"pads":2e0,"n":4}}`,                          // exponent for an int
		`{"params":{"n":4,"rise_time":1e400}}`,                   // out of float64 range
		`{"params":{"n":99999999999999999999,"rise_time":1e-9}}`, // out of int range
		`{"params":{"n":4,"extra":1}}`,                           // unknown key
		`{"params":{"n":"4"}}`,                                   // string for a number
		`{"params":{"rail":1}}`,                                  // number for a bool
		`{"params":{"n":04}}`,                                    // leading zero
		`{"params":{"n":+4}}`,                                    // plus sign
		`{"params":{"rise_time":.5}}`,                            // bare fraction
		`{"params":{"rise_time":1.}}`,                            // empty fraction
		`{"params":{"n":4,}}`,                                    // trailing comma
		`{"items":[{"n":4},]}`,                                   // trailing comma
		`{"process":"c018","n":4,"rise_time":1e-9}`,              // legacy inline form
		`{"items":[],"params":{}}`,                               // both forms
		`{"params":{"n":4}}}`,                                    // trailing data
		`{"params":{"n":4}} x`,                                   // trailing data
		`{"params":{"n":4}`,                                      // truncated
		``,
	} {
		if _, ok := scanMaxSSNRequest([]byte(body), math.MaxInt); ok {
			t.Errorf("scanner accepted %s", body)
		}
	}
}

// FuzzMaxSSNDecode holds the scanner to encoding/json: wherever it
// accepts a body, encoding/json accepts it too and decodes the same
// request.
func FuzzMaxSSNDecode(f *testing.F) {
	for _, body := range []string{
		`{"params":` + itemJSON + `}`,
		`{"items":[` + itemJSON + `,{"process":"c018","n":0,"rise_time":1e-9},` + itemJSON + `]}`,
		`{"params":` + zeroVMaxItem + `}`,
		`{"params": ` + legacyInlineJSON + `}`,
		`{"items": [` + legacyInlineJSON + `]}`,
		legacyInlineJSON,
		`{"params":{"process":"c018","n":4,"rise_time":1e-9}}}`,
		`{"params":{"process":"c018","n":4,"rise_time":1e-9,"n":5}}`,
		`{"params":{"process":"c0\t18","N":4,"rise_time":1e400}}`,
	} {
		f.Add([]byte(body))
	}
	// Short bench-shaped batches: the fuzzer minimizes every new input,
	// and a 64-item body stalls it for minutes.
	r := rand.New(rand.NewPCG(3, 4))
	for k := 0; k < 4; k++ {
		items := make([]EvalItem, 1+k)
		for i := range items {
			items[i] = drawBenchItem(r)
		}
		f.Add(batchBody(f, items))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkScan(t, body)
	})
}

// referenceWriteJSON is writeJSON with every value on encoding/json: the
// status and bytes the /v1/maxssn replies had before they were appended.
func referenceWriteJSON(status int, v any) (int, []byte) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		status = http.StatusInternalServerError
		_ = enc.Encode(map[string]*apiError{"error": {Code: CodeInternal,
			Message: "encoding the reply: " + err.Error()}})
	}
	return status, buf.Bytes()
}

// drawResult samples an EvalResult over every field's shapes: failed
// items with structured values, nil and present zeta, zero beta and t_max,
// sensitivity, off-table cases, and with bad set a NaN or ±Inf somewhere.
func drawResult(r *rand.Rand, index int, bad bool) EvalResult {
	f := func() float64 {
		switch r.IntN(8) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return math.Float64frombits(r.Uint64()&^(0x7ff<<52) | uint64(r.IntN(2046)+1)<<52)
		}
		return (r.Float64() - 0.3) * math.Pow(10, float64(r.IntN(50)-30))
	}
	res := EvalResult{Index: index, VMax: f()}
	switch r.IntN(6) {
	case 0:
		res.Error = &apiError{Code: CodeInvalidParams, Message: "n = <0> & \"q\"", Field: "N",
			Value: []any{f(), "x", map[string]int{"b": 1, "a": 2}}, Constraint: "must be ≥ 1", retryAfter: 3}
		res.VMax = 0
	case 1:
		res.Error = &apiError{Code: CodeTimeout, Message: "evaluation aborted: context deadline exceeded"}
	default:
		c := ssn.Case(r.IntN(6))
		res.CaseCode = int(c)
		res.Case = c.String()
		if r.IntN(10) == 0 {
			res.Case = []string{"", "over-damped", "<odd>"}[r.IntN(3)]
		}
		res.Beta, res.TMax = f(), f()
		if r.IntN(3) > 0 {
			z := f()
			res.Zeta = &z
		}
		if r.IntN(4) == 0 {
			res.Sens = &SensitivityResult{DVdN: f(), DVdL: f(), DVdS: f(), DVdC: f(),
				RelN: f(), RelL: f(), RelS: f(), RelC: f()}
		}
	}
	if bad {
		v := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.IntN(3)]
		switch r.IntN(6) {
		case 0:
			res.VMax = v
		case 1:
			res.Beta = v
		case 2:
			res.Zeta = &v
		case 3:
			res.TMax = v
		case 4:
			res.Sens = &SensitivityResult{RelS: v}
		case 5:
			res.Error = &apiError{Code: CodeInvalidParams, Message: "m", Value: v}
		}
	}
	return res
}

// TestEvalReplyMatchesEncodingJSON holds the EvalResult appenders to
// encoding/json: every single and batch reply writeJSON sends must be
// the reference's status and bytes, including the 500 envelope (and its
// message) when a NaN or an infinity sits anywhere in the reply.
func TestEvalReplyMatchesEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	check := func(what string, v any) {
		t.Helper()
		wantStatus, want := referenceWriteJSON(http.StatusOK, v)
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v)
		if rec.Code != wantStatus || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%s: got %d %s\nwant %d %s", what, rec.Code, rec.Body.Bytes(), wantStatus, want)
		}
	}
	var refused int
	for k := 0; k < 2000; k++ {
		bad := k%10 == 9
		res := drawResult(r, k, bad)
		check(fmt.Sprintf("single %d", k), res)
		results := make([]EvalResult, r.IntN(5))
		for i := range results {
			results[i] = drawResult(r, i, bad && i == len(results)-1)
		}
		check(fmt.Sprintf("batch %d", k), maxSSNBatchResponse{Count: len(results), Results: results})
		if bad {
			refused++
		}
	}
	check("nil results", maxSSNBatchResponse{})
	check("empty results", maxSSNBatchResponse{Results: []EvalResult{}})
	if refused == 0 {
		t.Fatal("no non-finite reply drawn")
	}
}

// discardWriter is an http.ResponseWriter that keeps only the status and
// the byte count, so a benchmark op costs the handler alone.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// BenchmarkMaxSSNBatchJSON serves one 64-item benchmark-shaped JSON batch
// through Server.Handler at one worker: body read and decode, resolve,
// plan compile and evaluation, and the reply's encoding.
func BenchmarkMaxSSNBatchJSON(b *testing.B) {
	s := New(Config{Workers: 1})
	r := rand.New(rand.NewPCG(1, 1))
	items := make([]EvalItem, 64)
	for i := range items {
		items[i] = drawBenchItem(r)
	}
	body := batchBody(b, items)
	req := httptest.NewRequest(http.MethodPost, "/v1/maxssn", nil)
	req.Header.Set("Content-Type", "application/json")
	w := &discardWriter{h: http.Header{}}
	h := s.Handler()
	serve := func() {
		req.Body = io.NopCloser(bytes.NewReader(body))
		w.status, w.n = 0, 0
		h.ServeHTTP(w, req)
	}
	serve()
	if w.status != http.StatusOK || w.n == 0 {
		b.Fatalf("status %d, %d bytes", w.status, w.n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}

// postMaxSSN serves body on /v1/maxssn through h in process.
func postMaxSSN(h http.Handler, body []byte) *httptest.ResponseRecorder {
	return postBody(h, "/v1/maxssn", body)
}

// postBody serves one JSON POST of body to path through h.
func postBody(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// emptyItems is a batch body of n empty items under key.
func emptyItems(key string, n int) []byte {
	return []byte(`{"` + key + `":[` + strings.Repeat(`{},`, n-1) + `{}]}`)
}

// TestMaxSSNOversizedBatchBounded posts 100,000 empty items, a 300 KB
// body, to /v1/maxssn under "items" (the scanner's path) and under the
// case-folded key "Items" (encoding/json's), and to /v1/solve: each batch
// is counted before encoding/json stores it, so serving it allocates a
// few MB where storing every item took 68 MB (/v1/maxssn) and 135 MB
// (/v1/solve), and the reply still counts all 100,000. The scanner
// declines the "items" body by its brace count before storing an item,
// where storing the first 8,192 took about 7 MB, so that case has a
// tighter cap. Over a small MaxBatch, the scanned reply is byte for byte
// what encoding/json's path replies to the same batch under "Items",
// which the scanner refuses.
func TestMaxSSNOversizedBatchBounded(t *testing.T) {
	h := New(Config{}).Handler()
	const want = `{"error":{"code":"batch_too_large","message":"batch of 100000 exceeds the 8192-item limit","field":"items","value":100000,"constraint":"at most 8192 items"}}`
	for _, tc := range []struct {
		path, key string
		max       uint64
	}{
		{"/v1/maxssn", "items", 4 << 20}, {"/v1/maxssn", "Items", 16 << 20}, {"/v1/solve", "items", 16 << 20},
	} {
		body := emptyItems(tc.key, 100_000)
		postBody(h, tc.path, emptyItems(tc.key, 10)) // warm the pools
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rec := postBody(h, tc.path, body)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest || strings.TrimSpace(rec.Body.String()) != want {
			t.Errorf("%s %q: status %d, reply %s; want 400 and %s", tc.path, tc.key, rec.Code, rec.Body, want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > tc.max {
			t.Errorf("%s %q: serving %d empty items allocated %d bytes, want <= %d",
				tc.path, tc.key, 100_000, got, tc.max)
		}
	}

	h = New(Config{MaxBatch: 16}).Handler()
	for _, n := range []int{16, 17, 100} {
		scanned, decoded := postMaxSSN(h, emptyItems("items", n)), postMaxSSN(h, emptyItems("Items", n))
		if scanned.Code != decoded.Code || scanned.Body.String() != decoded.Body.String() {
			t.Errorf("%d items: scanned %d %s, encoding/json %d %s",
				n, scanned.Code, scanned.Body, decoded.Code, decoded.Body)
		}
	}
}

// TestCountItemsMatchesDecode holds countItems to the batch length
// encoding/json decodes from the same body: strings holding brackets,
// commas and escaped quotes, nested arrays, whitespace, null and non-array
// values, case-folded and repeated keys, and trailing data after the value.
func TestCountItemsMatchesDecode(t *testing.T) {
	for _, body := range []string{
		`{}`, `{"items":[]}`, `{"items":[ ]}`, `{"items":null}`, `{"items":{}}`, `{"items":3}`,
		`{"items":[{}]}`, ` { "items" : [ {} , {} , {} ] } `,
		`{"items":[{"process":"a,b]}"},{"process":"\",[{"}]}`,
		`{"items":[{"dev":{"k":1,"v0":2,"a":3}},{"l":1e-9}]}`,
		`{"ITEMS":[{},{}]}`, `{"items":[{},{}],"Items":[{}]}`, `{"items":[{}],"items":null}`,
		`{"items":[{},{}]}]`, `{"n":4,"items":[{},{}],"params":{"n":2}}`,
	} {
		var q maxSSNRequest
		_ = json.NewDecoder(strings.NewReader(body)).Decode(&q)
		if got := countItems([]byte(body)); got != len(q.Items) {
			t.Errorf("%s: countItems %d, encoding/json decodes %d items", body, got, len(q.Items))
		}
	}
}

// TestTrailingDataEveryRoute posts a complete JSON object followed by a
// stray closing brace to every enveloped POST route: each must refuse it
// as trailing data before reading any field.
func TestTrailingDataEveryRoute(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/maxssn", "/v1/solve", "/v1/waveform", "/v1/sweep",
		"/v1/impedance", "/v1/shard", "/v1/montecarlo", "/v1/distsweep"} {
		for _, body := range []string{`{}}`, `{} ]`, `{}]]]garbage`} {
			resp, out := postJSON(t, ts.URL+path, body)
			if resp.StatusCode != http.StatusBadRequest ||
				!strings.Contains(string(out), `"message":"trailing data after JSON body"`) {
				t.Errorf("%s %s: %d %s", path, body, resp.StatusCode, out)
			}
		}
	}
}
