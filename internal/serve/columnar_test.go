package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ssnkit/internal/colwire"
)

// postColumnar POSTs an SSNC block, optionally overriding the Accept
// header, and returns the raw response.
func postColumnar(t *testing.T, url string, blk *colwire.Block, accept string) (*http.Response, []byte) {
	t.Helper()
	enc, err := blk.Encode()
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url, bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", colwire.ContentType)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
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

// columnarBatchBlock builds the canonical test batch: shared params in the
// meta, a capacitance column per row.
func columnarBatchBlock(t *testing.T, cvals []float64) *colwire.Block {
	t.Helper()
	return &colwire.Block{
		Meta: json.RawMessage(`{"params":{"n":16,"dev":{"k":4e-3,"v0":0.6,"a":1.2},"vdd":1.8,"l":1.25e-9,"slope":1.8e9}}`),
		Columns: []colwire.Column{
			{Name: "c", Values: cvals},
		},
	}
}

// TestColumnarBatchMatchesJSON is the round-trip contract the CI smoke
// also checks end to end: a columnar batch and the equivalent JSON items
// batch must produce bit-identical vmax values.
func TestColumnarBatchMatchesJSON(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	cvals := []float64{0, 1e-13, 5e-13, 2e-12, 8e-12, 4e-11}

	resp, body := postColumnar(t, ts.URL+"/v1/maxssn", columnarBatchBlock(t, cvals), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("columnar status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != colwire.ContentType {
		t.Fatalf("columnar reply content type %q", ct)
	}
	blk, n, err := colwire.Decode(body)
	if err != nil || n != len(body) {
		t.Fatalf("decode reply: %v (consumed %d of %d)", err, n, len(body))
	}
	var meta columnarBatchResponseMeta
	if err := json.Unmarshal(blk.Meta, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Count != len(cvals) || len(meta.Errors) != 0 {
		t.Fatalf("meta = %+v", meta)
	}
	vmax := blk.Column("vmax")
	caseCode := blk.Column("case_code")
	tmax := blk.Column("t_max")
	beta := blk.Column("beta")
	if vmax == nil || caseCode == nil || tmax == nil || beta == nil {
		t.Fatalf("missing response columns, got %d", len(blk.Columns))
	}

	// The same batch through the JSON wire.
	var sb strings.Builder
	sb.WriteString(`{"items":[`)
	for i, c := range cvals {
		if i > 0 {
			sb.WriteByte(',')
		}
		b, _ := json.Marshal(map[string]any{
			"n": 16, "dev": map[string]float64{"k": 4e-3, "v0": 0.6, "a": 1.2},
			"vdd": 1.8, "l": 1.25e-9, "slope": 1.8e9, "c": c,
		})
		sb.Write(b)
	}
	sb.WriteString(`]}`)
	jresp, jbody := postJSON(t, ts.URL+"/v1/maxssn", sb.String())
	if jresp.StatusCode != http.StatusOK {
		t.Fatalf("json status %d: %s", jresp.StatusCode, jbody)
	}
	var jout maxSSNBatchResponse
	if err := json.Unmarshal(jbody, &jout); err != nil {
		t.Fatal(err)
	}
	for i, res := range jout.Results {
		if math.Float64bits(vmax[i]) != math.Float64bits(res.VMax) {
			t.Errorf("row %d: columnar vmax %v != json %v", i, vmax[i], res.VMax)
		}
		if int(caseCode[i]) != res.CaseCode {
			t.Errorf("row %d: case_code %v != %d", i, caseCode[i], res.CaseCode)
		}
		if math.Float64bits(tmax[i]) != math.Float64bits(res.TMax) {
			t.Errorf("row %d: t_max %v != %v", i, tmax[i], res.TMax)
		}
		if math.Float64bits(beta[i]) != math.Float64bits(res.Beta) {
			t.Errorf("row %d: beta %v != %v", i, beta[i], res.Beta)
		}
	}

	in := s.metrics.value("ssnserve_columnar_payloads_total", "/v1/maxssn", "in")
	out := s.metrics.value("ssnserve_columnar_payloads_total", "/v1/maxssn", "out")
	if in != 1 || out != 1 {
		t.Fatalf("columnar counters: in %d, out %d, want 1 each", in, out)
	}
}

// TestColumnarNegotiation pins the Accept/Content-Type matrix.
func TestColumnarNegotiation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	blk := columnarBatchBlock(t, []float64{1e-12})

	// Columnar body + explicit JSON accept -> JSON batch envelope.
	resp, body := postColumnar(t, ts.URL+"/v1/maxssn", blk, "application/json")
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		t.Fatalf("status %d ct %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var jout maxSSNBatchResponse
	if err := json.Unmarshal(body, &jout); err != nil || jout.Count != 1 {
		t.Fatalf("json reply: %v %s", err, body)
	}

	// JSON body + columnar accept -> columnar batch reply.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/maxssn", strings.NewReader(
		`{"items":[{"n":16,"dev":{"k":4e-3,"v0":0.6,"a":1.2},"vdd":1.8,"l":1.25e-9,"c":1e-12,"slope":1.8e9}]}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", colwire.ContentType)
	cresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(cresp.Body); err != nil {
		t.Fatal(err)
	}
	if ct := cresp.Header.Get("Content-Type"); ct != colwire.ContentType {
		t.Fatalf("accept negotiation ignored: ct %q", ct)
	}
	cblk, _, err := colwire.Decode(buf.Bytes())
	if err != nil || cblk.Rows() != 1 {
		t.Fatalf("decode negotiated reply: %v", err)
	}

	// Both wires agree on the value.
	if math.Float64bits(cblk.Column("vmax")[0]) != math.Float64bits(jout.Results[0].VMax) {
		t.Fatal("negotiated columnar vmax differs from JSON vmax")
	}

	// A q=0 entry refuses its type: the sweep streams NDJSON, not SSNC.
	sresp, sbody := postJSONAccept(t, ts.URL+"/v1/sweep",
		`{"params":{"n":8,"dev":{"k":4e-3,"v0":0.6,"a":1.2},"vdd":1.8,"l":1.25e-9,"c":1e-12,"slope":1.8e9},`+
			`"axes":[{"axis":"n","from":1,"to":4,"points":4}]}`,
		colwire.ContentType+";q=0, application/json")
	if sresp.StatusCode != http.StatusOK || sresp.Header.Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("q=0 columnar accept: status %d ct %q: %s", sresp.StatusCode, sresp.Header.Get("Content-Type"), sbody)
	}
}

func TestColumnarBatchErrorsInMeta(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	blk := columnarBatchBlock(t, []float64{1e-12, -1, 2e-12})
	resp, body := postColumnar(t, ts.URL+"/v1/maxssn", blk, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	rblk, _, err := colwire.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	var meta columnarBatchResponseMeta
	if err := json.Unmarshal(rblk.Meta, &meta); err != nil {
		t.Fatal(err)
	}
	if len(meta.Errors) != 1 || meta.Errors["1"] == nil {
		t.Fatalf("errors = %v", meta.Errors)
	}
	if meta.Errors["1"].Code != CodeInvalidParams {
		t.Fatalf("row error code %q", meta.Errors["1"].Code)
	}
	vmax, caseCode := rblk.Column("vmax"), rblk.Column("case_code")
	if !math.IsNaN(vmax[1]) || caseCode[1] != -1 {
		t.Fatalf("failed row carries vmax=%v case_code=%v", vmax[1], caseCode[1])
	}
	if math.IsNaN(vmax[0]) || math.IsNaN(vmax[2]) {
		t.Fatal("valid rows poisoned by the failed one")
	}
}

func TestColumnarBatchRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 4})

	post := func(body []byte, wantStatus int, wantCode string) {
		t.Helper()
		req, _ := http.NewRequest("POST", ts.URL+"/v1/maxssn", bytes.NewReader(body))
		req.Header.Set("Content-Type", colwire.ContentType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		if resp.StatusCode != wantStatus {
			t.Fatalf("status %d, want %d: %s", resp.StatusCode, wantStatus, buf.Bytes())
		}
		var env struct {
			Error apiError `json:"error"`
		}
		if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
			t.Fatal(err)
		}
		if env.Error.Code != wantCode {
			t.Fatalf("code %q, want %q", env.Error.Code, wantCode)
		}
	}

	// Unknown column.
	bad, err := (&colwire.Block{Columns: []colwire.Column{{Name: "cc", Values: []float64{1}}}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	post(bad, http.StatusBadRequest, CodeInvalidRequest)

	// Truncated block.
	good, err := columnarBatchBlock(t, []float64{1e-12}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	post(good[:len(good)-3], http.StatusBadRequest, CodeInvalidRequest)

	// Empty body.
	post(nil, http.StatusBadRequest, CodeInvalidRequest)

	// Trailing junk after the block.
	post(append(append([]byte(nil), good...), 'x'), http.StatusBadRequest, CodeInvalidRequest)

	// Over the batch cap.
	over, err := columnarBatchBlock(t, make([]float64, 5)).Encode()
	if err != nil {
		t.Fatal(err)
	}
	post(over, http.StatusBadRequest, CodeBatchTooLarge)

	// Items in the meta.
	wrong, err := (&colwire.Block{
		Meta:    json.RawMessage(`{"items":[{"n":1}]}`),
		Columns: []colwire.Column{{Name: "c", Values: []float64{1e-12}}},
	}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	post(wrong, http.StatusBadRequest, CodeInvalidRequest)
}

// TestColumnarSweepStream drives /v1/sweep with a columnar Accept and
// cross-checks every value against the NDJSON stream of the same request.
func TestColumnarSweepStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	reqBody := `{"params":{"n":8,"dev":{"k":4e-3,"v0":0.6,"a":1.2},"vdd":1.8,"l":1.25e-9,"slope":1.8e9},` +
		`"axes":[{"axis":"n","from":1,"to":40,"points":40},{"axis":"c","from":1e-13,"to":1e-11,"points":50,"log":true}]}`

	req, _ := http.NewRequest("POST", ts.URL+"/v1/sweep", strings.NewReader(reqBody))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", colwire.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != colwire.ContentType {
		t.Fatalf("content type %q", ct)
	}
	blocks, err := DecodeColumnarStream(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) < 2 {
		t.Fatalf("%d blocks, want data + terminal", len(blocks))
	}
	last := blocks[len(blocks)-1]
	if last.Rows() != 0 {
		t.Fatalf("terminal block has %d rows", last.Rows())
	}
	var summary sweepSummary
	if err := json.Unmarshal(last.Meta, &summary); err != nil {
		t.Fatal(err)
	}
	if !summary.Done || summary.Stats.GridPoints != 2000 || summary.Stats.Evaluated != 2000 {
		t.Fatalf("summary = %+v", summary)
	}
	var ns, cs, vmax, caseCode []float64
	for _, blk := range blocks[:len(blocks)-1] {
		for _, want := range []string{"n", "c", "vmax", "case_code", "depth"} {
			if blk.Column(want) == nil {
				t.Fatalf("data block lacks column %q", want)
			}
		}
		ns = append(ns, blk.Column("n")...)
		cs = append(cs, blk.Column("c")...)
		vmax = append(vmax, blk.Column("vmax")...)
		caseCode = append(caseCode, blk.Column("case_code")...)
	}
	if len(vmax) != 2000 {
		t.Fatalf("%d data rows", len(vmax))
	}

	// NDJSON stream of the same request.
	jresp, jbody := postJSON(t, ts.URL+"/v1/sweep", reqBody)
	if jresp.StatusCode != http.StatusOK {
		t.Fatalf("ndjson status %d", jresp.StatusCode)
	}
	lines := bytes.Split(bytes.TrimSpace(jbody), []byte("\n"))
	row := 0
	for _, line := range lines {
		var pt struct {
			Values   map[string]float64 `json:"values"`
			VMax     float64            `json:"vmax"`
			CaseCode int                `json:"case_code"`
		}
		if err := json.Unmarshal(line, &pt); err != nil {
			t.Fatal(err)
		}
		if pt.Values == nil { // terminal summary line
			continue
		}
		if math.Float64bits(pt.Values["n"]) != math.Float64bits(ns[row]) ||
			math.Float64bits(pt.Values["c"]) != math.Float64bits(cs[row]) {
			t.Fatalf("row %d: axis values differ", row)
		}
		if math.Float64bits(pt.VMax) != math.Float64bits(vmax[row]) {
			t.Fatalf("row %d: vmax %v != %v", row, pt.VMax, vmax[row])
		}
		if float64(pt.CaseCode) != caseCode[row] {
			t.Fatalf("row %d: case_code %d != %v", row, pt.CaseCode, caseCode[row])
		}
		row++
	}
	if row != 2000 {
		t.Fatalf("ndjson had %d data rows", row)
	}
}

// TestColumnarSweepCleanMeta checks that data blocks of an error-free
// sweep carry no meta at all (the errors map only appears when a row
// failed), keeping the steady-state frames minimal.
func TestColumnarSweepCleanMeta(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	reqBody := `{"params":{"n":8,"dev":{"k":4e-3,"v0":0.6,"a":1.2},"vdd":1.8,"l":1.25e-9,"slope":1.8e9},` +
		`"axes":[{"axis":"c","from":0,"to":1e-12,"points":8}]}`
	req, _ := http.NewRequest("POST", ts.URL+"/v1/sweep", strings.NewReader(reqBody))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", colwire.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blocks, err := DecodeColumnarStream(resp.Body)
	if err != nil || len(blocks) != 2 {
		t.Fatalf("blocks %d err %v", len(blocks), err)
	}
	if len(blocks[0].Meta) != 0 {
		t.Fatalf("clean sweep block carries meta %s", blocks[0].Meta)
	}
	if blocks[0].Rows() != 8 {
		t.Fatalf("rows %d", blocks[0].Rows())
	}
}

// sweepSSNCBodies are 64x64 /v1/sweep bodies shaped like the sweep-ssnc
// benchmark workload's: a kit-resolved base point and two axes drawn from
// its ranges, an n axis inner and outer, log l and c axes and a rise-time
// axis.
var sweepSSNCBodies = []string{
	`{"params":{"process":"c018","corner":"tt","size":1,"n":16,"package":"pga","pads":2,"rise_time":1e-9},` +
		`"axes":[{"axis":"n","from":4,"to":160,"points":64},{"axis":"c","from":2e-13,"to":2e-11,"points":64,"log":true}]}`,
	`{"params":{"process":"c018","corner":"ff","size":2,"n":40,"package":"qfp","pads":4,"rise_time":2e-9},` +
		`"axes":[{"axis":"l","from":3e-10,"to":8e-9,"points":64,"log":true},{"axis":"tr","from":5e-10,"to":4e-9,"points":64}]}`,
	`{"params":{"process":"c018","corner":"ss","size":1,"n":8,"package":"pga","pads":6,"rise_time":5e-10},` +
		`"axes":[{"axis":"c","from":1e-13,"to":3e-11,"points":64,"log":true},{"axis":"n","from":2,"to":200,"points":64}]}`,
	`{"params":{"process":"c018","corner":"tt","size":2,"n":100,"package":"qfp","pads":1,"rise_time":1e-9},` +
		`"axes":[{"axis":"slope","from":5e8,"to":9e9,"points":64},{"axis":"l","from":2e-10,"to":1e-8,"points":64,"log":true}]}`,
}

// BenchmarkSweepSSNC serves one 64x64 columnar /v1/sweep per op through
// Server.Handler at one worker into a discarding writer, cycling through
// sweepSSNCBodies: decode, grid build, the sweep engine and the SSNC
// blocks of 4096 rows.
func BenchmarkSweepSSNC(b *testing.B) {
	s := New(Config{Workers: 1})
	h := s.Handler()
	w := &discardWriter{h: http.Header{}}
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", nil)
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", colwire.ContentType)
	serve := func(i int) {
		req.Body = io.NopCloser(strings.NewReader(sweepSSNCBodies[i%len(sweepSSNCBodies)]))
		w.status, w.n = 0, 0
		h.ServeHTTP(w, req)
	}
	for i := range sweepSSNCBodies {
		serve(i)
		if w.status != http.StatusOK || w.n < 4096*5*8 {
			b.Fatalf("body %d: status %d, %d bytes", i, w.status, w.n)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(i)
	}
}
