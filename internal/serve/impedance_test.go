package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ssnkit/internal/colwire"
	"ssnkit/internal/pdn"
	"ssnkit/internal/pkgmodel"
	"ssnkit/internal/spice"
)

// postJSONAccept POSTs a JSON body with an explicit Accept header.
func postJSONAccept(t *testing.T, url, body, accept string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", accept)
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

// TestImpedancePoint: point mode answers one frequency with Z and, when
// asked, per-element adjoint sensitivities.
func TestImpedancePoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/impedance",
		`{"package":"pga","rows":2,"cols":2,"pads":2,"freq":1e8,"with_sens":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pt impedancePoint
	if err := json.Unmarshal(body, &pt); err != nil {
		t.Fatal(err)
	}
	if pt.Freq != 1e8 {
		t.Errorf("freq %g, want 1e8", pt.Freq)
	}
	if !(pt.ZMag > 0) || math.Abs(math.Hypot(pt.ZRe, pt.ZIm)-pt.ZMag) > 1e-12*pt.ZMag {
		t.Errorf("inconsistent Z: re=%g im=%g mag=%g", pt.ZRe, pt.ZIm, pt.ZMag)
	}
	if len(pt.Sens) == 0 {
		t.Fatal("with_sens returned no sensitivities")
	}
	for _, s := range pt.Sens {
		if s.Name == "" || (s.Kind != "R" && s.Kind != "L" && s.Kind != "C") {
			t.Errorf("malformed sensitivity entry %+v", s)
		}
	}
}

// TestImpedanceSweepNDJSON: sweep mode streams one record per frequency in
// ascending order plus a terminal done/stats summary whose peak matches
// the streamed maximum.
func TestImpedanceSweepNDJSON(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/impedance",
		`{"rows":3,"cols":3,"pads":4,"from":1e6,"to":1e10,"points":50}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if len(lines) != 51 {
		t.Fatalf("%d lines, want 50 points + summary", len(lines))
	}
	var prevFreq, maxZ float64
	for _, line := range lines[:50] {
		var pt impedancePoint
		if err := json.Unmarshal(line, &pt); err != nil {
			t.Fatalf("%v in %s", err, line)
		}
		if pt.Freq <= prevFreq {
			t.Fatalf("frequencies not ascending: %g after %g", pt.Freq, prevFreq)
		}
		prevFreq = pt.Freq
		if pt.ZMag > maxZ {
			maxZ = pt.ZMag
		}
	}
	var sum impedanceSummary
	if err := json.Unmarshal(lines[50], &sum); err != nil {
		t.Fatal(err)
	}
	if !sum.Done || sum.Stats.Points != 50 {
		t.Errorf("summary %+v", sum)
	}
	if sum.Stats.PeakZ != maxZ {
		t.Errorf("summary peak %g != streamed max %g", sum.Stats.PeakZ, maxZ)
	}
	sweeps := s.metrics.value("ssnserve_impedance_total", "sweep")
	points := s.metrics.value("ssnserve_impedance_points_total")
	if sweeps != 1 || points != 50 {
		t.Errorf("metrics: sweeps=%d points=%d", sweeps, points)
	}
}

// TestImpedanceSweepColumnarMatchesJSON is the wire-equivalence check: the
// SSNC z_mag column must carry bit-identical float64s to the NDJSON
// stream's z_mag fields (shortest round-trip decimal re-parses to the
// same bits).
func TestImpedanceSweepColumnarMatchesJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const reqBody = `{"rows":3,"cols":3,"pads":4,"from":1e6,"to":1e10,"points":40}`

	_, jsonBody := postJSON(t, ts.URL+"/v1/impedance", reqBody)
	lines := bytes.Split(bytes.TrimSpace(jsonBody), []byte("\n"))
	var jsonMags, jsonFreqs []float64
	for _, line := range lines[:len(lines)-1] {
		var pt impedancePoint
		if err := json.Unmarshal(line, &pt); err != nil {
			t.Fatal(err)
		}
		jsonMags = append(jsonMags, pt.ZMag)
		jsonFreqs = append(jsonFreqs, pt.Freq)
	}

	resp, colBody := postJSONAccept(t, ts.URL+"/v1/impedance", reqBody, colwire.ContentType)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("columnar status %d: %s", resp.StatusCode, colBody)
	}
	if ct := resp.Header.Get("Content-Type"); ct != colwire.ContentType {
		t.Fatalf("content type %q", ct)
	}
	blocks, err := DecodeColumnarStream(bytes.NewReader(colBody))
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) < 2 {
		t.Fatalf("%d blocks, want rows + terminal", len(blocks))
	}
	last := blocks[len(blocks)-1]
	if last.Rows() != 0 {
		t.Fatalf("terminal block has %d rows", last.Rows())
	}
	var sum impedanceSummary
	if err := json.Unmarshal(last.Meta, &sum); err != nil {
		t.Fatal(err)
	}
	if !sum.Done || sum.Stats.Points != 40 {
		t.Errorf("terminal meta %+v", sum)
	}
	var colMags, colFreqs []float64
	for _, blk := range blocks[:len(blocks)-1] {
		cols := map[string][]float64{}
		for _, c := range blk.Columns {
			cols[c.Name] = c.Values
		}
		for _, name := range []string{"freq", "z_re", "z_im", "z_mag"} {
			if cols[name] == nil {
				t.Fatalf("row block missing column %q", name)
			}
		}
		colMags = append(colMags, cols["z_mag"]...)
		colFreqs = append(colFreqs, cols["freq"]...)
	}
	if len(colMags) != len(jsonMags) {
		t.Fatalf("columnar carries %d rows, JSON %d", len(colMags), len(jsonMags))
	}
	for i := range colMags {
		if colMags[i] != jsonMags[i] || colFreqs[i] != jsonFreqs[i] {
			t.Errorf("row %d: columnar (%g, %g) vs JSON (%g, %g)",
				i, colFreqs[i], colMags[i], jsonFreqs[i], jsonMags[i])
		}
	}
}

// TestImpedanceNDJSONEndsFailedStreamWithError: a record that cannot be
// encoded (NaN |Z|) ends the stream with the {"error":…} terminal record
// after every line before it — never a 200 that silently stops.
func TestImpedanceNDJSONEndsFailedStreamWithError(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	prof := &pdn.Profile{}
	for i := 0; i < 70; i++ {
		prof.Points = append(prof.Points, pdn.Point{Freq: float64(i+1) * 1e6, Z: complex(0.01, float64(i)), AbsZ: 0.5})
	}
	prof.Points[66].AbsZ = math.NaN()
	rec := httptest.NewRecorder()
	s.writeImpedanceNDJSON(rec, prof, impedanceStats{Points: 70})

	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	lines := bytes.Split(bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n")), []byte("\n"))
	if len(lines) != 67 {
		t.Fatalf("%d lines, want 66 records + error:\n%s", len(lines), rec.Body.Bytes())
	}
	for i, line := range lines[:66] {
		var pt impedancePoint
		if err := json.Unmarshal(line, &pt); err != nil || pt.Freq != prof.Points[i].Freq {
			t.Fatalf("line %d: %s (%v)", i, line, err)
		}
	}
	if want := `{"error":{"code":"invalid_request","message":"json: unsupported value: NaN"}}`; string(lines[66]) != want {
		t.Errorf("terminal record %s, want %s", lines[66], want)
	}
}

// TestImpedanceOptimize: the service smoke of the acceptance criterion —
// optimize mode must lower peak |Z| and report the greedy steps.
func TestImpedanceOptimize(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/impedance",
		`{"rows":3,"cols":3,"pads":4,"mode":"optimize","points":60,"decap_c":2e-9,"decap_esr":0.01,"max_decaps":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res impedanceOptimizeResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Placements) == 0 {
		t.Fatal("optimizer placed nothing")
	}
	if !(res.PeakAfter < res.PeakBefore) {
		t.Fatalf("peak did not drop: before %g after %g", res.PeakBefore, res.PeakAfter)
	}
	for i, p := range res.Placements {
		if p.Grad >= 0 {
			t.Errorf("placement %d on non-negative gradient %g", i, p.Grad)
		}
		if !(p.PeakAfter < p.PeakBefore) {
			t.Errorf("placement %d did not lower the peak: %g -> %g", i, p.PeakBefore, p.PeakAfter)
		}
	}
}

// TestImpedanceOptimizeTrials: the optimize handler adds each run's trial
// outcomes to ssnserve_optimize_trials_total, the same counts pdn reports
// for the same spec, and keeps them out of the JSON reply.
func TestImpedanceOptimizeTrials(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/impedance",
		`{"package":"qfp","rows":5,"cols":8,"pads":6,"mode":"optimize","from":1e6,"to":1e10,"points":60,"decap_c":1.5e-9,"decap_esr":5e-3,"max_decaps":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if bytes.Contains(body, []byte("screened")) {
		t.Errorf("trial counts leaked into the reply: %s", body)
	}
	fs, err := spice.FreqGrid(1e6, 1e10, 60, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pdn.OptimizeDecaps(context.Background(), pdn.OptimizeSpec{
		Grid:      pkgmodel.DefaultPDN(pkgmodel.QFP, 5, 8, 6),
		Freqs:     fs,
		DecapC:    1.5e-9,
		DecapESR:  5e-3,
		MaxDecaps: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials.Screened == 0 {
		t.Fatal("reference run screened no trial")
	}
	for outcome, want := range map[string]int{
		"screened": res.Trials.Screened,
		"rejected": res.Trials.Rejected,
		"accepted": res.Trials.Accepted,
	} {
		if got := s.metrics.value("ssnserve_optimize_trials_total", outcome); got != uint64(want) {
			t.Errorf("outcome %s: counter %d, want %d", outcome, got, want)
		}
	}
}

// TestImpedanceValidation: malformed requests draw structured 4xx answers
// from the frozen code registry before any streaming starts.
func TestImpedanceValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSweepPoints: 1000})
	cases := []struct {
		name, body, code, field string
	}{
		{"bad package", `{"package":"dip"}`, CodeInvalidRequest, "package"},
		{"bad mode", `{"mode":"resonate"}`, CodeInvalidRequest, "mode"},
		{"negative rows", `{"rows":-1}`, CodeInvalidRequest, "rows"},
		{"mesh too large", `{"rows":100,"cols":100}`, CodeGridTooLarge, "rows"},
		{"too many points", `{"points":100000}`, CodeGridTooLarge, "points"},
		{"point needs freq", `{"mode":"point"}`, CodeInvalidRequest, "freq"},
		{"bad grid range", `{"from":1e9,"to":1e6}`, CodeInvalidRequest, ""},
		{"sites need optimize", `{"decap_sites":[0]}`, CodeInvalidRequest, "decap_sites"},
		{"site out of range", `{"mode":"optimize","points":4,"decap_sites":[99]}`, CodeInvalidRequest, "decap_sites"},
		{"duplicate site", `{"mode":"optimize","points":4,"decap_sites":[3,5,3]}`, CodeInvalidRequest, "decap_sites"},
		{"negative max_decaps", `{"mode":"optimize","points":4,"max_decaps":-1}`, CodeInvalidRequest, "max_decaps"},
		{"negative decap_c", `{"mode":"optimize","points":4,"decap_c":-1e-9}`, CodeInvalidRequest, "decap_c"},
		{"negative decap_esr", `{"mode":"optimize","points":4,"decap_esr":-5e-3}`, CodeInvalidRequest, "decap_esr"},
		{"sens in optimize", `{"mode":"optimize","points":4,"with_sens":true}`, CodeInvalidRequest, "with_sens"},
		{"trailing garbage", `{"rows":2} x`, CodeInvalidRequest, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/impedance", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			var env struct {
				Error apiError `json:"error"`
			}
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatal(err)
			}
			if env.Error.Code != tc.code {
				t.Errorf("code %q, want %q: %s", env.Error.Code, tc.code, body)
			}
			if env.Error.Field != tc.field {
				t.Errorf("field %q, want %q: %s", env.Error.Field, tc.field, body)
			}
		})
	}
}

// TestImpedanceColumnarSensRejected: sensitivity output has no columnar
// encoding, so the combination is refused before streaming.
func TestImpedanceColumnarSensRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSONAccept(t, ts.URL+"/v1/impedance",
		`{"rows":2,"cols":2,"with_sens":true,"points":4}`, colwire.ContentType)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(CodeInvalidRequest)) {
		t.Errorf("unexpected error body: %s", body)
	}
}

// TestImpedanceMetricsExposition: the Prometheus text surface must carry
// the impedance counters after traffic.
func TestImpedanceMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/impedance", `{"rows":2,"cols":2,"freq":1e8}`)
	postJSON(t, ts.URL+"/v1/impedance", `{"rows":2,"cols":2,"points":8}`)
	_, metrics := getURL(t, ts.URL+"/metrics")
	for _, want := range []string{
		`ssnserve_impedance_total{mode="point"} 1`,
		`ssnserve_impedance_total{mode="sweep"} 1`,
		`ssnserve_impedance_points_total 9`,
	} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Errorf("missing %q in metrics exposition", want)
		}
	}
}

// TestProfileKeyDistinguishes: every request knob that changes the result
// must change the key; knobs that do not (worker count) must not appear.
func TestProfileKeyDistinguishes(t *testing.T) {
	base := func() *pkgmodel.PDNGrid { return pkgmodel.DefaultPDN(pkgmodel.PGA, 3, 3, 4) }
	logF, err := spice.FreqGrid(1e6, 1e10, 20, true)
	if err != nil {
		t.Fatal(err)
	}
	linF, err := spice.FreqGrid(1e6, 1e10, 20, false)
	if err != nil {
		t.Fatal(err)
	}
	ref := profileKey(base(), logF, false)
	if got := profileKey(base(), logF, false); got != ref {
		t.Fatal("identical inputs produced different keys")
	}
	variants := map[string]string{
		"with_sens": profileKey(base(), logF, true),
		"linear":    profileKey(base(), linF, false),
		"package": profileKey(
			pkgmodel.DefaultPDN(pkgmodel.QFP, 3, 3, 4), logF, false),
		"rows": profileKey(pkgmodel.DefaultPDN(pkgmodel.PGA, 4, 3, 4), logF, false),
		"pads": profileKey(pkgmodel.DefaultPDN(pkgmodel.PGA, 3, 3, 2), logF, false),
		"points": func() string {
			f, err := spice.FreqGrid(1e6, 1e10, 21, true)
			if err != nil {
				t.Fatal(err)
			}
			return profileKey(base(), f, false)
		}(),
		"decap": func() string {
			g := base()
			g.DecapSites = append(g.DecapSites, pkgmodel.DecapSite{Node: 1, C: 1e-9, ESR: 5e-3})
			return profileKey(g, logF, false)
		}(),
	}
	seen := map[string]string{ref: "base"}
	for name, key := range variants {
		if prev, dup := seen[key]; dup {
			t.Errorf("variant %q collides with %q", name, prev)
		}
		seen[key] = name
	}
}

// TestImpedanceProfileCached: repeated identical sweeps hit the cache (the
// second response must be byte-identical without re-solving), a request
// differing only in workers still hits, and a different grid misses. The
// exposition carries the outcome counters.
func TestImpedanceProfileCached(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const body = `{"rows":3,"cols":3,"pads":4,"points":24,"workers":1}`
	_, first := postJSON(t, ts.URL+"/v1/impedance", body)
	resp, second := postJSON(t, ts.URL+"/v1/impedance", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, second)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("cached sweep response differs from the first")
	}
	outcomes := func() (misses, hits uint64) {
		return s.metrics.value("ssnserve_impedance_cache_total", "miss"),
			s.metrics.value("ssnserve_impedance_cache_total", "hit")
	}
	if misses, hits := outcomes(); misses != 1 || hits != 1 {
		t.Fatalf("after identical sweeps: %d misses + %d hits, want 1 + 1", misses, hits)
	}
	// Worker count shapes the run, not the result: still a hit.
	postJSON(t, ts.URL+"/v1/impedance", `{"rows":3,"cols":3,"pads":4,"points":24,"workers":2}`)
	// A different mesh is a different profile: a miss.
	postJSON(t, ts.URL+"/v1/impedance", `{"rows":2,"cols":3,"pads":4,"points":24}`)
	if misses, hits := outcomes(); misses != 2 || hits != 2 {
		t.Fatalf("%d misses + %d hits, want 2 + 2", misses, hits)
	}
	_, metrics := getURL(t, ts.URL+"/metrics")
	for _, want := range []string{
		`ssnserve_impedance_cache_total{outcome="hit"} 2`,
		`ssnserve_impedance_cache_total{outcome="miss"} 2`,
	} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Errorf("missing %q in metrics exposition", want)
		}
	}
}
