package serve

import (
	"bytes"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"ssnkit/internal/colwire"
)

var updateNDJSONGolden = flag.Bool("update-ndjson", false, "rewrite the testdata/*.ndjson and *.ssnc stream goldens from a fresh run")

// checkGolden compares a reply body with testdata/<name> byte for byte,
// first rewriting the file from got when update is set.
func checkGolden(t *testing.T, name string, got []byte, update bool) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("body differs from %s (rerun with its -update-* flag to inspect):\n%s", golden, got)
	}
}

// TestSweepRefineGolden pins the /v1/sweep bytes of a refined sweep, as
// NDJSON and as SSNC blocks: depth >= 1 records (which dist never emits,
// so TestSweepNDJSONMatchesEvalRange cannot cover them), the rounded n
// axis, and a log c axis whose values all print in exponent form. One
// worker makes the order of the refined records deterministic.
func TestSweepRefineGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const req = `{
		"params": {"dev": {"k": 0.004, "v0": 0.6, "a": 1.2}, "vdd": 1.8,
		           "l": 1.25e-9, "rise_time": 1e-9},
		"axes": [{"axis": "n", "from": 4, "to": 30, "points": 3},
		         {"axis": "c", "from": 1e-14, "to": 4e-11, "points": 6, "log": true}],
		"refine_depth": 3, "workers": 1}`
	for _, tc := range []struct{ golden, accept string }{
		{"sweep_refine.ndjson", "application/x-ndjson"},
		{"sweep_refine.ssnc", colwire.ContentType},
	} {
		resp, body := postJSONAccept(t, ts.URL+"/v1/sweep", req, tc.accept)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.golden, resp.StatusCode, body)
		}
		if tc.accept != colwire.ContentType && !bytes.Contains(body, []byte(`"depth":3`)) {
			t.Fatalf("no depth-3 records in the stream:\n%s", body)
		}
		checkGolden(t, tc.golden, body, *updateNDJSONGolden)
	}
}

// TestImpedanceNDJSONGolden pins the /v1/impedance sweep records byte for
// byte: plain and with adjoint sensitivities as NDJSON, and the plain
// sweep again as SSNC blocks.
func TestImpedanceNDJSONGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const sweepReq = `{"rows":3,"cols":3,"pads":4,"from":1e6,"to":1e10,"points":12,"workers":1}`
	for _, tc := range []struct{ golden, accept, body string }{
		{"impedance_sweep.ndjson", "application/x-ndjson", sweepReq},
		{"impedance_sens.ndjson", "application/x-ndjson",
			`{"rows":2,"cols":2,"pads":2,"from":1e7,"to":1e9,"points":3,"with_sens":true,"workers":1}`},
		{"impedance_sweep.ssnc", colwire.ContentType, sweepReq},
	} {
		resp, body := postJSONAccept(t, ts.URL+"/v1/impedance", tc.body, tc.accept)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.golden, resp.StatusCode, body)
		}
		checkGolden(t, tc.golden, body, *updateNDJSONGolden)
	}
}
