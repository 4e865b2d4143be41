package serve

import (
	"bytes"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

var updateNDJSONGolden = flag.Bool("update-ndjson", false, "rewrite the testdata/*.ndjson goldens from a fresh run")

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

// TestSweepRefineGolden pins the /v1/sweep NDJSON bytes of a refined
// sweep: depth >= 1 records (which dist never emits, so
// TestSweepNDJSONMatchesEvalRange cannot cover them), the rounded n axis,
// and a log c axis whose values all print in exponent form. One worker
// makes the order of the refined records deterministic.
func TestSweepRefineGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/sweep", `{
		"params": {"dev": {"k": 0.004, "v0": 0.6, "a": 1.2}, "vdd": 1.8,
		           "l": 1.25e-9, "rise_time": 1e-9},
		"axes": [{"axis": "n", "from": 4, "to": 30, "points": 3},
		         {"axis": "c", "from": 1e-14, "to": 4e-11, "points": 6, "log": true}],
		"refine_depth": 3, "workers": 1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(`"depth":3`)) {
		t.Fatalf("no depth-3 records in the stream:\n%s", body)
	}
	checkGolden(t, "sweep_refine.ndjson", body, *updateNDJSONGolden)
}

// TestImpedanceNDJSONGolden pins the /v1/impedance sweep records, plain
// and with adjoint sensitivities, byte for byte.
func TestImpedanceNDJSONGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct{ name, body string }{
		{"impedance_sweep.ndjson", `{"rows":3,"cols":3,"pads":4,"from":1e6,"to":1e10,"points":12,"workers":1}`},
		{"impedance_sens.ndjson", `{"rows":2,"cols":2,"pads":2,"from":1e7,"to":1e9,"points":3,"with_sens":true,"workers":1}`},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/impedance", tc.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, resp.StatusCode, body)
		}
		checkGolden(t, tc.name, body, *updateNDJSONGolden)
	}
}
