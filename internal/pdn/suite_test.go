package pdn

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ssnkit/internal/pkgmodel"
	"ssnkit/internal/spice"
)

var updateSuiteGolden = flag.Bool("update-optsuite", false, "rewrite testdata/optimize_suite.golden from a fresh run")

// suiteRequest is one member of the optimize benchmark suite: the same
// mesh, package, pads, unit decap and budget the benchmark's optimize
// workload sends to /v1/impedance, which resolves them through
// pkgmodel.DefaultPDN and a 60-point log grid from 1 MHz to 10 GHz.
type suiteRequest struct {
	pkg        string
	rows, cols int
	pads       int
	decapC     float64
	maxDecaps  int
}

func (r suiteRequest) String() string {
	return fmt.Sprintf("%s-%dx%d pads=%d decap_c=%g max_decaps=%d",
		r.pkg, r.rows, r.cols, r.pads, r.decapC, r.maxDecaps)
}

// optimizeSuite lists the 25 requests of the optimize benchmark suite, one
// per mesh size from 4x4 to 8x8, with package, pads, decap_c and
// max_decaps spread over the sizes Latin-square style.
func optimizeSuite() []suiteRequest {
	const sides = 5
	packages := []string{"pga", "qfp", "bga", "cob"}
	var suite []suiteRequest
	for cell := 0; cell < sides*sides; cell++ {
		i, j := cell/sides, cell%sides
		suite = append(suite, suiteRequest{
			pkg:       packages[(i+j)%len(packages)],
			rows:      4 + i,
			cols:      4 + j,
			pads:      2 + (i+2*j)%5,
			decapC:    1e-9 * (1 + float64((3*i+j)%5)/4),
			maxDecaps: 2 + (2*i+j)%3,
		})
	}
	return suite
}

// runSuiteRequest runs one suite member at the given worker count.
func runSuiteRequest(t testing.TB, r suiteRequest, workers int) *OptimizeResult {
	t.Helper()
	pkg, err := pkgmodel.ByName(r.pkg)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := spice.FreqGrid(1e6, 1e10, 60, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := OptimizeDecaps(context.Background(), OptimizeSpec{
		Grid:      pkgmodel.DefaultPDN(pkg, r.rows, r.cols, r.pads),
		Freqs:     fs,
		DecapC:    r.decapC,
		DecapESR:  5e-3,
		MaxDecaps: r.maxDecaps,
		Config:    Config{Workers: workers},
	})
	if err != nil {
		t.Fatalf("%s: %v", r, err)
	}
	return res
}

// TestOptimizeSuiteGolden pins every request of the optimize benchmark
// suite bit for bit (pinnedOptDigest: peaks, every Placement field, the
// final |Z| digest) at 1 and 3 workers against one golden file. Outputs
// must not depend on the worker count, so both runs compare against the
// same text. Regenerate with
// go test ./internal/pdn -run TestOptimizeSuiteGolden -update-optsuite.
func TestOptimizeSuiteGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("25-request optimize suite")
	}
	golden := filepath.Join("testdata", "optimize_suite.golden")
	for _, workers := range []int{1, 3} {
		var b strings.Builder
		for _, r := range optimizeSuite() {
			fmt.Fprintf(&b, "== %s\n%s\n", r, pinnedOptDigest(runSuiteRequest(t, r, workers)))
		}
		got := b.String()
		if *updateSuiteGolden && workers == 1 {
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("workers=%d: optimize suite bits moved from %s:\n%s", workers, golden, lineDiff(string(want), got))
		}
	}
}

// lineDiff lists the lines where two texts of equal layout differ.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  want %s\n  got  %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}

// TestOptimizeSuiteTrials pins how the suite's 426 trials end: the rank-1
// screen rejects all 388 rejected trials before they build an engine, so
// the exact bounded sweep rejects none, and 38 are accepted.
func TestOptimizeSuiteTrials(t *testing.T) {
	if testing.Short() {
		t.Skip("25-request optimize suite")
	}
	var got TrialCounts
	for _, r := range optimizeSuite() {
		tr := runSuiteRequest(t, r, 1).Trials
		got.Screened += tr.Screened
		got.Rejected += tr.Rejected
		got.Accepted += tr.Accepted
	}
	if want := (TrialCounts{Screened: 388, Rejected: 0, Accepted: 38}); got != want {
		t.Errorf("suite trials %+v, want %+v", got, want)
	}
}
