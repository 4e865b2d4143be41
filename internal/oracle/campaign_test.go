package oracle

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
)

// stubResult is an injected oracle result, so the campaign runner can be
// driven without simulation.
type stubResult struct {
	verdict
	Point int `json:"-"`
}

func (r stubResult) tally() (string, float64) { return "", 0 }

func (r stubResult) String() string { return r.status() }

// TestCampaignDumpsPastErroredPoints: an infrastructure error ahead of a
// genuine disagreement must not suppress the disagreement's repro, and
// the report lists both while only counting the skipped point.
func TestCampaignDumpsPastErroredPoints(t *testing.T) {
	stub := campaign[int, stubResult, *stubResult]{
		title:    "stub campaign",
		prefix:   "stub",
		generate: func(_ int64, i int) (int, bool) { return i, true },
		checker: func() func(int) stubResult {
			return func(pt int) stubResult {
				res := stubResult{Point: pt}
				switch pt {
				case 0:
					res.Err = errors.New("no convergence")
				case 1: // a disagreement
				case 3:
					res.Skipped, res.Detail = true, "outside the reference"
				default:
					res.Pass = true
				}
				return res
			}
		},
		schedule: func(int) []edit[int] { return nil },
	}
	dir := t.TempDir()
	rep, err := stub.run(context.Background(), Config{Points: 5, Seed: 1, Workers: 2, ReproDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := `stub campaign: 5 points, 2 pass, 1 fail, 1 error, 1 skip, worst rel 0
  #0 ERROR no convergence
  #1 FAIL
  repro: stub-seed1-1`
	if got := rep.String(); got != want {
		t.Fatalf("report:\n%s\nwant:\n%s", got, want)
	}
	if pt, err := LoadRepro[int](filepath.Join(dir, "stub-seed1-1.json")); err != nil || pt != 1 {
		t.Fatalf("repro holds point %d (%v), want 1", pt, err)
	}
}

// shrinkMinimal drives one oracle's shrink schedule with a synthetic
// predicate through the shrink driver. The result must still fail, and no
// edit of the schedule may leave a smaller point that still fails.
func shrinkMinimal[P any](t *testing.T, pt P, fails func(P) bool, schedule func(P) []edit[P]) P {
	t.Helper()
	small := shrinkBy(pt, fails, schedule(pt))
	if !fails(small) {
		t.Fatalf("shrunk point %+v no longer fails", small)
	}
	for k, e := range schedule(pt) {
		if cand, ok := e(small); ok && fails(cand) {
			t.Errorf("edit %d shrinks %+v further to the failing %+v", k, small, cand)
		}
	}
	return small
}

func TestShrinkSchedules(t *testing.T) {
	t.Run("transient", func(t *testing.T) {
		pt := DesignPoint{N: 37, L: 5.123456e-9, C: 8.7654e-12, K: 4.00049e-3, V0: 0.61234, A: 1.3, Slope: 2.54321e9, Vdd: 2.5}
		small := shrinkMinimal(t, pt, func(p DesignPoint) bool { return p.N >= 3 }, shrinkSchedule)
		want := DesignPoint{N: 3, L: roundSig(pt.L, 3), K: roundSig(pt.K, 3), V0: roundSig(pt.V0, 3),
			A: 1, Slope: roundSig(pt.Slope, 3), Vdd: 2.5}
		if small != want {
			t.Errorf("shrunk to %s, want %s", small, want)
		}
		// A failure that needs some pad capacitance keeps at most 8
		// halvings of it.
		small = shrinkMinimal(t, pt, func(p DesignPoint) bool { return p.C >= 1e-12 }, shrinkSchedule)
		if small.N != 1 || small.C != roundSig(pt.C/8, 3) {
			t.Errorf("shrunk to %s, want N=1 and C=%.3g", small, pt.C/8)
		}
	})
	t.Run("ac", func(t *testing.T) {
		pt := seriesRLCPoint()
		pt.Freq = 51.234567e6
		pt.Elems = append(pt.Elems, ACElem{Kind: "R", N1: 1, N2: 0, Value: 1234.5678})
		pt.Elems[1].Value = 5.4321e-9
		hasL := func(p ACPoint) bool {
			for _, el := range p.Elems {
				if el.Kind == "L" {
					return true
				}
			}
			return false
		}
		small := shrinkMinimal(t, pt, hasL, acSchedule)
		if len(small.Elems) != 1 || small.Elems[0].Value != roundSig(5.4321e-9, 3) || small.Freq != roundSig(pt.Freq, 3) {
			t.Errorf("shrunk to %+v, want one 5.43 nH inductor at 51.2 MHz", small)
		}
		if len(pt.Elems) != 4 || pt.Elems[1].Value != 5.4321e-9 {
			t.Errorf("shrinking modified the input point: %+v", pt)
		}
	})
	t.Run("rank1", func(t *testing.T) {
		pt := Rank1Point{Package: "pga", Rows: 6, Cols: 5, Pads: 4, Node: 29,
			R: 1.23456e-3, C: 4.5678e-9, Freq: 1.23456e8, Gmin: 1.2345e-9}
		small := shrinkMinimal(t, pt, func(p Rank1Point) bool { return p.Rows*p.Cols >= 6 }, rank1Schedule)
		want := Rank1Point{Package: "pga", Rows: 2, Cols: 3, Pads: 1, Node: small.Node,
			R: 1.23e-3, C: 4.57e-9, Freq: 1.23e8}
		if small != want || small.Node >= 6 {
			t.Errorf("shrunk to %s, want %s with the node in range", small, want)
		}
	})
}
