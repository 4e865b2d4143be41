package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"ssnkit/internal/device"
	"ssnkit/internal/ssn"
)

// baseParams is a fixed operating point (no extraction needed): the c018
// fixture every ssn test uses.
func baseParams() ssn.Params {
	return ssn.Params{
		N: 16, Dev: device.ASDM{K: 4e-3, V0: 0.6, A: 1.2},
		Vdd: 1.8, Slope: 1.8e9, L: 2.5e-9 / 2, C: 2e-12,
	}
}

func TestAxisValues(t *testing.T) {
	lin := Axis{Name: AxisL, From: 1, To: 5, Points: 5}
	got := lin.Values()
	for i, want := range []float64{1, 2, 3, 4, 5} {
		if math.Abs(got[i]-want) > 1e-12 {
			t.Errorf("linear[%d] = %g, want %g", i, got[i], want)
		}
	}
	log := Axis{Name: AxisC, From: 1, To: 100, Points: 3, Log: true}
	got = log.Values()
	for i, want := range []float64{1, 10, 100} {
		if math.Abs(got[i]-want)/want > 1e-12 {
			t.Errorf("log[%d] = %g, want %g", i, got[i], want)
		}
	}
	single := Axis{Name: AxisN, From: 7, Points: 1}
	if vs := single.Values(); len(vs) != 1 || vs[0] != 7 {
		t.Errorf("single-point axis: %v", vs)
	}
	// Endpoints must be exact, not accumulated.
	wide := Axis{Name: AxisL, From: 1e-10, To: 3.3e-8, Points: 17}
	vs := wide.Values()
	if vs[0] != 1e-10 || vs[16] != 3.3e-8 {
		t.Errorf("endpoints drifted: %g, %g", vs[0], vs[16])
	}
}

func TestGridValidation(t *testing.T) {
	base := baseParams()
	discard := func(Point) error { return nil }
	cases := []struct {
		name string
		grid Grid
	}{
		{"no axes", Grid{Base: base}},
		{"unknown axis", Grid{Base: base, Axes: []Axis{{Name: "zz", From: 1, To: 2, Points: 3}}}},
		{"zero points", Grid{Base: base, Axes: []Axis{{Name: AxisN, From: 1, To: 2}}}},
		{"reversed range", Grid{Base: base, Axes: []Axis{{Name: AxisN, From: 5, To: 2, Points: 3}}}},
		{"log nonpositive", Grid{Base: base, Axes: []Axis{{Name: AxisC, From: 0, To: 1, Points: 3, Log: true}}}},
		{"duplicate axis", Grid{Base: base, Axes: []Axis{
			{Name: AxisL, From: 1e-9, To: 2e-9, Points: 2},
			{Name: AxisL, From: 1e-9, To: 2e-9, Points: 2}}}},
		{"tr and slope", Grid{Base: base, Axes: []Axis{
			{Name: AxisRise, From: 1e-10, To: 1e-9, Points: 2},
			{Name: AxisSlope, From: 1e9, To: 2e9, Points: 2}}}},
		// 1000003 x 1000033 x 1000037 x 19 points wraps Total to
		// 554642953479517981: without the check the engine would run a
		// different grid under this spec.
		{"point count overflows int", Grid{Base: base, Axes: []Axis{
			{Name: AxisN, From: 1, To: 64, Points: 1000003},
			{Name: AxisL, From: 1e-9, To: 2e-9, Points: 1000033},
			{Name: AxisC, From: 1e-12, To: 2e-12, Points: 1000037},
			{Name: AxisSlope, From: 1e9, To: 2e9, Points: 19}}}},
	}
	for _, tc := range cases {
		if err := tc.grid.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the grid", tc.name)
		}
		if _, err := Run(context.Background(), tc.grid, Config{}, discard); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	g := Grid{Base: base, Axes: []Axis{{Name: AxisN, From: 1, To: 4, Points: 2}}}
	if _, err := Run(context.Background(), g, Config{}, nil); err == nil {
		t.Error("nil sink: expected error")
	}
}

// TestBruteForceCrossCheck compares the chunked parallel engine against a
// plain nested loop over the same grid: identical values, identical
// row-major order.
func TestBruteForceCrossCheck(t *testing.T) {
	g := Grid{
		Base: baseParams(),
		Axes: []Axis{
			{Name: AxisN, From: 2, To: 23, Points: 5},
			{Name: AxisL, From: 0.5e-9, To: 4e-9, Points: 7},
			{Name: AxisC, From: 0.1e-12, To: 20e-12, Points: 6, Log: true},
		},
	}
	var got []Point
	stats, err := Run(context.Background(), g, Config{Workers: 4, ChunkSize: 13},
		func(pt Point) error {
			// Points are only valid during the sink call; copy to retain.
			pt.Index = append([]int(nil), pt.Index...)
			pt.Values = append([]float64(nil), pt.Values...)
			got = append(got, pt)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if stats.GridPoints != 5*7*6 || stats.Evaluated != 5*7*6 || stats.Errors != 0 {
		t.Fatalf("stats: %+v", stats)
	}
	if len(got) != 5*7*6 {
		t.Fatalf("delivered %d points", len(got))
	}

	ns := g.Axes[0].Values()
	ls := g.Axes[1].Values()
	cs := g.Axes[2].Values()
	i := 0
	for _, nv := range ns {
		for _, lv := range ls {
			for _, cv := range cs {
				p := g.Base
				p.N = int(math.Round(nv))
				if p.N < 1 {
					p.N = 1
				}
				p.L, p.C = lv, cv
				wantV, wantC, err := ssn.MaxSSN(p)
				if err != nil {
					t.Fatalf("brute force at %d: %v", i, err)
				}
				pt := got[i]
				if pt.Values[0] != nv || pt.Values[1] != lv || pt.Values[2] != cv {
					t.Fatalf("point %d out of order: %v", i, pt.Values)
				}
				if pt.VMax != wantV || pt.Case != wantC {
					t.Fatalf("point %d: engine (%g, %v) != brute force (%g, %v)",
						i, pt.VMax, pt.Case, wantV, wantC)
				}
				if q, err := g.Params(pt.Values, nil); err != nil || q.N != p.N {
					t.Fatalf("point %d: N rounded to %d (%v), want %d", i, q.N, err, p.N)
				}
				i++
			}
		}
	}
}

// TestErrorPointsReportedInPlace sweeps through invalid territory (L <= 0)
// and expects per-point errors, not an aborted run.
func TestErrorPointsReportedInPlace(t *testing.T) {
	g := Grid{
		Base: baseParams(),
		Axes: []Axis{{Name: AxisL, From: -1e-9, To: 2e-9, Points: 4}},
	}
	var okPts, errPts int
	stats, err := Run(context.Background(), g, Config{}, func(pt Point) error {
		if pt.Err != nil {
			errPts++
		} else {
			okPts++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if errPts == 0 || okPts == 0 {
		t.Fatalf("expected a mix of good and bad points, got %d ok / %d err", okPts, errPts)
	}
	if stats.Errors != errPts || stats.Evaluated != okPts+errPts {
		t.Errorf("stats: %+v, want %d errors", stats, errPts)
	}
}

// waitForGoroutines polls until the goroutine count settles back at or
// below the baseline (workers unwind asynchronously after Run returns).
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), base)
}

// TestSinkErrorCancels stops the sweep from the sink and verifies every
// worker goroutine unwinds.
func TestSinkErrorCancels(t *testing.T) {
	base := runtime.NumGoroutine()
	g := Grid{
		Base: baseParams(),
		Axes: []Axis{
			{Name: AxisL, From: 0.5e-9, To: 4e-9, Points: 100},
			{Name: AxisC, From: 0.1e-12, To: 20e-12, Points: 100},
		},
	}
	boom := errors.New("sink full")
	n := 0
	_, err := Run(context.Background(), g, Config{Workers: 8, ChunkSize: 64},
		func(Point) error {
			n++
			if n == 500 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want sink error", err)
	}
	if n != 500 {
		t.Errorf("sink called %d times after error", n)
	}
	waitForGoroutines(t, base)
}

// TestContextCancelMidSweep cancels the context from the sink and checks
// Run returns promptly with ctx.Err() and no leaked goroutines.
func TestContextCancelMidSweep(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := Grid{
		Base: baseParams(),
		Axes: []Axis{
			{Name: AxisL, From: 0.5e-9, To: 4e-9, Points: 200},
			{Name: AxisC, From: 0.1e-12, To: 20e-12, Points: 200},
		},
	}
	n := 0
	_, err := Run(ctx, g, Config{Workers: 8, ChunkSize: 32}, func(Point) error {
		n++
		if n == 100 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitForGoroutines(t, base)
}

// countGate asserts Acquire/Release balance and that concurrency never
// exceeds the worker count.
type countGate struct {
	mu       sync.Mutex
	cur, max int
	acquires int
}

func (g *countGate) Acquire(ctx context.Context) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.cur++
	g.acquires++
	if g.cur > g.max {
		g.max = g.cur
	}
	return nil
}

func (g *countGate) Release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.cur--
}

func TestGateAcquiredPerChunk(t *testing.T) {
	g := Grid{
		Base: baseParams(),
		Axes: []Axis{{Name: AxisC, From: 0.1e-12, To: 20e-12, Points: 64}},
	}
	gate := &countGate{}
	stats, err := Run(context.Background(), g, Config{Workers: 4, ChunkSize: 8, Gate: gate},
		func(Point) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if gate.cur != 0 {
		t.Errorf("gate unbalanced: %d outstanding", gate.cur)
	}
	if gate.acquires != stats.Chunks {
		t.Errorf("acquires %d != chunks %d", gate.acquires, stats.Chunks)
	}
	if gate.max > stats.Workers {
		t.Errorf("concurrency %d exceeded %d workers", gate.max, stats.Workers)
	}
}

// TestRefinementLocality enables adaptive refinement on a sweep that
// crosses a Table 1 case boundary and verifies every refined point lands
// strictly inside a base-grid interval whose endpoint cases differ.
func TestRefinementLocality(t *testing.T) {
	g := Grid{
		Base: baseParams(),
		// C from far below to far above the critical capacitance: the case
		// classification must flip somewhere inside.
		Axes: []Axis{{Name: AxisC, From: 0.01e-12, To: 40e-12, Points: 16}},
	}
	const depth = 3
	var basePts, refined []Point
	stats, err := Run(context.Background(), g, Config{Workers: 2, RefineDepth: depth},
		func(pt Point) error {
			pt.Index = append([]int(nil), pt.Index...)
			pt.Values = append([]float64(nil), pt.Values...)
			if pt.Depth == 0 {
				basePts = append(basePts, pt)
			} else {
				refined = append(refined, pt)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(basePts) != 16 {
		t.Fatalf("base points: %d", len(basePts))
	}

	// Collect the boundary intervals from the base grid.
	type interval struct{ lo, hi float64 }
	var bounds []interval
	for i := 0; i+1 < len(basePts); i++ {
		if basePts[i].Case != basePts[i+1].Case {
			bounds = append(bounds, interval{basePts[i].Values[0], basePts[i+1].Values[0]})
		}
	}
	if len(bounds) == 0 {
		t.Fatal("sweep never crossed a case boundary; fixture is wrong")
	}
	if len(refined) == 0 || stats.RefinedPoints != len(refined) {
		t.Fatalf("refined %d points, stats %+v", len(refined), stats)
	}
	if stats.MaxDepth < 1 || stats.MaxDepth > depth {
		t.Errorf("max depth %d outside [1, %d]", stats.MaxDepth, depth)
	}
	for _, pt := range refined {
		v := pt.Values[0]
		in := false
		for _, b := range bounds {
			if v > b.lo && v < b.hi {
				in = true
				break
			}
		}
		if !in {
			t.Errorf("refined point at C = %g outside every boundary interval %v", v, bounds)
		}
		if pt.Index != nil {
			t.Errorf("refined point carries a grid index: %v", pt.Index)
		}
		if pt.Depth > depth {
			t.Errorf("depth %d exceeds limit %d", pt.Depth, depth)
		}
	}
}

// TestRefinementScansEveryPair runs one refinement level over a grid of
// several scan blocks per axis: every grid-adjacent pair whose cases
// differ yields exactly its midpoint, at one worker and at three.
func TestRefinementScansEveryPair(t *testing.T) {
	g := Grid{
		Base: baseParams(),
		Axes: []Axis{
			{Name: AxisL, From: 0.2e-9, To: 6e-9, Points: 45},
			{Name: AxisC, From: 0.01e-12, To: 40e-12, Points: 61, Log: true},
		},
	}
	if g.Total() <= 2*refineBlock {
		t.Fatalf("grid of %d points spans too few scan blocks", g.Total())
	}
	key := func(vals []float64) string { return fmt.Sprint(vals) }
	for _, workers := range []int{1, 3} {
		cases := map[string]ssn.Case{}
		var base [][]float64
		got := map[string]int{}
		_, err := Run(context.Background(), g, Config{Workers: workers, RefineDepth: 1}, func(pt Point) error {
			vals := append([]float64(nil), pt.Values...)
			switch {
			case pt.Depth > 0:
				got[key(vals)]++
			case pt.Err == nil:
				cases[key(vals)] = pt.Case
				fallthrough
			default:
				base = append(base, vals)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]int{}
		for _, lo := range base {
			for k, ax := range g.Axes {
				vals := ax.Values()
				j := sort.SearchFloat64s(vals, lo[k])
				if j+1 >= len(vals) {
					continue
				}
				hi := append([]float64(nil), lo...)
				hi[k] = vals[j+1]
				cLo, okLo := cases[key(lo)]
				cHi, okHi := cases[key(hi)]
				if !okLo || !okHi || cLo == cHi {
					continue
				}
				mid := append([]float64(nil), lo...)
				mid[k] = midpoint(ax.Log, lo[k], hi[k])
				want[key(mid)]++
			}
		}
		if len(want) == 0 {
			t.Fatal("grid crosses no case boundary; fixture is wrong")
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("workers=%d: refined %d distinct points, want the %d boundary midpoints", workers, len(got), len(want))
		}
	}
}

// TestRefinementIntegerNAxis checks the N axis never refines onto
// already-sampled integers: every refined N is a fresh integer between its
// neighbors.
func TestRefinementIntegerNAxis(t *testing.T) {
	g := Grid{
		Base: baseParams(),
		Axes: []Axis{{Name: AxisN, From: 1, To: 61, Points: 4}}, // 1, 21, 41, 61
	}
	seen := map[int]bool{}
	_, err := Run(context.Background(), g, Config{RefineDepth: 8}, func(pt Point) error {
		if pt.Err != nil {
			t.Fatalf("unexpected point error: %v", pt.Err)
		}
		n := DriverCount(pt.Values[0])
		if pt.Depth > 0 && seen[n] {
			t.Errorf("refinement re-evaluated N = %d", n)
		}
		seen[n] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSizeAxisUsesExtract verifies a size axis routes through the
// configured ExtractFunc exactly once per distinct width.
func TestSizeAxisUsesExtract(t *testing.T) {
	var mu sync.Mutex
	calls := map[float64]int{}
	g := Grid{
		Base: baseParams(),
		Axes: []Axis{
			{Name: AxisSize, From: 1, To: 4, Points: 4},
			{Name: AxisC, From: 0.5e-12, To: 8e-12, Points: 5},
		},
		Spec: device.ExtractSpec{Process: "c018"},
	}
	cfg := Config{
		Workers: 4,
		Extract: func(spec device.ExtractSpec) (device.ASDM, error) {
			mu.Lock()
			calls[spec.Size]++
			mu.Unlock()
			m, _, err := spec.Extract()
			return m, err
		},
	}
	var pts int
	if _, err := Run(context.Background(), g, cfg, func(pt Point) error {
		if pt.Err != nil {
			t.Fatalf("point error: %v", pt.Err)
		}
		pts++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if pts != 20 {
		t.Fatalf("delivered %d points", pts)
	}
	if len(calls) != 4 {
		t.Fatalf("extracted %d distinct sizes, want 4", len(calls))
	}
	for sz, n := range calls {
		if n != 1 {
			t.Errorf("size %g extracted %d times; memoization failed", sz, n)
		}
	}
}
