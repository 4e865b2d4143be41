package sweep

import (
	"context"
	"errors"
	"testing"
)

// collectRange gathers the (index-ordered) emitted points of a range run,
// copying the pooled Values slices.
func collectRange(t *testing.T, g Grid, cfg Config, lo, hi int) []Point {
	t.Helper()
	var pts []Point
	sink := func(c *Chunk) error {
		for _, pt := range c.Points {
			pt.Values = append([]float64(nil), pt.Values...)
			pts = append(pts, pt)
		}
		return nil
	}
	if _, err := RunRangeChunks(context.Background(), g, cfg, lo, hi, sink); err != nil {
		t.Fatalf("RunRangeChunks[%d,%d): %v", lo, hi, err)
	}
	return pts
}

// TestRunRangeChunksConcatEqualsFullRun pins the sharding invariant: any
// partition of [0, Total()) into contiguous ranges, evaluated separately
// (with different worker/chunk settings), concatenates to exactly the
// full-run point sequence.
func TestRunRangeChunksConcatEqualsFullRun(t *testing.T) {
	g := Grid{
		Base: baseParams(),
		Axes: []Axis{
			{Name: AxisN, From: 1, To: 40, Points: 20},
			{Name: AxisL, From: 1e-9, To: 8e-9, Points: 13},
		},
	}
	total := g.Total()

	var full []Point
	sink := func(pt Point) error {
		pt.Values = append([]float64(nil), pt.Values...)
		full = append(full, pt)
		return nil
	}
	if _, err := Run(context.Background(), g, Config{Workers: 3, ChunkSize: 17}, sink); err != nil {
		t.Fatal(err)
	}
	if len(full) != total {
		t.Fatalf("full run emitted %d points, want %d", len(full), total)
	}

	// Uneven partition with varied engine settings per range.
	bounds := []int{0, 7, 64, 65, 200, total}
	var merged []Point
	for i := 0; i+1 < len(bounds); i++ {
		cfg := Config{Workers: 1 + i, ChunkSize: 5 * (i + 1)}
		merged = append(merged, collectRange(t, g, cfg, bounds[i], bounds[i+1])...)
	}
	if len(merged) != total {
		t.Fatalf("merged ranges emitted %d points, want %d", len(merged), total)
	}
	for i := range full {
		a, b := full[i], merged[i]
		if a.VMax != b.VMax || a.Case != b.Case || (a.Err == nil) != (b.Err == nil) {
			t.Fatalf("point %d diverges: full {%g %v} vs merged {%g %v}", i, a.VMax, a.Case, b.VMax, b.Case)
		}
		for k := range a.Values {
			if a.Values[k] != b.Values[k] {
				t.Fatalf("point %d axis %d: %g vs %g", i, k, a.Values[k], b.Values[k])
			}
		}
	}
}

func TestRunRangeChunksRejects(t *testing.T) {
	g := Grid{Base: baseParams(), Axes: []Axis{{Name: AxisN, From: 1, To: 8, Points: 8}}}
	discard := func(*Chunk) error { return nil }

	if _, err := RunRangeChunks(context.Background(), g, Config{}, 0, 8, nil); err == nil {
		t.Error("nil sink: expected error")
	}
	if _, err := RunRangeChunks(context.Background(), g, Config{RefineDepth: 1}, 0, 8, discard); err == nil {
		t.Error("refinement: expected error (unspecified point order cannot shard)")
	}
	for _, r := range [][2]int{{-1, 4}, {0, 9}, {5, 4}} {
		if _, err := RunRangeChunks(context.Background(), g, Config{}, r[0], r[1], discard); err == nil {
			t.Errorf("range [%d,%d): expected error", r[0], r[1])
		}
	}
	// Empty range is valid and hands the sink nothing.
	n := 0
	if _, err := RunRangeChunks(context.Background(), g, Config{}, 3, 3, func(*Chunk) error { n++; return nil }); err != nil {
		t.Errorf("empty range: %v", err)
	}
	if n != 0 {
		t.Errorf("empty range emitted %d chunks", n)
	}
}

// TestValidateDomain pins the static domain checks the streaming endpoints
// run before committing to a 200: axes whose range provably contains
// invalid points are rejected up front, while Validate stays permissive
// (per-point errors in place remain the engine contract).
func TestValidateDomain(t *testing.T) {
	base := baseParams()
	bad := []Grid{
		{Base: base, Axes: []Axis{{Name: AxisL, From: 0, To: 2e-9, Points: 4}}},
		{Base: base, Axes: []Axis{{Name: AxisL, From: -1e-9, To: 2e-9, Points: 4}}},
		{Base: base, Axes: []Axis{{Name: AxisSlope, From: -1e9, To: 2e9, Points: 4}}},
		{Base: base, Axes: []Axis{{Name: AxisRise, From: -1e-9, To: 1e-9, Points: 4}}},
		{Base: base, Axes: []Axis{{Name: AxisC, From: -1e-12, To: 1e-12, Points: 4}}},
	}
	for i, g := range bad {
		err := g.ValidateDomain()
		if err == nil {
			t.Errorf("grid %d: ValidateDomain accepted an invalid domain", i)
			continue
		}
		var de *DomainError
		if !errors.As(err, &de) {
			t.Errorf("grid %d: error %v is not a DomainError", i, err)
		}
		// The permissive structural check still accepts these ranges.
		if err := g.Validate(); err != nil {
			t.Errorf("grid %d: Validate rejected a structurally sound grid: %v", i, err)
		}
	}
	good := Grid{Base: base, Axes: []Axis{
		{Name: AxisL, From: 1e-10, To: 2e-9, Points: 4},
		{Name: AxisC, From: 0, To: 1e-12, Points: 4}, // C = 0 is the L-only model
	}}
	if err := good.ValidateDomain(); err != nil {
		t.Errorf("valid domain rejected: %v", err)
	}
}
