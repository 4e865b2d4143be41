package sweep

import (
	"context"
	"math"
	"testing"

	"ssnkit/internal/device"
	"ssnkit/internal/ssn"
)

// TestPlanPathMatchesScalarAllAxes is the byte-identity golden test for the
// batched chunk path: for every inner-axis kind — including a rise-time
// axis with invalid (negative) values, an L axis straddling zero, an n axis
// the engine must round and clamp, and a size axis, which has no batch
// kernel — the engine's output must match the scalar Grid.Params+MaxSSN
// reference bit for bit, errors included.
func TestPlanPathMatchesScalarAllAxes(t *testing.T) {
	base := baseParams()
	grids := map[string]Grid{
		"inner n": {Base: base, Axes: []Axis{
			{Name: AxisC, From: 0.1e-12, To: 20e-12, Points: 4, Log: true},
			{Name: AxisN, From: 1, To: 64, Points: 9},
		}},
		"inner l with invalid": {Base: base, Axes: []Axis{
			{Name: AxisN, From: 2, To: 23, Points: 3},
			{Name: AxisL, From: -1e-9, To: 4e-9, Points: 11},
		}},
		"inner c": {Base: base, Axes: []Axis{
			{Name: AxisL, From: 0.5e-9, To: 4e-9, Points: 5},
			{Name: AxisC, From: 0.01e-12, To: 40e-12, Points: 13, Log: true},
		}},
		"inner slope": {Base: base, Axes: []Axis{
			{Name: AxisC, From: 0.1e-12, To: 20e-12, Points: 4},
			{Name: AxisSlope, From: 2e8, To: 2e10, Points: 9, Log: true},
		}},
		"inner tr with invalid": {Base: base, Axes: []Axis{
			{Name: AxisN, From: 1, To: 32, Points: 3},
			{Name: AxisRise, From: -0.2e-9, To: 2e-9, Points: 12},
		}},
		"single axis c": {Base: base, Axes: []Axis{
			{Name: AxisC, From: 0, To: 40e-12, Points: 17},
		}},
		// -2, -1.5, …, 3.5: values below 1 clamp to one driver and
		// half-integers round away from zero.
		"inner n rounding": {Base: base, Axes: []Axis{
			{Name: AxisL, From: 0.5e-9, To: 4e-9, Points: 3},
			{Name: AxisN, From: -2, To: 3.5, Points: 12},
		}},
		"single axis n": {Base: base, Axes: []Axis{
			{Name: AxisN, From: 0.25, To: 40.5, Points: 24},
		}},
		"inner size": {Base: base, Spec: device.ExtractSpec{Process: "c018"}, Axes: []Axis{
			{Name: AxisC, From: 0.1e-12, To: 20e-12, Points: 3},
			{Name: AxisSize, From: 1, To: 4, Points: 4},
		}},
	}
	for name, g := range grids {
		t.Run(name, func(t *testing.T) {
			ref := newEngine(g, Config{})
			i := 0
			_, err := Run(context.Background(), g, Config{Workers: 3, ChunkSize: 7},
				func(pt Point) error {
					flat := ref.flat(pt.Index)
					if flat != i {
						t.Fatalf("point %d arrived out of order (flat %d)", i, flat)
					}
					p, perr := g.Params(pt.Values, nil)
					switch {
					case perr != nil:
						if pt.Err == nil || pt.Err.Error() != perr.Error() {
							t.Fatalf("point %d: engine err %v, scalar err %v", i, pt.Err, perr)
						}
					default:
						want, wantCase, merr := ssn.MaxSSN(p)
						if merr != nil {
							if pt.Err == nil || pt.Err.Error() != merr.Error() {
								t.Fatalf("point %d: engine err %v, scalar err %v", i, pt.Err, merr)
							}
							break
						}
						if pt.Err != nil {
							t.Fatalf("point %d: unexpected engine error %v", i, pt.Err)
						}
						if math.Float64bits(pt.VMax) != math.Float64bits(want) {
							t.Fatalf("point %d: engine vmax %v (%#x) != scalar %v (%#x)",
								i, pt.VMax, math.Float64bits(pt.VMax), want, math.Float64bits(want))
						}
						if pt.Case != wantCase {
							t.Fatalf("point %d: engine case %v != scalar %v", i, pt.Case, wantCase)
						}
					}
					i++
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if i != g.Total() {
				t.Fatalf("delivered %d of %d points", i, g.Total())
			}
		})
	}
}

// TestChunkLoopAllocs is the satellite allocation guard on the sweep side:
// once a chunk buffer exists, evaluating a chunk through the batched path
// must not allocate.
func TestChunkLoopAllocs(t *testing.T) {
	g := Grid{
		Base: baseParams(),
		Axes: []Axis{
			{Name: AxisN, From: 1, To: 64, Points: 8},
			{Name: AxisL, From: 0.2e-9, To: 8e-9, Points: 8},
			{Name: AxisC, From: 0.05e-12, To: 40e-12, Points: 8, Log: true},
		},
	}
	e := newEngine(g, Config{})
	const chunk = 256
	buf := newChunkBuf(chunk, len(g.Axes))
	ctx := context.Background()
	e.evalChunk(ctx, buf, 0, chunk) // warm up
	if got := testing.AllocsPerRun(20, func() {
		e.evalChunk(ctx, buf, 0, chunk)
	}); got != 0 {
		t.Fatalf("evalChunk allocates %v/run, want 0", got)
	}
	// Offset start so the chunk begins mid-run and cuts across runs.
	if got := testing.AllocsPerRun(20, func() {
		e.evalChunk(ctx, buf, 131, 131+chunk)
	}); got != 0 {
		t.Fatalf("offset evalChunk allocates %v/run, want 0", got)
	}
}
