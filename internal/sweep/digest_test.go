package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"testing"

	"ssnkit/internal/device"
)

// pointRecord spells every field of pt and the parameters Grid.Params
// resolves from its Values (zero when that fails), floats by their bits,
// so two points compare equal only when they are equal bit for bit.
func pointRecord(g Grid, pt Point) string {
	var b []byte
	u := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	f := func(v float64) { u(math.Float64bits(v)) }
	b = append(b, 'I')
	if pt.Index == nil {
		b = append(b, '-')
	}
	for _, i := range pt.Index {
		u(uint64(i))
	}
	b = append(b, 'V')
	for _, v := range pt.Values {
		f(v)
	}
	p, _ := g.Params(pt.Values, nil)
	b = append(b, 'P')
	u(uint64(p.N))
	for _, v := range []float64{p.Dev.K, p.Dev.V0, p.Dev.A, p.Vdd, p.Slope, p.L, p.C, pt.VMax} {
		f(v)
	}
	u(uint64(pt.Case))
	u(uint64(pt.Depth))
	if pt.Err != nil {
		b = append(b, "E"+pt.Err.Error()...)
	}
	return string(b)
}

// digestPoints hashes the records of a stream: base-grid points in the
// order they arrived, then the refined points sorted, since refinement
// order is unspecified past one worker.
func digestPoints(recs []string, refined []string) string {
	sort.Strings(refined)
	h := sha256.New()
	for _, r := range append(recs, refined...) {
		fmt.Fprintf(h, "%d:%s", len(r), r)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// collectRecords runs g through run and returns the base and the refined
// point records.
func collectRecords(t *testing.T, g Grid, run func(func(Point) error) (Stats, error)) (base, refined []string, st Stats) {
	t.Helper()
	st, err := run(func(pt Point) error {
		if pt.Depth == 0 {
			base = append(base, pointRecord(g, pt))
		} else {
			refined = append(refined, pointRecord(g, pt))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return base, refined, st
}

// TestPointStreamDigest pins every field of every point that Run and
// RunRangeChunks deliver — Index, Values, VMax, Case, Depth and the error
// text — and the Params that Grid.Params resolves at it, over grids with
// failed points (an outer rise-time axis through zero, an inner inductance
// axis through zero, a rounded and clamped n axis), a size axis that
// re-extracts the device, and a refined grid, at every chunk size and at
// one and three workers. RunRangeChunks runs each grid in three uneven
// ranges, and their concatenation must carry the same digest. The digests
// were recorded when the engine still resolved each point's Params itself,
// so they also pin Grid.Params to that resolution bit for bit.
func TestPointStreamDigest(t *testing.T) {
	base := baseParams()
	for _, tc := range []struct {
		name   string
		g      Grid
		refine int
		digest string
		errs   int
	}{
		{"failures", Grid{Base: base, Axes: []Axis{
			{Name: AxisRise, From: -0.5e-9, To: 2e-9, Points: 6},
			{Name: AxisN, From: 0.25, To: 12.5, Points: 5},
			{Name: AxisL, From: -1e-9, To: 4e-9, Points: 11},
		}}, 0, "b1729c806d609cb7", 170},
		{"size", Grid{Base: base, Spec: device.ExtractSpec{Process: "c018"}, Axes: []Axis{
			{Name: AxisSize, From: 1, To: 4, Points: 4},
			{Name: AxisC, From: 0.1e-12, To: 20e-12, Points: 5},
			{Name: AxisN, From: 1, To: 33, Points: 3},
		}}, 0, "cb9ecf0abe0a47bd", 0},
		{"refined", Grid{Base: base, Axes: []Axis{
			{Name: AxisN, From: 1, To: 40, Points: 9},
			{Name: AxisC, From: 0.01e-12, To: 40e-12, Points: 16, Log: true},
		}}, 3, "a402a0407359e587", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			total := tc.g.Total()
			check := func(what string, base, refined []string, st Stats) {
				t.Helper()
				if len(base) != total {
					t.Fatalf("%s: %d base points, want %d", what, len(base), total)
				}
				if got := digestPoints(base, refined); got != tc.digest {
					t.Errorf("%s: digest %s, want %s", what, got, tc.digest)
				}
				if st.Errors != tc.errs || st.RefinedPoints != len(refined) || (tc.refine > 0) != (len(refined) > 0) {
					t.Errorf("%s: %d errors, %d refined points; want %d and %d",
						what, st.Errors, st.RefinedPoints, tc.errs, len(refined))
				}
			}
			for _, workers := range []int{1, 3} {
				for _, chunk := range []int{1, 7, 100, 1024, 5000} {
					cfg := Config{Workers: workers, ChunkSize: chunk, RefineDepth: tc.refine}
					b, r, st := collectRecords(t, tc.g, func(s func(Point) error) (Stats, error) {
						return Run(context.Background(), tc.g, cfg, s)
					})
					check(fmt.Sprintf("Run workers %d chunk %d", workers, chunk), b, r, st)
				}
			}
			if tc.refine > 0 {
				return // RunRangeChunks refuses refinement
			}
			var all []string
			var errs int
			bounds := []int{0, total / 3, total/3 + 1, total}
			for i := 0; i+1 < len(bounds); i++ {
				cfg := Config{Workers: 1 + 2*(i%2), ChunkSize: 3 + 50*i}
				b, _, st := collectRecords(t, tc.g, func(s func(Point) error) (Stats, error) {
					return RunRangeChunks(context.Background(), tc.g, cfg, bounds[i], bounds[i+1], func(c *Chunk) error {
						for _, pt := range c.Points {
							if err := s(pt); err != nil {
								return err
							}
						}
						return nil
					})
				})
				all = append(all, b...)
				errs += st.Errors
			}
			check("RunRangeChunks", all, nil, Stats{Errors: errs})
		})
	}
}

// flat recomposes coordinates into the row-major index.
func (e *engine) flat(idx []int) int {
	f := 0
	for k, i := range idx {
		f += i * e.stride[k]
	}
	return f
}
