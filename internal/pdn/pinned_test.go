package pdn

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"ssnkit/internal/pkgmodel"
	"ssnkit/internal/spice"
)

// The greedy decap optimizer's outputs are pinned bit for bit: the peak
// before and after, every Placement field, and an FNV-1a digest over the
// final profile's |Z| samples, all as float64 bits. The first three cases
// are members of the optimize benchmark suite (60 log-spaced points from
// 1 MHz to 10 GHz, 5 mΩ decaps); the last restricts candidates to an
// explicit DecapSites list that includes one pre-placed decap. Each case
// must reproduce the same bits at every worker count, so any speedup of
// the search (pricing reuse, bounded trial sweeps) has to keep the search
// itself unchanged.

// pinnedOptDigest renders a result as the pinned string: peak bits, the
// final-profile digest, then one line per placement.
func pinnedOptDigest(res *OptimizeResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "before=%016x after=%016x final=%016x",
		math.Float64bits(res.PeakBefore), math.Float64bits(res.PeakAfter), absZDigest(res.Final))
	for _, p := range res.Placements {
		fmt.Fprintf(&b, "\nsite=%d node=%d grad=%016x f=%016x before=%016x after=%016x",
			p.Site, p.Node, math.Float64bits(p.Grad), math.Float64bits(p.PeakFreq),
			math.Float64bits(p.PeakBefore), math.Float64bits(p.PeakAfter))
	}
	return b.String()
}

// absZDigest folds every |Z| sample's bits into a 64-bit FNV-1a hash.
func absZDigest(p *Profile) uint64 {
	h := uint64(14695981039346656037)
	for _, pt := range p.Points {
		v := math.Float64bits(pt.AbsZ)
		for k := 0; k < 8; k++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	return h
}

func TestPinnedOptimizeBits(t *testing.T) {
	fs, err := spice.FreqGrid(1e6, 1e10, 60, true)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		pkg       pkgmodel.Package
		rows      int
		cols      int
		pads      int
		sites     []pkgmodel.DecapSite
		decapX    float64 // unit decap in nF, as the benchmark suite computes it
		maxDecaps int
		want      string
	}{
		{name: "qfp-5x8", pkg: pkgmodel.QFP, rows: 5, cols: 8, pads: 6, decapX: 1.5, maxDecaps: 2,
			want: "before=404021d2ef3a1242 after=404021d2ef3a1242 final=0d5fdf56d713e636"},
		{name: "cob-8x7", pkg: pkgmodel.COB, rows: 8, cols: 7, pads: 2, decapX: 1, maxDecaps: 4,
			want: "before=40394b7491cf8135 after=4013cac6f22a3ba3 final=f220402a514f02e6\n" +
				"site=6 node=6 grad=c2951515701b463d f=41b8564823683d61 before=40394b7491cf8135 after=403407c34c55ec09\n" +
				"site=13 node=13 grad=c218ce5e8bd4c40b f=419d605ea551f483 before=403407c34c55ec09 after=402518b85793d826\n" +
				"site=5 node=5 grad=c20135935ce4e9e7 f=419547813b70589a before=402518b85793d826 after=401b45c4e40375e8\n" +
				"site=49 node=49 grad=c253638a661bf38c f=41f6e5a6aac08667 before=401b45c4e40375e8 after=4013cac6f22a3ba3"},
		{name: "pga-4x4", pkg: pkgmodel.PGA, rows: 4, cols: 4, pads: 2, decapX: 1, maxDecaps: 2,
			want: "before=405a880bbe71c36e after=4035eab77d9dc43a final=b5e629cae76d1bd3\n" +
				"site=3 node=3 grad=c2c36e672a6b2e43 f=41b2c6dc103010b8 before=405a880bbe71c36e after=4035eab77d9dc43a"},
		{name: "qfp-5x5-sites", pkg: pkgmodel.QFP, rows: 5, cols: 5, pads: 2, decapX: 2, maxDecaps: 3,
			sites: []pkgmodel.DecapSite{{Node: 0}, {Node: 6}, {Node: 12, C: 1e-9, ESR: 5e-3}, {Node: 18}, {Node: 24}, {Node: 4}, {Node: 20}},
			want: "before=4034d98ae669662d after=40213bf14dd3c9f9 final=8952243ccabbf3cc\n" +
				"site=5 node=4 grad=c22ae910efbddc51 f=41920cd6ed833cb8 before=4034d98ae669662d after=40213bf14dd3c9f9"},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				grid := pkgmodel.DefaultPDN(c.pkg, c.rows, c.cols, c.pads)
				grid.DecapSites = append([]pkgmodel.DecapSite(nil), c.sites...)
				res, err := OptimizeDecaps(context.Background(), OptimizeSpec{
					Grid:      grid,
					Freqs:     fs,
					DecapC:    1e-9 * c.decapX,
					DecapESR:  5e-3,
					MaxDecaps: c.maxDecaps,
					Config:    Config{Workers: workers},
				})
				if err != nil {
					t.Fatal(err)
				}
				if got := pinnedOptDigest(res); got != c.want {
					t.Errorf("optimizer bits moved:\ngot:\n%s\nwant:\n%s", got, c.want)
				}
			})
		}
	}
}
