package oracle

import (
	"context"
	"testing"
)

// TestRank1UpdateProperty is the shrinking property harness for the rank-1
// update: over a block of seeded points the Sherman–Morrison prediction
// must match a fresh factorization of the modified grid within rank1Tol.
// Failures shrink before reporting so the log carries a minimal repro.
func TestRank1UpdateProperty(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 40
	}
	rep, err := rank1Campaign.run(context.Background(), Config{Points: n, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep)
	for _, f := range rep.Failures {
		t.Errorf("index %d: %s\nshrunk repro: %+v", f.Index, f, rank1Campaign.shrink(f.Point))
	}
	if rep.CaseCounts[rank1Small] == 0 || rep.CaseCounts[rank1Large] == 0 {
		t.Errorf("campaign missed a side of the 40-unknown threshold: %v", rep.CaseCounts)
	}
	if rep.Skipped > n/10 {
		t.Errorf("%d of %d points skipped as beyond the reference", rep.Skipped, n)
	}
}

// TestRank1Malformed: malformed points must error, never panic.
func TestRank1Malformed(t *testing.T) {
	for _, pt := range []Rank1Point{
		{Package: "dip", Rows: 3, Cols: 3, Pads: 2, R: 1e-3, C: 1e-9, Freq: 1e8},
		{Package: "pga", Rows: 3, Cols: 3, Pads: 2, Node: 9, R: 1e-3, C: 1e-9, Freq: 1e8},
		{Package: "pga", Rows: 3, Cols: 3, Pads: 2, R: 0, C: 1e-9, Freq: 1e8},
		{Package: "pga", Rows: 3, Cols: 3, Pads: 2, R: 1e-3, C: 1e-9, Freq: 1e8, Gmin: -1},
	} {
		if res := CheckRank1(pt); res.Err == nil {
			t.Errorf("malformed point %s produced no error", pt)
		}
	}
}

// TestShrinkRank1: on a passing point the shrinker is the identity; on a
// point that fails a tightened predicate it keeps failing while it
// simplifies.
func TestShrinkRank1(t *testing.T) {
	pt := GenerateRank1(18, 0)
	if res := CheckRank1(pt); !res.Pass {
		t.Fatalf("seed point does not pass: %s", res)
	}
	if got := rank1Campaign.shrink(pt); got != pt {
		t.Errorf("shrinker modified a passing point: %s -> %s", pt, got)
	}
	fails := func(p Rank1Point) bool {
		r := CheckRank1(p)
		return r.Err == nil && r.RelErr > 0
	}
	for i := 0; i < 20; i++ {
		pt := GenerateRank1(18, i)
		if !fails(pt) {
			continue
		}
		small := shrinkBy(pt, fails, rank1Schedule(pt))
		if !fails(small) {
			t.Fatalf("shrunk point %s no longer fails", small)
		}
		if small.Rows > pt.Rows || small.Cols > pt.Cols || small.Pads > pt.Pads {
			t.Errorf("shrinker grew the point: %s -> %s", pt, small)
		}
		return
	}
	t.Skip("no point with a nonzero disagreement in the first 20")
}

// FuzzRank1Update is the rank-1 update fuzz target: any (seed, index) the
// fuzzer invents becomes a PDN grid, shunt and frequency whose
// Sherman–Morrison prediction must match a fresh factorization of the
// modified grid within rank1Tol. Wired into the nightly fuzz job.
func FuzzRank1Update(f *testing.F) {
	f.Add(int64(18), uint16(0))
	f.Add(int64(7), uint16(311))
	f.Fuzz(func(t *testing.T, seed int64, idx uint16) {
		res := CheckRank1(GenerateRank1(seed, int(idx)))
		if res.Err != nil {
			t.Fatalf("infrastructure error: %v", res.Err)
		}
		if res.Skipped {
			t.Skip(res.Detail)
		}
		if !res.Pass {
			t.Errorf("%s\nshrunk repro: %+v", res, rank1Campaign.shrink(res.Point))
		}
	})
}
