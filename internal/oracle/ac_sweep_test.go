package oracle

import (
	"context"
	"testing"
)

// TestACSweepReuseProperty is the shrinking property harness for the
// sweep-reuse contract: over a block of seeded random RLC grids, the
// symbolic-reuse numeric path must be bit-identical to a fresh
// factorization at every frequency, and match the dense reference at the
// screened frequency. Failures shrink before reporting so the log carries
// a minimal repro.
func TestACSweepReuseProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep-reuse property campaign")
	}
	rep, err := sweepCampaign.run(context.Background(), Config{Points: 40, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep)
	for _, f := range rep.Failures {
		t.Errorf("index %d: %s\nshrunk repro: %+v", f.Index, f, sweepCampaign.shrink(f.Point))
	}
	if rep.Passed+rep.Failed == 0 {
		t.Fatalf("every generated point skipped the symbolic backend (%d skips)", rep.Skipped)
	}
}

// TestACSweepReuseMalformed: malformed points must error, never panic.
func TestACSweepReuseMalformed(t *testing.T) {
	pt := ACPoint{Nodes: 0, Obs: 1, Freq: 1e6}
	if res := CheckACSweepReuse(pt); res.Err == nil {
		t.Error("malformed point produced no error")
	}
}

// TestShrinkACSweepKeepsFailureInvariant: on a passing point the shrinker
// must be the identity (the predicate never fires).
func TestShrinkACSweepKeepsFailureInvariant(t *testing.T) {
	pt, ok := GenerateAC(21, 0)
	if !ok {
		t.Skip("generator exhausted retries")
	}
	res := CheckACSweepReuse(pt)
	if res.Err != nil || res.Skipped || !res.Pass {
		t.Skipf("point not a passing symbolic point: %s", res)
	}
	small := sweepCampaign.shrink(pt)
	if small.Nodes != pt.Nodes || len(small.Elems) != len(pt.Elems) {
		t.Errorf("shrinker modified a passing point: %+v -> %+v", pt, small)
	}
}

// FuzzACSweepReuse is the sweep-reuse fuzz target: any (seed, index) the
// fuzzer invents becomes a screened RLC grid whose symbolic sweep reuse
// must be bit-exact against fresh factorization and inside the dense band.
// Wired into the nightly fuzz job next to FuzzACAdjointVsFD.
func FuzzACSweepReuse(f *testing.F) {
	f.Add(int64(1), uint16(0))
	f.Add(int64(21), uint16(3))
	f.Add(int64(-9), uint16(512))
	f.Fuzz(func(t *testing.T, seed int64, idx uint16) {
		pt, ok := GenerateAC(seed, int(idx))
		if !ok {
			t.Skip("generator exhausted retries")
		}
		res := CheckACSweepReuse(pt)
		if res.Err != nil {
			t.Fatalf("infrastructure error for %s: %v", pt, res.Err)
		}
		if res.Skipped {
			t.Skip("pattern outside the symbolic backend's domain")
		}
		if !res.Pass {
			t.Errorf("sweep-reuse violation: %s", res)
		}
	})
}
