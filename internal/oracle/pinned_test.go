package oracle

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"ssnkit/internal/driver"
	"ssnkit/internal/spice"
)

// The transient engine's fast paths (base caching, factorization reuse,
// the fused factor+solve) must not move a single bit of what the oracle
// reports, so one campaign point per Regime is pinned here: the simulated
// maximum as float64 bits and the sample count. The five points span an
// explicit N <= 8 array and a merged one (N > mergedThreshold).
func TestPinnedSimBits(t *testing.T) {
	cases := []struct {
		index   int // campaign seed 1 index; the regime is index % numRegimes
		n       int
		simBits uint64
		steps   int
	}{
		{0, 4, 0x3f86b3e8fdec5800, 950},  // RegimeLOnly
		{1, 4, 0x3fc89735ada7b5f3, 920},  // RegimeOver
		{2, 50, 0x3fe66be039ef3502, 903}, // RegimeCritical, merged
		{3, 5, 0x3fe2a39574c50561, 1088}, // RegimeBoundary
		{4, 1, 0x3fc88b6668139ea6, 969},  // RegimePeak
	}
	for _, c := range cases {
		pt, ok := Generate(1, c.index)
		if !ok {
			t.Fatalf("index %d: generator exhausted", c.index)
		}
		if pt.N != c.n {
			t.Fatalf("index %d: N = %d, want %d (generator drifted)", c.index, pt.N, c.n)
		}
		res := Check(pt, spice.Options{})
		if res.Err != nil {
			t.Fatalf("index %d: %v", c.index, res.Err)
		}
		if got := math.Float64bits(res.Sim); got != c.simBits || res.SimSteps != c.steps {
			t.Errorf("index %d (%s): sim bits %016x steps %d, want %016x steps %d",
				c.index, res.CaseName, got, res.SimSteps, c.simBits, c.steps)
		}
	}
}

// The bench suite is campaign seeds 1-64 at 8 points each: the 512 points
// the oracle workload cycles through.
const (
	suiteSeeds  = 64
	suitePoints = 8
)

// suitePoint returns one point of the bench suite.
func suitePoint(t testing.TB, seed int64, i int) DesignPoint {
	t.Helper()
	pt, ok := Generate(seed, i)
	if !ok {
		t.Fatalf("seed %d index %d: generator exhausted", seed, i)
	}
	return pt
}

// TestPinnedSuiteDigest pins the bench suite: one FNV-1a digest over every
// generated point's fields and over the simulated maximum (float64 bits)
// and sample count of every point that is not pole-bound. Neither the
// generator's draws nor the fixed-step simulation of those points may move
// a bit. The pole-bound points' simulations, which step adaptively, are
// held to their fixed-step reference by TestStiffMatchesFixedStep instead.
func TestPinnedSuiteDigest(t *testing.T) {
	const (
		wantDigest = 0xad3e745526a47f53
		wantStiff  = 103
	)
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	stiff := 0
	for seed := int64(1); seed <= suiteSeeds; seed++ {
		for i := 0; i < suitePoints; i++ {
			pt := suitePoint(t, seed, i)
			put(uint64(pt.N))
			for _, f := range []float64{pt.L, pt.C, pt.K, pt.V0, pt.A, pt.Slope, pt.Vdd} {
				put(math.Float64bits(f))
			}
			if PoleBound(pt) {
				stiff++
				continue
			}
			vmax, steps, err := Simulate(pt, spice.Options{})
			if err != nil {
				t.Fatalf("seed %d index %d: %v", seed, i, err)
			}
			put(math.Float64bits(vmax))
			put(uint64(steps))
		}
	}
	if got := h.Sum64(); got != wantDigest || stiff != wantStiff {
		t.Errorf("suite digest %#016x with %d pole-bound points, want %#016x with %d",
			got, stiff, uint64(wantDigest), wantStiff)
	}
}

// stiffRefBound is how far a pole-bound point's adaptive peak may sit from
// its fixed pole-step reference, relative: 500 times below the tightest
// tolerance band (5e-4), and 7x above the worst deviation over the bench
// suite (1.45e-7).
const stiffRefBound = 1e-6

// TestStiffMatchesFixedStep holds every pole-bound point of the bench suite
// to its reference: Simulate's adaptive peak must stay within
// stiffRefBound of the fixed pole-step run on the TranSpec grid, the run a
// repro deck's .tran card replays, and take far fewer samples in total.
func TestStiffMatchesFixedStep(t *testing.T) {
	worst := 0.0
	stiff, refSamples, samples := 0, 0, 0
	for seed := int64(1); seed <= suiteSeeds; seed++ {
		for i := 0; i < suitePoints; i++ {
			pt := suitePoint(t, seed, i)
			if !PoleBound(pt) {
				continue
			}
			stiff++
			ckt, tran, err := BuildDeck(pt)
			if err != nil {
				t.Fatalf("seed %d index %d: %v", seed, i, err)
			}
			eng, err := spice.New(ckt, spice.Options{})
			if err != nil {
				t.Fatalf("seed %d index %d: %v", seed, i, err)
			}
			_, ref, nRef, err := eng.TransientPeak(tran, driver.BounceNode)
			if err != nil {
				t.Fatalf("seed %d index %d: reference: %v", seed, i, err)
			}
			got, n, err := Simulate(pt, spice.Options{})
			if err != nil {
				t.Fatalf("seed %d index %d: %v", seed, i, err)
			}
			refSamples += nRef
			samples += n
			rel := math.Abs(got-ref) / ref
			worst = math.Max(worst, rel)
			if rel > stiffRefBound {
				t.Errorf("seed %d index %d: adaptive peak %.12g vs fixed-step %.12g (rel %.3g > %g): %s",
					seed, i, got, ref, rel, stiffRefBound, pt)
			}
		}
	}
	if stiff == 0 {
		t.Fatal("the suite has no pole-bound point")
	}
	if 4*samples > refSamples {
		t.Errorf("adaptive runs took %d samples against %d on the fixed grid; want under a quarter",
			samples, refSamples)
	}
	t.Logf("%d pole-bound points: worst rel deviation %.3g, %d samples against %d fixed",
		stiff, worst, samples, refSamples)
}
