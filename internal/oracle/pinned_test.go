package oracle

import (
	"math"
	"testing"

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
