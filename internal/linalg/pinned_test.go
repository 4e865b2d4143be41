package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The real solvers feed the transient engine, whose golden waveforms are
// pinned bit for bit, so the real LU arithmetic itself is pinned here:
// each system below is solved by the dense factorization (Factor+Solve and
// the fused FactorSolveScratch, which must agree exactly) and by the sparse
// one, and every solution entry is compared as float64 bits.

// pinnedSystem builds one pinned system: a seeded n x n matrix with
// standard normal entries (no diagonal boost, so partial pivoting swaps
// rows), then the named variant, and b = A·1 so x stays O(1).
func pinnedSystem(name string, seed int64, n int) (*Matrix, []float64) {
	rng := rand.New(rand.NewSource(seed))
	a := NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	switch name {
	case "zero-diagonal":
		// Every diagonal entry zero: column 0 must pivot off row 0.
		for i := 0; i < n; i++ {
			a.Set(i, i, 0)
		}
	case "tiny-pivot":
		// The whole system scaled below safeMin (into the subnormals):
		// every pivot takes the divide path and the back substitution
		// divides instead of multiplying by reciprocals.
		for i := range a.Data {
			a.Data[i] *= 0x1p-1030
		}
	}
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	return a, a.MulVec(ones)
}

func hexBits(x []float64) string {
	s := ""
	for i, v := range x {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%016x", math.Float64bits(v))
	}
	return s
}

func TestPinnedRealBits(t *testing.T) {
	cases := []struct {
		name         string
		seed         int64
		n            int
		dense, spars string
	}{
		{"seeded", 1, 6,
			"3ff0000000000002 3fefffffffffffff 3ff0000000000000 3ff0000000000000 3ff0000000000000 3ff0000000000000",
			"3ff0000000000002 3ff0000000000000 3fefffffffffffff 3ff0000000000000 3ff0000000000000 3ff0000000000000"},
		{"seeded", 2, 9,
			"3ff0000000000003 3ff0000000000004 3ff0000000000002 3ff0000000000000 3ff0000000000001 3ff0000000000006 3ff0000000000005 3feffffffffffff7 3feffffffffffffa",
			"3ff0000000000000 3ff0000000000004 3ff0000000000003 3ff0000000000001 3ff0000000000003 3ff0000000000007 3ff0000000000006 3feffffffffffffd 3feffffffffffffc"},
		{"zero-diagonal", 3, 7,
			"3ff0000000000002 3ff0000000000005 3feffffffffffffc 3feffffffffffff1 3feffffffffffff4 3fefffffffffffea 3ff0000000000004",
			"3fefffffffffffe5 3ff0000000000007 3feffffffffffffb 3fefffffffffffe4 3feffffffffffffe 3feffffffffffffc 3feffffffffffffe"},
		{"tiny-pivot", 4, 6,
			"3ff0000000000000 3ff0000000000000 3feffffffffffc37 3feffffffffffd96 3fefffffffffff6d 3ff00000000001a5",
			"3ff0000000000000 3ff0000000000000 3feffffffffffc37 3feffffffffffd96 3fefffffffffff6d 3ff00000000001a5"},
	}
	for _, c := range cases {
		label := fmt.Sprintf("%s/seed=%d/n=%d", c.name, c.seed, c.n)
		a, b := pinnedSystem(c.name, c.seed, c.n)
		solve, fused, err := pinDense(a, b)
		if err != nil {
			t.Fatalf("%s: dense: %v", label, err)
		}
		if got := hexBits(solve); got != c.dense {
			t.Errorf("%s: dense Factor+Solve bits\n got %s\nwant %s", label, got, c.dense)
		}
		if got := hexBits(fused); got != c.dense {
			t.Errorf("%s: dense FactorSolveScratch bits\n got %s\nwant %s", label, got, c.dense)
		}
		xs, err := pinSparse(a, b)
		if err != nil {
			t.Fatalf("%s: sparse: %v", label, err)
		}
		if got := hexBits(xs); got != c.spars {
			t.Errorf("%s: sparse bits\n got %s\nwant %s", label, got, c.spars)
		}
	}
}

// pinDense solves a·x = b with the real dense LU twice: Factor then Solve,
// and the fused in-place FactorSolveScratch on a copy of a.
func pinDense(a *Matrix, b []float64) (solve, fused []float64, err error) {
	n := a.Rows
	f := NewDenseLU[float64](n)
	if err := f.Factor(a.Data); err != nil {
		return nil, nil, err
	}
	solve = make([]float64, n)
	if err := f.Solve(b, solve); err != nil {
		return nil, nil, err
	}
	fused = make([]float64, n)
	if err := NewDenseLU[float64](n).FactorSolveScratch(a.Clone().Data, b, fused); err != nil {
		return nil, nil, err
	}
	return solve, fused, nil
}

// pinSparse solves a·x = b with the real sparse LU.
func pinSparse(a *Matrix, b []float64) ([]float64, error) {
	s := NewSparseLU[float64](densePattern(a.Rows))
	if err := s.Factor(a.Data); err != nil {
		return nil, err
	}
	x := make([]float64, a.Rows)
	return x, s.Solve(b, x)
}
