package linalg

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// Every LU test runs once per element type (float64 and complex128
// subtests) and, where the behaviour is shared, over both storage layouts.
// Test names predate the generic types and are kept stable.

func bothTypes(t *testing.T, f64, c128 func(*testing.T)) {
	t.Run("float64", f64)
	t.Run("complex128", c128)
}

// backend is one storage layout's workspace behind the common interface.
type backend[T Scalar] struct {
	name string
	s    Solver[T]
}

func backends[T Scalar](n int) []backend[T] {
	return []backend[T]{{"dense", NewDenseLU[T](n)}, {"sparse", NewSparseLU[T](densePattern(n))}}
}

// densePattern returns the CSR pattern of a full n x n matrix. Its value
// order is row-major order, so a row-major array is already the value
// array SparseLU.Factor reads for it.
func densePattern(n int) (rowPtr, colIdx []int) {
	rowPtr, colIdx = make([]int, n+1), make([]int, n*n)
	for k := range colIdx {
		colIdx[k] = k % n
	}
	for i := range rowPtr {
		rowPtr[i] = i * n
	}
	return rowPtr, colIdx
}

// of converts a complex literal to T; float64 keeps the real part.
func of[T Scalar](v complex128) T {
	var out T
	switch p := any(&out).(type) {
	case *float64:
		*p = real(v)
	case *complex128:
		*p = v
	}
	return out
}

func rows[T Scalar](rs [][]complex128) []T {
	var a []T
	for _, r := range rs {
		for _, v := range r {
			a = append(a, of[T](v))
		}
	}
	return a
}

func absT[T Scalar](v T) float64 {
	switch x := any(v).(type) {
	case float64:
		return math.Abs(x)
	case complex128:
		return cmplx.Abs(x)
	}
	panic("unreachable")
}

func randT[T Scalar](rng *rand.Rand) T {
	return of[T](complex(rng.NormFloat64(), rng.NormFloat64()))
}

func randVec[T Scalar](rng *rand.Rand, n int) []T {
	b := make([]T, n)
	for i := range b {
		b[i] = randT[T](rng)
	}
	return b
}

// randSystem builds a deterministic row-major n x n matrix whose
// off-diagonal entries are present with probability density and whose
// diagonal is boosted by n, which keeps the conditioning sane.
func randSystem[T Scalar](rng *rand.Rand, n int, density float64) []T {
	a := make([]T, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() > density {
				continue
			}
			v := randT[T](rng)
			if i == j {
				v += of[T](complex(float64(n), 0))
			}
			a[i*n+j] = v
		}
	}
	return a
}

func matVec[T Scalar](a []T, x []T) []T {
	n := len(x)
	y := make([]T, n)
	for i := range y {
		for j, v := range a[i*n : i*n+n] {
			y[i] += v * x[j]
		}
	}
	return y
}

func transpose[T Scalar](a []T, n int) []T {
	t := make([]T, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			t[j*n+i] = a[i*n+j]
		}
	}
	return t
}

func maxRelErr[T Scalar](got, want []T) float64 {
	worst := 0.0
	for i := range got {
		scale := math.Max(absT(want[i]), 1)
		if e := absT(got[i]-want[i]) / scale; e > worst {
			worst = e
		}
	}
	return worst
}

func factorSolve[T Scalar](s Solver[T], a, b []T) ([]T, error) {
	if err := s.Factor(a); err != nil {
		return nil, err
	}
	x := make([]T, len(b))
	return x, s.Solve(b, x)
}

func TestLUSolveKnown(t *testing.T) {
	bothTypes(t, testLUSolveKnown[float64], testLUSolveKnown[complex128])
}

func testLUSolveKnown[T Scalar](t *testing.T) {
	a := rows[T]([][]complex128{{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}})
	b := rows[T]([][]complex128{{8, -11, -3}})
	want := rows[T]([][]complex128{{2, 3, -1}})
	for _, be := range backends[T](3) {
		x, err := factorSolve(be.s, a, b)
		if err != nil {
			t.Fatalf("%s: %v", be.name, err)
		}
		if e := maxRelErr(x, want); e > 1e-12 {
			t.Errorf("%s: x = %v, want %v", be.name, x, want)
		}
	}
}

func TestLUSingular(t *testing.T) { bothTypes(t, testLUSingular[float64], testLUSingular[complex128]) }

func testLUSingular[T Scalar](t *testing.T) {
	a := rows[T]([][]complex128{{1, 2}, {2, 4}})
	for _, be := range backends[T](2) {
		if err := be.s.Factor(a); !errors.Is(err, ErrSingular) {
			t.Errorf("%s: want ErrSingular, got %v", be.name, err)
		}
	}
}

func TestLUPivoting(t *testing.T) { bothTypes(t, testLUPivoting[float64], testLUPivoting[complex128]) }

func testLUPivoting[T Scalar](t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a := rows[T]([][]complex128{{0, 1}, {1, 0}})
	for _, be := range backends[T](2) {
		x, err := factorSolve(be.s, a, []T{3, 4})
		if err != nil {
			t.Fatalf("%s: %v", be.name, err)
		}
		if x[0] != 4 || x[1] != 3 {
			t.Errorf("%s: x = %v, want [4 3]", be.name, x)
		}
	}
}

// TestComplexPivotMagnitude: complex pivots are ranked by modulus. A
// purely imaginary column (a capacitor-only node, jωC) has no real part
// to rank by, and the larger-modulus row must win the pivot.
func TestComplexPivotMagnitude(t *testing.T) {
	a := []complex128{1i, 1, 2i, 3}
	b := []complex128{1 + 1i, 3 + 2i} // A·[1 1]
	for _, be := range backends[complex128](2) {
		x, err := factorSolve(be.s, a, b)
		if err != nil {
			t.Fatalf("%s: %v", be.name, err)
		}
		if e := maxRelErr(x, []complex128{1, 1}); e > 1e-15 {
			t.Errorf("%s: x = %v, want [1 1]", be.name, x)
		}
	}
}

func TestLUReuse(t *testing.T) { bothTypes(t, testLUReuse[float64], testLUReuse[complex128]) }

func testLUReuse[T Scalar](t *testing.T) {
	// The same workspace must be reusable for repeated factor/solve cycles,
	// as the Newton loop and the frequency sweep do.
	for _, be := range backends[T](2) {
		for k := 1; k <= 5; k++ {
			kt := of[T](complex(float64(k), 0))
			x, err := factorSolve(be.s, []T{kt, 1, 0, 2}, []T{kt, 4})
			if err != nil {
				t.Fatal(err)
			}
			want := []T{(kt - 2) / kt, 2}
			if e := maxRelErr(x, want); e > 1e-14 {
				t.Errorf("%s k=%d: x = %v, want %v", be.name, k, x, want)
			}
		}
	}
}

func TestLUSolveResidualProperty(t *testing.T) {
	bothTypes(t, testLUSolveResidualProperty[float64], testLUSolveResidualProperty[complex128])
}

func testLUSolveResidualProperty[T Scalar](t *testing.T) {
	// Property: for random diagonally boosted systems, ||Ax - b|| is tiny.
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		n := 2 + r.Intn(12)
		a := randSystem[T](r, n, 1)
		b := randVec[T](r, n)
		for _, be := range backends[T](n) {
			x, err := factorSolve(be.s, a, b)
			if err != nil || maxRelErr(matVec(a, x), b) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestCLURoundTrip: Solve then multiply back must reproduce b, and Solve
// with x aliasing b must give the same answer.
func TestCLURoundTrip(t *testing.T) { bothTypes(t, testRoundTrip[float64], testRoundTrip[complex128]) }

func testRoundTrip[T Scalar](t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 5, 8, 17, 40} {
		a := randSystem[T](rng, n, 1)
		b := randVec[T](rng, n)
		for _, be := range backends[T](n) {
			x, err := factorSolve(be.s, a, b)
			if err != nil {
				t.Fatalf("%s n=%d: %v", be.name, n, err)
			}
			if e := maxRelErr(matVec(a, x), b); e > 1e-12 {
				t.Errorf("%s n=%d round-trip A·x vs b: rel err %.3e > 1e-12", be.name, n, e)
			}
			ab := append([]T(nil), b...)
			if err := be.s.Solve(ab, ab); err != nil {
				t.Fatalf("%s n=%d aliased Solve: %v", be.name, n, err)
			}
			for i := range ab {
				if ab[i] != x[i] {
					t.Errorf("%s n=%d aliased Solve differs at %d: %v vs %v", be.name, n, i, ab[i], x[i])
				}
			}
		}
	}
}

// TestCLUSolveT: the transposed solve must satisfy Aᵀ·x == b and agree with
// solving an explicitly transposed matrix.
func TestCLUSolveT(t *testing.T) { bothTypes(t, testSolveT[float64], testSolveT[complex128]) }

func testSolveT[T Scalar](t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 3, 5, 8, 17, 40} {
		a := randSystem[T](rng, n, 1)
		b := randVec[T](rng, n)
		at := transpose(a, n)
		want, err := factorSolve[T](NewDenseLU[T](n), at, b)
		if err != nil {
			t.Fatalf("n=%d explicit transpose solve: %v", n, err)
		}
		for _, be := range backends[T](n) {
			if err := be.s.Factor(a); err != nil {
				t.Fatalf("%s n=%d Factor: %v", be.name, n, err)
			}
			x := make([]T, n)
			if err := be.s.SolveT(b, x); err != nil {
				t.Fatalf("%s n=%d SolveT: %v", be.name, n, err)
			}
			if e := maxRelErr(matVec(at, x), b); e > 1e-12 {
				t.Errorf("%s n=%d SolveT Aᵀ·x vs b: rel err %.3e > 1e-12", be.name, n, e)
			}
			if e := maxRelErr(x, want); e > 1e-12 {
				t.Errorf("%s n=%d SolveT vs explicit transpose: rel err %.3e > 1e-12", be.name, n, e)
			}
		}
	}
}

// TestCSparseLUMatchesDense: the sparse and dense factorizations must agree
// to 1e-12 on the same systems, for both Solve and SolveT.
func TestCSparseLUMatchesDense(t *testing.T) {
	bothTypes(t, testSparseMatchesDense[float64], testSparseMatchesDense[complex128])
}

func testSparseMatchesDense[T Scalar](t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 3, 5, 8, 17, 40, 73} {
		for _, density := range []float64{0.15, 0.5, 1.0} {
			a := randSystem[T](rng, n, density)
			b := randVec[T](rng, n)
			solveBoth(t, a, b)
			if t.Failed() {
				t.Fatalf("n=%d density=%g", n, density)
			}
		}
	}
}

// solveBoth solves a·x = b and aᵀ·x = b with both layouts and fails t when
// they disagree by more than 1e-12.
func solveBoth[T Scalar](t *testing.T, a, b []T) {
	t.Helper()
	n := len(b)
	dense, sparse := NewDenseLU[T](n), NewSparseLU[T](densePattern(n))
	if err := dense.Factor(a); err != nil {
		t.Fatalf("dense Factor: %v", err)
	}
	if err := sparse.Factor(a); err != nil {
		t.Fatalf("sparse Factor: %v", err)
	}
	xd, xs := make([]T, n), make([]T, n)
	for _, tr := range []bool{false, true} {
		var errD, errS error
		if tr {
			errD, errS = dense.SolveT(b, xd), sparse.SolveT(b, xs)
		} else {
			errD, errS = dense.Solve(b, xd), sparse.Solve(b, xs)
		}
		if errD != nil || errS != nil {
			t.Fatalf("transposed=%v: dense %v, sparse %v", tr, errD, errS)
		}
		if e := maxRelErr(xs, xd); e > 1e-12 {
			t.Errorf("transposed=%v: sparse deviates from dense by %.3e", tr, e)
		}
	}
}

// TestCSparseLUSolveReuse: repeated Factor/Solve on the same sparse
// workspace must not contaminate results (row-buffer and bucket reuse).
func TestCSparseLUSolveReuse(t *testing.T) {
	bothTypes(t, testSparseSolveReuse[float64], testSparseSolveReuse[complex128])
}

func testSparseSolveReuse[T Scalar](t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 23
	sparse := NewSparseLU[T](densePattern(n))
	for trial := 0; trial < 20; trial++ {
		a := randSystem[T](rng, n, 0.25)
		b := randVec[T](rng, n)
		x, err := factorSolve[T](sparse, a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if e := maxRelErr(matVec(a, x), b); e > 1e-11 {
			t.Errorf("trial %d reuse residual %.3e > 1e-11", trial, e)
		}
	}
}

// TestComplexSingularPaths: exactly singular matrices must return
// ErrSingular from both layouts and both element types, and never panic.
func TestComplexSingularPaths(t *testing.T) {
	nan := complex(math.NaN(), 0)
	cases := []struct {
		name string
		a    [][]complex128
	}{
		{"zero-matrix", [][]complex128{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}}},
		{"zero-column", [][]complex128{{1, 0, 1}, {2 + 2i, 0, 1}, {3, 0, 5 + 5i}}},
		{"duplicate-rows", [][]complex128{{1 + 2i, 3 - 1i}, {1 + 2i, 3 - 1i}}},
		{"nan-entry", [][]complex128{{nan, 0}, {0, 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := len(tc.a)
			for _, be := range backends[float64](n) {
				if err := be.s.Factor(rows[float64](tc.a)); !errors.Is(err, ErrSingular) {
					t.Errorf("float64 %s Factor err = %v, want ErrSingular", be.name, err)
				}
			}
			for _, be := range backends[complex128](n) {
				if err := be.s.Factor(rows[complex128](tc.a)); !errors.Is(err, ErrSingular) {
					t.Errorf("complex128 %s Factor err = %v, want ErrSingular", be.name, err)
				}
			}
		})
	}
}

// TestComplexSizeMismatch: dimension checks must error, not corrupt state.
func TestComplexSizeMismatch(t *testing.T) {
	bothTypes(t, testSizeMismatch[float64], testSizeMismatch[complex128])
}

func testSizeMismatch[T Scalar](t *testing.T) {
	a := randSystem[T](rand.New(rand.NewSource(5)), 4, 1)
	for _, be := range backends[T](3) {
		if err := be.s.Factor(a); err == nil {
			t.Errorf("%s Factor size mismatch: want error", be.name)
		}
	}
	for _, be := range backends[T](4) {
		if err := be.s.Factor(a); err != nil {
			t.Fatal(err)
		}
		if err := be.s.Solve(make([]T, 3), make([]T, 4)); err == nil {
			t.Errorf("%s Solve length mismatch: want error", be.name)
		}
		if err := be.s.SolveT(make([]T, 4), make([]T, 2)); err == nil {
			t.Errorf("%s SolveT length mismatch: want error", be.name)
		}
	}
	f := NewDenseLU[T](4)
	if err := f.FactorSolveScratch(a[:9], make([]T, 4), make([]T, 4)); err == nil {
		t.Error("FactorSolveScratch size mismatch: want error")
	}
	if err := f.FactorSolveScratch(a, make([]T, 4), make([]T, 3)); err == nil {
		t.Error("FactorSolveScratch length mismatch: want error")
	}
}

// TestCLUFactorScratch: the fused in-place path must agree with the copying
// Factor+Solve path bit for bit, and leave a factorization that further
// Solve and SolveT calls can use.
func TestCLUFactorScratch(t *testing.T) {
	bothTypes(t, testFactorSolveScratch[float64], testFactorSolveScratch[complex128])
}

func testFactorSolveScratch[T Scalar](t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 12
	a := randSystem[T](rng, n, 1)
	b := randVec[T](rng, n)
	f1 := NewDenseLU[T](n)
	x1, err := factorSolve[T](f1, a, b)
	if err != nil {
		t.Fatal(err)
	}
	xt1 := make([]T, n)
	if err := f1.SolveT(b, xt1); err != nil {
		t.Fatal(err)
	}
	f2 := NewDenseLU[T](n)
	x2 := make([]T, n)
	if err := f2.FactorSolveScratch(append([]T(nil), a...), b, x2); err != nil {
		t.Fatal(err)
	}
	x3, xt3 := make([]T, n), make([]T, n)
	if err := f2.Solve(b, x3); err != nil {
		t.Fatal(err)
	}
	if err := f2.SolveT(b, xt3); err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if x2[i] != x1[i] || x3[i] != x1[i] || xt3[i] != xt1[i] {
			t.Fatalf("fused path differs at %d: fused %v, re-solve %v, SolveT %v; want %v, SolveT %v",
				i, x2[i], x3[i], xt3[i], x1[i], xt1[i])
		}
	}
}

func TestSparseMatchesDenseRandom(t *testing.T) {
	bothTypes(t, testSparseMatchesDenseRandom[float64], testSparseMatchesDenseRandom[complex128])
}

func testSparseMatchesDenseRandom[T Scalar](t *testing.T) {
	// About four off-diagonal nonzeros per row: the shape MNA systems take.
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 5, 16, 48, 96} {
		for trial := 0; trial < 5; trial++ {
			solveBoth(t, randSystem[T](rng, n, math.Min(1, 4/float64(n))), randVec[T](rng, n))
			if t.Failed() {
				t.Fatalf("n=%d trial=%d", n, trial)
			}
		}
	}
}

func TestSparseMatchesDenseFull(t *testing.T) {
	bothTypes(t, testSparseMatchesDenseFull[float64], testSparseMatchesDenseFull[complex128])
}

func testSparseMatchesDenseFull[T Scalar](t *testing.T) {
	// Fully dense input exercises heavy fill-in during elimination.
	rng := rand.New(rand.NewSource(3))
	solveBoth(t, randSystem[T](rng, 24, 1), randVec[T](rng, 24))
}

func TestSparseNeedsPivoting(t *testing.T) {
	bothTypes(t, testSparseNeedsPivoting[float64], testSparseNeedsPivoting[complex128])
}

func testSparseNeedsPivoting[T Scalar](t *testing.T) {
	// Zero diagonal forces a row exchange; a no-pivot elimination would fail.
	a := rows[T]([][]complex128{{0, 2, 1}, {4, 0, -1}, {1, 1, 3}})
	solveBoth(t, a, []T{1, 2, 3})
}

func TestSparseSingular(t *testing.T) {
	bothTypes(t, testSparseSingular[float64], testSparseSingular[complex128])
}

func testSparseSingular[T Scalar](t *testing.T) {
	// Row 1 = 2 * row 0.
	a := rows[T]([][]complex128{{1, 2, 0}, {2, 4, 0}, {0, 0, 1}})
	if err := NewSparseLU[T](densePattern(3)).Factor(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("Factor(singular) = %v, want ErrSingular", err)
	}
	// An all-zero column must also report singular, not index out of range.
	z := rows[T]([][]complex128{{1, 0}, {1, 0}})
	if err := NewSparseLU[T](densePattern(2)).Factor(z); !errors.Is(err, ErrSingular) {
		t.Fatalf("Factor(zero column) = %v, want ErrSingular", err)
	}
}

func TestSparseSolveAliasing(t *testing.T) {
	bothTypes(t, testSparseSolveAliasing[float64], testSparseSolveAliasing[complex128])
}

func testSparseSolveAliasing[T Scalar](t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 12
	a := randSystem[T](rng, n, 0.25)
	b := randVec[T](rng, n)
	s := NewSparseLU[T](densePattern(n))
	want, err := factorSolve[T](s, a, b)
	if err != nil {
		t.Fatal(err)
	}
	// x aliasing b must produce the same answer.
	if err := s.Solve(b, b); err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if b[i] != want[i] {
			t.Fatalf("aliased solve differs at %d: %v vs %v", i, b[i], want[i])
		}
	}
}

func TestSparseReuseNoAllocs(t *testing.T) {
	bothTypes(t, testSparseReuseNoAllocs[float64], testSparseReuseNoAllocs[complex128])
}

func testSparseReuseNoAllocs[T Scalar](t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 32
	a := randSystem[T](rng, n, 0.1)
	b := randVec[T](rng, n)
	x := make([]T, n)
	s := NewSparseLU[T](densePattern(n))
	// Warm up to size internal buffers.
	if err := s.Factor(a); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := s.Factor(a); err != nil {
			t.Fatal(err)
		}
		if err := s.Solve(b, x); err != nil {
			t.Fatal(err)
		}
		if err := s.SolveT(b, x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Factor+Solve+SolveT reuse allocates %v times per run, want 0", allocs)
	}
}

func TestDenseSolveNoAllocs(t *testing.T) {
	bothTypes(t, testDenseSolveNoAllocs[float64], testDenseSolveNoAllocs[complex128])
}

func testDenseSolveNoAllocs[T Scalar](t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 16
	a := randSystem[T](rng, n, 0.2)
	scratch := make([]T, len(a))
	b := randVec[T](rng, n)
	x := make([]T, n)
	f := NewDenseLU[T](n)
	allocs := testing.AllocsPerRun(50, func() {
		if err := f.Factor(a); err != nil {
			t.Fatal(err)
		}
		if err := f.Solve(b, x); err != nil {
			t.Fatal(err)
		}
		if err := f.SolveT(b, x); err != nil {
			t.Fatal(err)
		}
		copy(scratch, a)
		if err := f.FactorSolveScratch(scratch, b, x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("dense Factor+Solve+SolveT+FactorSolveScratch allocates %v times per run, want 0", allocs)
	}
}

// TestSparseCSRPattern: a sparse pattern factors to the same bits as
// the full pattern of the same matrix, whether the pattern holds only the
// nonzeros or also explicit zeros (dropped on ingest); a value array of
// the wrong length is refused and a malformed pattern panics.
func TestSparseCSRPattern(t *testing.T) {
	bothTypes(t, testSparseCSRPattern[float64], testSparseCSRPattern[complex128])
}

func testSparseCSRPattern[T Scalar](t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 30
	a := randSystem[T](rng, n, 0.1)
	b := randVec[T](rng, n)
	want, err := factorSolve[T](NewSparseLU[T](densePattern(n)), a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, withZeros := range []bool{false, true} {
		rowPtr := make([]int, n+1)
		var cols []int
		var vals []T
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if v := a[i*n+j]; v != 0 || (withZeros && rng.Intn(4) == 0) {
					cols = append(cols, j)
					vals = append(vals, v)
				}
			}
			rowPtr[i+1] = len(cols)
		}
		s := NewSparseLU[T](rowPtr, cols)
		got, err := factorSolve[T](s, vals, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("zeros=%v: x[%d] = %v from the sparse pattern, %v from the full one", withZeros, i, got[i], want[i])
			}
		}
		if err := s.Factor(vals[1:]); err == nil {
			t.Fatalf("zeros=%v: Factor accepted %d values for a %d-entry pattern", withZeros, len(vals)-1, len(vals))
		}
	}
	for name, p := range map[string][2][]int{
		"descending":     {{0, 2, 3}, {1, 0, 1}},
		"duplicate":      {{0, 2, 3}, {0, 0, 1}},
		"out of range":   {{0, 1, 2}, {0, 2}},
		"short colIdx":   {{0, 1, 3}, {0, 1}},
		"row ends early": {{0, 1, 0, 1}, {0}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s pattern accepted", name)
				}
			}()
			NewSparseLU[T](p[0], p[1])
		}()
	}
}

// Solver interface compliance.
var (
	_ Solver[float64]    = (*DenseLU[float64])(nil)
	_ Solver[float64]    = (*SparseLU[float64])(nil)
	_ Solver[complex128] = (*DenseLU[complex128])(nil)
	_ Solver[complex128] = (*SparseLU[complex128])(nil)
)

// TestSparseSweepNoAllocs alternates two value arrays on one pattern whose
// pivot sequences differ, as a frequency sweep or a Newton loop does: once
// one pass over both has sized every buffer, refactoring allocates nothing.
func TestSparseSweepNoAllocs(t *testing.T) {
	bothTypes(t, testSparseSweepNoAllocs[float64], testSparseSweepNoAllocs[complex128])
}

func testSparseSweepNoAllocs[T Scalar](t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	n := 60
	a := randSystem[T](rng, n, 0.05)
	// b shares a's pattern but not its diagonal dominance, so partial
	// pivoting picks other rows and the fill lands in other rows too.
	b := make([]T, len(a))
	for k, v := range a {
		if v != 0 {
			b[k] = randT[T](rng)
		}
	}
	rowPtr := make([]int, n+1)
	var cols []int
	var va, vb []T
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if a[i*n+j] != 0 {
				cols = append(cols, j)
				va, vb = append(va, a[i*n+j]), append(vb, b[i*n+j])
			}
		}
		rowPtr[i+1] = len(cols)
	}
	factor := func(s *SparseLU[T], vals []T) {
		if err := s.Factor(vals); err != nil {
			t.Fatal(err)
		}
	}
	probe := NewSparseLU[T](rowPtr, cols)
	factor(probe, va)
	pa := slices.Clone(probe.pivRow)
	factor(probe, vb)
	if slices.Equal(pa, probe.pivRow) {
		t.Fatal("both value arrays pivot alike; the test needs two pivot sequences")
	}
	// AllocsPerRun's own first call is the one warm-up pass.
	s := NewSparseLU[T](rowPtr, cols)
	allocs := testing.AllocsPerRun(3, func() {
		factor(s, va)
		factor(s, vb)
	})
	if allocs != 0 {
		t.Fatalf("alternating refactors allocate %v times per pass after a warm-up pass, want 0", allocs)
	}
}
