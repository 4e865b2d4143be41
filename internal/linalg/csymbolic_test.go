package linalg

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randSymPattern builds a random complex matrix with a structurally
// symmetric pattern, every diagonal structurally present, and mild
// diagonal dominance (static pivoting stays well conditioned). It returns
// the dense matrix plus its CSR pattern and value array.
func randSymPattern(rng *rand.Rand, n int, density float64) ([]complex128, []int, []int, []complex128) {
	a := make([]complex128, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				v := complex(rng.NormFloat64(), rng.NormFloat64())
				w := complex(rng.NormFloat64(), rng.NormFloat64())
				a[i*n+j] += v
				a[j*n+i] += w
			}
		}
	}
	for i := 0; i < n; i++ {
		sum := 1.0
		for j := 0; j < n; j++ {
			if j != i {
				v := a[i*n+j]
				sum += absC(v)
				v = a[j*n+i]
				sum += absC(v)
			}
		}
		a[i*n+i] += complex(sum, rng.NormFloat64())
	}
	rowPtr := make([]int, n+1)
	var cols []int
	var vals []complex128
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if v := a[i*n+j]; v != 0 {
				cols = append(cols, j)
				vals = append(vals, v)
			}
		}
		rowPtr[i+1] = len(cols)
	}
	return a, rowPtr, cols, vals
}

// refactorCSR factors the matrix whose values are given in the CSR entry
// order of the analyzed pattern: it clears the factor storage, adds each
// value into its slot and refactors. Clearing to +0 and then adding is
// the reference the callers' direct writes into Values must reproduce.
func refactorCSR(s *CSymbolicLU, in []complex128) error {
	vals := s.Values()
	clear(vals)
	for t, v := range in {
		vals[s.inSlot[t]] += v
	}
	return s.Refactor()
}

func absC(v complex128) float64 {
	r, im := real(v), imag(v)
	if r < 0 {
		r = -r
	}
	if im < 0 {
		im = -im
	}
	return r + im
}

// TestCSymbolicVsDense: Refactor+Solve/SolveT must agree with the dense
// DenseLU reference on random structurally symmetric systems across sizes.
func TestCSymbolicVsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(50)
		a, rowPtr, cols, vals := randSymPattern(rng, n, 0.15)
		sym, err := NewCSymbolicLU(rowPtr, cols)
		if err != nil {
			t.Fatalf("trial %d (n=%d): %v", trial, n, err)
		}
		if err := refactorCSR(sym, vals); err != nil {
			t.Fatalf("trial %d (n=%d): Refactor: %v", trial, n, err)
		}
		dense := NewDenseLU[complex128](n)
		if err := dense.Factor(a); err != nil {
			t.Fatalf("trial %d: dense Factor: %v", trial, err)
		}
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		for name, solve := range map[string]func(Solver[complex128], []complex128, []complex128) error{
			"Solve":  func(s Solver[complex128], b, x []complex128) error { return s.Solve(b, x) },
			"SolveT": func(s Solver[complex128], b, x []complex128) error { return s.SolveT(b, x) },
		} {
			want := make([]complex128, n)
			got := make([]complex128, n)
			if err := solve(dense, b, want); err != nil {
				t.Fatalf("trial %d %s dense: %v", trial, name, err)
			}
			var err error
			if name == "Solve" {
				err = sym.Solve(b, got)
			} else {
				err = sym.SolveT(b, got)
			}
			if err != nil {
				t.Fatalf("trial %d %s symbolic: %v", trial, name, err)
			}
			scale := 0.0
			for i := range want {
				if s := absC(want[i]); s > scale {
					scale = s
				}
			}
			for i := range want {
				if d := absC(got[i] - want[i]); d > 1e-10*scale {
					t.Fatalf("trial %d n=%d %s[%d]: symbolic %v vs dense %v (scale %g)",
						trial, n, name, i, got[i], want[i], scale)
				}
			}
		}
	}
}

// TestCSymbolicRefactorBitIdentical: refactoring the same values — on the
// same instance or a freshly analyzed one — must reproduce bit-identical
// solutions, the property the AC sweep reuse contract rests on.
func TestCSymbolicRefactorBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	_, rowPtr, cols, vals := randSymPattern(rng, 40, 0.2)
	b := make([]complex128, 40)
	for i := range b {
		b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	solveAll := func(s *CSymbolicLU) ([]complex128, []complex128) {
		if err := refactorCSR(s, vals); err != nil {
			t.Fatal(err)
		}
		x := make([]complex128, len(b))
		xt := make([]complex128, len(b))
		if err := s.Solve(b, x); err != nil {
			t.Fatal(err)
		}
		if err := s.SolveT(b, xt); err != nil {
			t.Fatal(err)
		}
		return x, xt
	}
	s1, err := NewCSymbolicLU(rowPtr, cols)
	if err != nil {
		t.Fatal(err)
	}
	x1, xt1 := solveAll(s1)
	// Perturb the instance with a different factorization, then return.
	other := append([]complex128(nil), vals...)
	for i := range other {
		other[i] *= 1.5
	}
	if err := refactorCSR(s1, other); err != nil {
		t.Fatal(err)
	}
	x2, xt2 := solveAll(s1)
	s3, err := NewCSymbolicLU(rowPtr, cols)
	if err != nil {
		t.Fatal(err)
	}
	x3, xt3 := solveAll(s3)
	for i := range x1 {
		if x1[i] != x2[i] || x1[i] != x3[i] {
			t.Fatalf("Solve[%d] not bit-identical: %v / %v / %v", i, x1[i], x2[i], x3[i])
		}
		if xt1[i] != xt2[i] || xt1[i] != xt3[i] {
			t.Fatalf("SolveT[%d] not bit-identical: %v / %v / %v", i, xt1[i], xt2[i], xt3[i])
		}
	}
}

// TestCSymbolicClone: a clone shares the receiver's update map and owns
// its factors and pivot divisors. Refactored with its own values it
// solves them bit for bit like the source would, whatever the source
// refactors afterwards; its own Refactor leaves the source's factors and
// SymInvDiag bits untouched; and re-cloning into it allocates nothing.
func TestCSymbolicClone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	_, rowPtr, cols, vals := randSymPattern(rng, 40, 0.2)
	b := make([]complex128, 40)
	for i := range b {
		b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	s, err := NewCSymbolicLU(rowPtr, cols)
	if err != nil {
		t.Fatal(err)
	}
	if err := refactorCSR(s, vals); err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, len(b))
	wantT := make([]complex128, len(b))
	if err := s.Solve(b, want); err != nil {
		t.Fatal(err)
	}
	if err := s.SolveT(b, wantT); err != nil {
		t.Fatal(err)
	}
	c := s.Clone(nil)
	if &c.upd[0] != &s.upd[0] || &c.inSlot[0] != &s.inSlot[0] {
		t.Fatal("clone copied the update map instead of sharing it")
	}
	if &c.piv[0] == &s.piv[0] || &c.vals[0] == &s.vals[0] || &c.y[0] == &s.y[0] {
		t.Fatal("clone shares numeric storage with its source")
	}
	if err := refactorCSR(c, vals); err != nil {
		t.Fatal(err)
	}
	other := append([]complex128(nil), vals...)
	for i := range other {
		other[i] *= 1.5
	}
	if err := refactorCSR(s, other); err != nil {
		t.Fatal(err)
	}
	got := make([]complex128, len(b))
	gotT := make([]complex128, len(b))
	if err := c.Solve(b, got); err != nil {
		t.Fatal(err)
	}
	if err := c.SolveT(b, gotT); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] || gotT[i] != wantT[i] {
			t.Fatalf("clone [%d]: Solve %v/%v, SolveT %v/%v", i, got[i], want[i], gotT[i], wantT[i])
		}
	}

	// The clone refactoring other values must not touch the source.
	factors := append([]complex128(nil), s.vals...)
	pivots := append([]pivotDiv(nil), s.piv...)
	diag := make([]complex128, s.N())
	for i := range diag {
		if diag[i], err = s.SymInvDiag(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := refactorCSR(c, vals); err != nil {
		t.Fatal(err)
	}
	for i := range factors {
		if !sameBits(s.vals[i], factors[i]) {
			t.Fatalf("clone Refactor moved source factor %d: %v -> %v", i, factors[i], s.vals[i])
		}
	}
	for k := range pivots {
		if s.piv[k] != pivots[k] {
			t.Fatalf("clone Refactor moved source pivot divisor %d", k)
		}
	}
	for i := range diag {
		d, err := s.SymInvDiag(i)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(d, diag[i]) {
			t.Fatalf("source SymInvDiag(%d) moved after clone Refactor: %v -> %v", i, diag[i], d)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { s.Clone(c) }); allocs != 0 {
		t.Fatalf("Clone into a sized clone allocates %v, want 0", allocs)
	}
}

// sameBits reports whether two complex values are identical bit for bit.
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// TestCSymbolicSolveEntry: the single-entry solve returns the bits of a
// full Solve's entry, (A⁻¹)_ii = Solve(e_i)[i], on random patterns of
// many sizes, and rejects out-of-range indices.
func TestCSymbolicSolveEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(60)
		_, rowPtr, cols, vals := randSymPattern(rng, n, 0.05+0.2*rng.Float64())
		s, err := NewCSymbolicLU(rowPtr, cols)
		if err != nil {
			t.Fatal(err)
		}
		if err := refactorCSR(s, vals); err != nil {
			t.Fatal(err)
		}
		e := make([]complex128, n)
		x := make([]complex128, n)
		for i := range e {
			e[i] = 1
			if err := s.Solve(e, x); err != nil {
				t.Fatal(err)
			}
			e[i] = 0
			got, err := s.SolveEntry(i)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, x[i]) {
				t.Fatalf("trial %d n=%d: SolveEntry(%d) = %v, Solve(e_i)[i] = %v", trial, n, i, got, x[i])
			}
		}
		if _, err := s.SolveEntry(n); err == nil {
			t.Fatal("out-of-range index accepted")
		}
	}
}

// FuzzPivotDiv: dividing by a pivot through its precomputed divisor must
// give the bits of Go's complex division for every dividend and divisor,
// specials included.
func FuzzPivotDiv(f *testing.F) {
	inf, nan := math.Inf(1), math.NaN()
	specials := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308,
		1, -1, 1e300, -1e300, 1e-300, -1e-300, math.MaxFloat64, inf, -inf, nan,
	}
	for _, a := range specials {
		for _, b := range specials {
			f.Add(1.0, 1.0, a, b) // every divisor class, both branches
			f.Add(a, b, 3.0, -2.0)
			f.Add(a, b, 2.0, 3.0)
		}
	}
	f.Add(1e300, 1e300, 1e-300, 1e-300)
	f.Add(-1e-300, 1e300, 1e300, -1e-300)
	f.Fuzz(func(t *testing.T, nr, ni, mr, mi float64) {
		n, m := complex(nr, ni), complex(mr, mi)
		p := newPivotDiv(m)
		if got, want := p.quo(n, m), n/m; !sameBits(got, want) {
			t.Fatalf("(%v)/(%v): pivot division %v, Go / %v", n, m, got, want)
		}
	})
}

// TestCSymbolicSymInvDiag: on a complex-symmetric matrix the one-sweep
// diagonal of the inverse matches a full solve's entry to rounding.
func TestCSymbolicSymInvDiag(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 48
	a, rowPtr, cols, _ := randSymPattern(rng, n, 0.15)
	// Mirror the upper triangle so the values are complex-symmetric too.
	var vals []complex128
	for i := 0; i < n; i++ {
		for t := rowPtr[i]; t < rowPtr[i+1]; t++ {
			vals = append(vals, a[min(i, cols[t])*n+max(i, cols[t])])
		}
	}
	s, err := NewCSymbolicLU(rowPtr, cols)
	if err != nil {
		t.Fatal(err)
	}
	if err := refactorCSR(s, vals); err != nil {
		t.Fatal(err)
	}
	e := make([]complex128, n)
	x := make([]complex128, n)
	for i := range e {
		e[i] = 1
		if err := s.Solve(e, x); err != nil {
			t.Fatal(err)
		}
		e[i] = 0
		got, err := s.SymInvDiag(i)
		if err != nil {
			t.Fatal(err)
		}
		if d := absC(got - x[i]); d > 1e-12*absC(x[i]) {
			t.Errorf("(A⁻¹)[%d][%d]: one sweep %v, full solve %v", i, i, got, x[i])
		}
	}
	if _, err := s.SymInvDiag(n); err == nil {
		t.Error("out-of-range index accepted")
	}
}

// TestCSymbolicZeroAlloc: after analysis, the refactor+solve loop must not
// touch the allocator — the sweep hot loop depends on it.
func TestCSymbolicZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	_, rowPtr, cols, vals := randSymPattern(rng, 48, 0.15)
	s, err := NewCSymbolicLU(rowPtr, cols)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]complex128, 48)
	x := make([]complex128, 48)
	for i := range b {
		b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	if err := refactorCSR(s, vals); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := refactorCSR(s, vals); err != nil {
			t.Error(err)
		}
		if err := s.Solve(b, x); err != nil {
			t.Error(err)
		}
		if err := s.SolveT(b, x); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("refactor+solve loop allocates %v per run, want 0", allocs)
	}
}

// TestCSymbolicNeedsPivoting: a structurally zero diagonal (voltage-source
// incidence shape) must be rejected at analysis time with the sentinel.
func TestCSymbolicNeedsPivoting(t *testing.T) {
	// [ x x ; x 0 ] — row 1 has no diagonal entry.
	rowPtr := []int{0, 2, 3}
	cols := []int{0, 1, 0}
	if _, err := NewCSymbolicLU(rowPtr, cols); !errors.Is(err, ErrNeedsPivoting) {
		t.Fatalf("missing diagonal accepted: err=%v", err)
	}
}

// TestCSymbolicSingular: an exactly cancelled pivot must surface as
// ErrSingular from Refactor, the numeric-time fallback trigger.
func TestCSymbolicSingular(t *testing.T) {
	// Dense 2x2 with a second pivot that cancels: [[1,1],[1,1]].
	rowPtr := []int{0, 2, 4}
	cols := []int{0, 1, 0, 1}
	s, err := NewCSymbolicLU(rowPtr, cols)
	if err != nil {
		t.Fatal(err)
	}
	if err := refactorCSR(s, []complex128{1, 1, 1, 1}); !errors.Is(err, ErrSingular) {
		t.Fatalf("cancelled pivot not detected: err=%v", err)
	}
	// A zero diagonal value with no incoming updates is singular too.
	if err := refactorCSR(s, []complex128{0, 1, 1, 1}); !errors.Is(err, ErrSingular) {
		t.Fatalf("zero leading pivot not detected: err=%v", err)
	}
}

// TestCSymbolicMalformed: malformed CSR inputs must error, never panic.
func TestCSymbolicMalformed(t *testing.T) {
	cases := []struct {
		rowPtr []int
		cols   []int
	}{
		{[]int{0}, nil},                     // empty
		{[]int{1, 2}, []int{0, 0}},          // rowPtr[0] != 0
		{[]int{0, 2, 1}, []int{0, 1, 1}},    // descending rowPtr
		{[]int{0, 2}, []int{0, 5}},          // column out of range
		{[]int{0, 2}, []int{0, 0}},          // duplicate column
		{[]int{0, 2, 4}, []int{1, 0, 0, 1}}, // unsorted columns
	}
	for i, c := range cases {
		if _, err := NewCSymbolicLU(c.rowPtr, c.cols); err == nil {
			t.Errorf("case %d: malformed CSR accepted", i)
		}
	}
}

// TestCSymbolicFillOrdering: on a 1D chain the minimum-degree ordering
// must produce zero fill (perfect elimination), a sanity anchor that the
// ordering actually reduces fill rather than merely permuting.
func TestCSymbolicFillOrdering(t *testing.T) {
	n := 32
	rowPtr := make([]int, n+1)
	var cols []int
	for i := 0; i < n; i++ {
		if i > 0 {
			cols = append(cols, i-1)
		}
		cols = append(cols, i)
		if i < n-1 {
			cols = append(cols, i+1)
		}
		rowPtr[i+1] = len(cols)
	}
	s, err := NewCSymbolicLU(rowPtr, cols)
	if err != nil {
		t.Fatal(err)
	}
	if s.Fill() != len(cols) {
		t.Fatalf("tridiagonal chain filled in: %d stored vs %d input nonzeros", s.Fill(), len(cols))
	}
	if s.N() != n {
		t.Fatalf("N() = %d, want %d", s.N(), n)
	}
}

// TestCSymbolicSignedZeroLoad: writing each value into its slot as
// complex(0+re, 0+im), fill slots at zero, yields the factor bits of
// clearing the storage and adding the values, also where inputs carry −0
// parts; storing the values as they are leaves a −0 in the factors.
func TestCSymbolicSignedZeroLoad(t *testing.T) {
	negZero := math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(21))
	moved := false // some trial's factors keep a −0 when it is stored as is
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(40)
		_, rowPtr, cols, vals := randSymPattern(rng, n, 0.2)
		// −0 in the real part, the imaginary part or both of every
		// off-diagonal entry.
		for i := 0; i < n; i++ {
			for t := rowPtr[i]; t < rowPtr[i+1]; t++ {
				if cols[t] == i {
					continue
				}
				re, im := real(vals[t]), imag(vals[t])
				if t%3 != 1 {
					re = negZero
				}
				if t%3 != 0 {
					im = negZero
				}
				vals[t] = complex(re, im)
			}
		}
		s, err := NewCSymbolicLU(rowPtr, cols)
		if err != nil {
			t.Fatal(err)
		}
		if err := refactorCSR(s, vals); err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(s.Values())
		re, im := make([]float64, len(vals)), make([]float64, len(vals))
		for t, v := range vals {
			re[t], im[t] = real(v), imag(v)
		}
		reL, err := s.Layout(re)
		if err != nil {
			t.Fatal(err)
		}
		imL, err := s.Layout(im)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Layout(im[1:]); err == nil {
			t.Fatal("Layout accepted an array shorter than the pattern")
		}
		load := func(keepSign bool) []complex128 {
			v := s.Values()
			for t := range v {
				if keepSign {
					v[t] = complex(reL[t], imL[t])
				} else {
					v[t] = complex(0+reL[t], 0+imL[t])
				}
			}
			if err := s.Refactor(); err != nil {
				t.Fatal(err)
			}
			return v
		}
		for k, v := range load(false) {
			if !sameBits(v, want[k]) {
				t.Fatalf("trial %d: slot %d is %v loaded directly, %v cleared then added", trial, k, v, want[k])
			}
		}
		for k, v := range load(true) {
			moved = moved || !sameBits(v, want[k])
		}
	}
	if !moved {
		t.Error("storing −0 as is left every factor bit unchanged; the test lost its −0 inputs")
	}
}
