package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
)

// ErrSingular is returned when factorization meets a pivot that is exactly
// zero or numerically negligible.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// Scalar is the element type of the pivoted factorizations: float64 for the
// transient MNA system, complex128 for the AC one (capacitor and inductor
// admittances carry a jω factor). Everything but the pivot magnitude is
// written once for both.
type Scalar interface{ float64 | complex128 }

// Solver is the factor-then-solve contract the MNA engines program
// against. Factor captures the matrix from its value array — the
// row-major n x n array for DenseLU, the values of the CSR pattern given
// at construction for SparseLU; Solve back-substitutes one right-hand
// side; SolveT solves the transposed system Aᵀx = b from the same
// factorization (the adjoint method needs exactly one per frequency).
// Both layouts satisfy it, so an engine picks a backend by system size
// while the call sites stay the same.
type Solver[T Scalar] interface {
	Factor(a []T) error
	Solve(b, x []T) error
	SolveT(b, x []T) error
}

// DenseLU holds an in-place LU factorization with partial pivoting: PA = LU.
// The factorization buffer is reusable across Newton iterations and
// frequency points — the engines refactorize the same-size system
// thousands of times per analysis.
type DenseLU[T Scalar] struct {
	n    int
	buf  []T // owned factorization buffer (used by Factor)
	lu   []T // packed L (unit diagonal, below) and U (on/above); buf or a caller matrix
	piv  []int
	y    []T  // solve scratch, so steady-state solves do not allocate
	dinv []T  // reciprocal U diagonal, so back substitution multiplies
	tiny bool // a pivot fell below safeMin; the U sweeps divide instead
}

// NewDenseLU prepares a factorization workspace for n x n systems.
func NewDenseLU[T Scalar](n int) *DenseLU[T] {
	buf := make([]T, n*n)
	return &DenseLU[T]{
		n: n, buf: buf, lu: buf, piv: make([]int, n),
		y: make([]T, n), dinv: make([]T, n),
	}
}

// safeMin is the threshold below which a pivot reciprocal could overflow;
// above it elimination multiplies by the reciprocal (one division per pivot
// instead of one per row, the LAPACK dgetf2 strategy), below it each row
// divides directly.
const safeMin = 0x1p-1021

func checkSquare(got, n int) error {
	if got != n*n {
		return fmt.Errorf("linalg: Factor got %d entries, workspace is %dx%d", got, n, n)
	}
	return nil
}

func checkVectors(b, x, n int) error {
	if b != n || x != n {
		return fmt.Errorf("linalg: Solve vector length %d/%d, want %d", b, x, n)
	}
	return nil
}

// Factor computes the LU factorization of the row-major n x n matrix a.
// a is not modified. It returns ErrSingular when the best remaining pivot
// is exactly zero or NaN.
func (f *DenseLU[T]) Factor(a []T) error {
	if err := checkSquare(len(a), f.n); err != nil {
		return err
	}
	f.lu = f.buf
	copy(f.lu, a)
	return f.factorize(nil)
}

// FactorSolveScratch factors a in place, destroying its contents, while
// reducing right-hand side b alongside the elimination, then
// back-substitutes into x. For callers that restamp the matrix before
// every factorization anyway (the Newton loop) this skips Factor's O(n²)
// defensive copy, touches each multiplier while it is already in
// registers and skips the permutation gather. The result is bit-identical
// to Factor followed by Solve — the rhs reduction performs exactly the
// forward-substitution operations in the same order. The factorization
// stays aliased to a, and valid for further solves, until the next Factor
// or FactorSolveScratch call. x must not alias a; b is only read (unless
// it aliases x).
func (f *DenseLU[T]) FactorSolveScratch(a, b, x []T) error {
	if err := checkSquare(len(a), f.n); err != nil {
		return err
	}
	if err := checkVectors(len(b), len(x), f.n); err != nil {
		return err
	}
	f.lu = a
	copy(x, b)
	if err := f.factorize(x); err != nil {
		return err
	}
	f.backSub(x)
	return nil
}

// factorize eliminates f.lu in place. When w is non-nil it is reduced
// alongside (row swaps and multiplier updates), which is forward
// substitution fused into the factorization.
func (f *DenseLU[T]) factorize(w []T) error {
	n := f.n
	lu := f.lu
	f.tiny = false
	for i := range f.piv {
		f.piv[i] = i
	}
	for k := 0; k < n; k++ {
		p, max := f.pivotRow(k)
		if max == 0 || math.IsNaN(max) {
			return fmt.Errorf("%w: zero pivot at column %d", ErrSingular, k)
		}
		if p != k {
			rk := lu[k*n : k*n+n]
			rp := lu[p*n : p*n+n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			if w != nil {
				w[k], w[p] = w[p], w[k]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
		}
		pivot := lu[k*n+k]
		rk := lu[k*n+k+1 : k*n+n]
		if max >= safeMin {
			pinv := 1 / pivot
			f.dinv[k] = pinv
			for i := k + 1; i < n; i++ {
				m := lu[i*n+k] * pinv
				lu[i*n+k] = m
				if w != nil {
					w[i] -= m * w[k]
				}
				if m == 0 {
					continue
				}
				ri := lu[i*n+k+1 : i*n+n]
				for j, v := range rk {
					ri[j] -= m * v
				}
			}
			continue
		}
		f.tiny = true
		for i := k + 1; i < n; i++ {
			m := lu[i*n+k] / pivot
			lu[i*n+k] = m
			if w != nil {
				w[i] -= m * w[k]
			}
			if m == 0 {
				continue
			}
			ri := lu[i*n+k+1 : i*n+n]
			for j, v := range rk {
				ri[j] -= m * v
			}
		}
	}
	return nil
}

// pivotRow returns the row at or below k holding the largest-magnitude
// entry of column k, and that magnitude. It is the only element-type
// specific step of the dense factorization; switching once per column
// keeps the per-entry scan a plain loop over the concrete type.
func (f *DenseLU[T]) pivotRow(k int) (p int, max float64) {
	n := f.n
	p = k
	switch lu := any(f.lu).(type) {
	case []float64:
		max = math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu[i*n+k]); a > max {
				max, p = a, i
			}
		}
	case []complex128:
		max = cmplx.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := cmplx.Abs(lu[i*n+k]); a > max {
				max, p = a, i
			}
		}
	}
	return p, max
}

// backSub performs the U back-substitution pass in place on y. The
// diagonal reciprocals were computed at factor time, so the dependency
// chain is multiply-latency rather than divide-latency; if any pivot was
// below safeMin the reciprocals are unusable and it divides.
func (f *DenseLU[T]) backSub(y []T) {
	n, lu, tiny := f.n, f.lu, f.tiny
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		row := lu[i*n+i+1 : i*n+n]
		ys := y[i+1:]
		for j, v := range row {
			s -= v * ys[j]
		}
		if tiny {
			y[i] = s / lu[i*n+i]
		} else {
			y[i] = s * f.dinv[i]
		}
	}
}

// Solve solves A x = b using the current factorization, writing the result
// into x (which may alias b). b must have length n.
func (f *DenseLU[T]) Solve(b, x []T) error {
	n := f.n
	if err := checkVectors(len(b), len(x), n); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	// Work in x directly unless it aliases b (the permutation gather would
	// clobber entries of b not yet read).
	y := x
	if &x[0] == &b[0] {
		y = f.y
	}
	lu := f.lu
	// Permutation fused with forward substitution on unit-lower L.
	y[0] = b[f.piv[0]]
	for i := 1; i < n; i++ {
		s := b[f.piv[i]]
		row := lu[i*n : i*n+i]
		for j, v := range row {
			s -= v * y[j]
		}
		y[i] = s
	}
	f.backSub(y)
	if &y[0] != &x[0] {
		copy(x, y)
	}
	return nil
}

// SolveT solves the transposed system Aᵀx = b from the current
// factorization. With PA = LU we have Aᵀ = UᵀLᵀP, so the sweeps run in
// the opposite order from Solve: lower-triangular Uᵀ first (ascending,
// scatter form so memory access stays row-major), unit upper-triangular Lᵀ
// second (descending), then the inverse permutation places the result.
// b must have length n; x must not alias b.
func (f *DenseLU[T]) SolveT(b, x []T) error {
	n := f.n
	if err := checkVectors(len(b), len(x), n); err != nil {
		return err
	}
	y, lu, tiny := f.y, f.lu, f.tiny
	copy(y, b)
	// Uᵀy' = b: y[j] is final once scaled by the diagonal; its row tail
	// then scatters into the entries below.
	for j := 0; j < n; j++ {
		yj := y[j]
		if tiny {
			yj /= lu[j*n+j]
		} else {
			yj *= f.dinv[j]
		}
		y[j] = yj
		if yj == 0 {
			continue
		}
		row := lu[j*n+j+1 : j*n+n]
		ys := y[j+1:]
		for i, v := range row {
			ys[i] -= v * yj
		}
	}
	// Lᵀz = y': unit diagonal, so z[j] is final once every later row has
	// scattered; row j's sub-diagonal entries then scatter upward.
	for j := n - 1; j >= 0; j-- {
		zj := y[j]
		if zj == 0 {
			continue
		}
		row := lu[j*n : j*n+j]
		for i, v := range row {
			y[i] -= v * zj
		}
	}
	// Px = z: undo the pivoting.
	for i := 0; i < n; i++ {
		x[f.piv[i]] = y[i]
	}
	return nil
}

// SolveDense is a convenience one-shot solve of the real system A x = b.
func SolveDense(a *Matrix, b []float64) ([]float64, error) {
	f := NewDenseLU[float64](a.Rows)
	if err := f.Factor(a.Data); err != nil {
		return nil, err
	}
	x := make([]float64, len(b))
	if err := f.Solve(b, x); err != nil {
		return nil, err
	}
	return x, nil
}
