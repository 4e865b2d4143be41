package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	m.Add(1, 2, 2)
	if m.At(0, 0) != 1 || m.At(1, 2) != 7 {
		t.Fatal("Set/Add/At broken")
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("Clone must not alias")
	}
	m.Zero()
	if m.MaxAbs() != 0 {
		t.Error("Zero did not clear")
	}
}

func TestFromRowsAndTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	tr := m.Transpose()
	if tr.Rows != 2 || tr.Cols != 3 {
		t.Fatalf("transpose shape %dx%d", tr.Rows, tr.Cols)
	}
	if tr.At(0, 2) != 5 || tr.At(1, 0) != 2 {
		t.Error("transpose values wrong")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ragged FromRows must panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMulVec(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	y := m.MulVec([]float64{1, 1})
	if y[0] != 3 || y[1] != 7 {
		t.Errorf("MulVec = %v", y)
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// Square consistent system: least squares == exact solve.
	a := FromRows([][]float64{{1, 1}, {1, -1}})
	x, err := LeastSquares(a, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 2, 1e-12) || !almostEq(x[1], 1, 1e-12) {
		t.Errorf("x = %v, want [2 1]", x)
	}
}

func TestLeastSquaresLineFit(t *testing.T) {
	// Fit y = 2 + 3x to noisy-free samples: must recover exactly.
	xs := []float64{0, 1, 2, 3, 4}
	a := NewMatrix(len(xs), 2)
	b := make([]float64, len(xs))
	for i, x := range xs {
		a.Set(i, 0, 1)
		a.Set(i, 1, x)
		b[i] = 2 + 3*x
	}
	c, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(c[0], 2, 1e-10) || !almostEq(c[1], 3, 1e-10) {
		t.Errorf("coeffs = %v, want [2 3]", c)
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	// Property: the LS residual is orthogonal to the column space of A.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n := 8+r.Intn(8), 2+r.Intn(3)
		a := NewMatrix(m, n)
		b := make([]float64, m)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, r.NormFloat64())
			}
			b[i] = r.NormFloat64()
		}
		x, err := LeastSquares(a, b)
		if err != nil {
			return true // rank-deficient random draw; skip
		}
		res := VecSub(a.MulVec(x), b)
		at := a.Transpose()
		proj := at.MulVec(res)
		return VecNormInf(proj) <= 1e-8*(1+VecNorm2(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := LeastSquares(a, []float64{1, 2}); err == nil {
		t.Error("underdetermined system must error")
	}
	a2 := NewMatrix(3, 2)
	if _, err := LeastSquares(a2, []float64{1}); err == nil {
		t.Error("rhs length mismatch must error")
	}
	// Rank-deficient: duplicate columns.
	a3 := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	if _, err := LeastSquares(a3, []float64{1, 2, 3}); !errors.Is(err, ErrSingular) {
		t.Errorf("rank-deficient: want ErrSingular, got %v", err)
	}
}

func TestVectorHelpers(t *testing.T) {
	if VecNormInf([]float64{1, -5, 3}) != 5 {
		t.Error("VecNormInf")
	}
	if !almostEq(VecNorm2([]float64{3, 4}), 5, 1e-15) {
		t.Error("VecNorm2")
	}
	d := VecSub([]float64{5, 5}, []float64{2, 3})
	if d[0] != 3 || d[1] != 2 {
		t.Error("VecSub")
	}
}

func TestStringRendering(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	if m.String() == "" {
		t.Error("String should render something")
	}
}
