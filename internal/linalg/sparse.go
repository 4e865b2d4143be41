package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
)

// SparseLU factors a system by sparse Gaussian elimination with partial
// pivoting. MNA matrices have O(1) nonzeros per row — in the AC system too,
// where the jω factors change values, not sparsity — so elimination that
// touches only stored entries stays near-linear in n where the dense
// factorization is O(n^3), up to the fill of the natural elimination
// order. The matrix arrives in CSR form: the pattern once at construction,
// its values at every Factor, so no n x n array is ever built or scanned.
// The factors are packed into flat CSR-style arrays — U rows by pivot
// step, L multipliers grouped per step — so Solve is a pair of
// cache-friendly sweeps with no per-call allocation, and all Factor
// workspace is retained across calls for reuse inside Newton loops and
// frequency sweeps.
type SparseLU[T Scalar] struct {
	n      int
	rowPtr []int // input pattern: row i holds colIdx[rowPtr[i]:rowPtr[i+1]]
	colIdx []int
	pivRow []int // original row chosen as pivot at each elimination step

	uDiag []T   // U diagonal, one entry per step
	uPtr  []int // U row k occupies uCols/uVals[uPtr[k]:uPtr[k+1]]
	uCols []int
	uVals []T

	lPtr  []int // L group k occupies lRows/lVals[lPtr[k]:lPtr[k+1]]
	lRows []int
	lVals []T

	work []T // solve scratch

	rowCols   [][]int // active row storage during Factor
	rowVals   [][]T
	mergeCols []int // merge scratch, copied back into the eliminated row's buffers
	mergeVals []T
	byLead    [][]int // active rows bucketed by leading column
}

// NewSparseLU prepares a sparse factorization workspace for the n x n
// pattern given in CSR form, n = len(rowPtr)-1: row i stores columns
// colIdx[rowPtr[i]:rowPtr[i+1]], strictly ascending. The slices are kept,
// not copied. It panics on a malformed pattern.
func NewSparseLU[T Scalar](rowPtr, colIdx []int) *SparseLU[T] {
	n := len(rowPtr) - 1
	bad := n < 0 || rowPtr[0] != 0 || rowPtr[n] != len(colIdx)
	for i := 0; i < n && !bad; i++ {
		bad = rowPtr[i+1] < rowPtr[i]
		for p := rowPtr[i]; p < rowPtr[i+1] && !bad; p++ {
			bad = colIdx[p] < 0 || colIdx[p] >= n || p > rowPtr[i] && colIdx[p] <= colIdx[p-1]
		}
	}
	if bad {
		panic("linalg: malformed CSR pattern (row pointers must rise from 0 to len(colIdx), columns ascend strictly in each row)")
	}
	return &SparseLU[T]{
		n:       n,
		rowPtr:  rowPtr,
		colIdx:  colIdx,
		pivRow:  make([]int, n),
		uDiag:   make([]T, n),
		uPtr:    make([]int, n+1),
		lPtr:    make([]int, n+1),
		work:    make([]T, n),
		rowCols: make([][]int, n),
		rowVals: make([][]T, n),
		byLead:  make([][]int, n),
	}
}

// Factor computes PA = LU from vals, the values of the pattern's entries
// in CSR order. vals is not modified. Entries that are numerically zero
// are dropped on ingest; zeros produced by cancellation during
// elimination are kept, so pivot selection sees the same candidates as
// the dense code. Returns ErrSingular when no usable pivot remains.
func (s *SparseLU[T]) Factor(vals []T) error {
	n := s.n
	if len(vals) != len(s.colIdx) {
		return fmt.Errorf("linalg: Factor got %d values, pattern has %d entries", len(vals), len(s.colIdx))
	}
	s.uCols = s.uCols[:0]
	s.uVals = s.uVals[:0]
	s.lRows = s.lRows[:0]
	s.lVals = s.lVals[:0]
	for c := range s.byLead {
		s.byLead[c] = s.byLead[c][:0]
	}
	for i := 0; i < n; i++ {
		cols := s.rowCols[i][:0]
		row := s.rowVals[i][:0]
		for p := s.rowPtr[i]; p < s.rowPtr[i+1]; p++ {
			if v := vals[p]; v != 0 {
				cols = append(cols, s.colIdx[p])
				row = append(row, v)
			}
		}
		s.rowCols[i], s.rowVals[i] = cols, row
		if len(cols) > 0 {
			s.byLead[cols[0]] = append(s.byLead[cols[0]], i)
		}
	}
	for k := 0; k < n; k++ {
		// The rows with a nonzero in column k are exactly the active rows
		// whose leading column is k: every active row has leading column
		// >= k, and a row leading past k stores nothing at k.
		cand := s.byLead[k]
		p, max := s.pivotRow(cand)
		if p < 0 || max == 0 || math.IsNaN(max) {
			return fmt.Errorf("%w: zero pivot at column %d", ErrSingular, k)
		}
		s.pivRow[k] = p
		pc, pv := s.rowCols[p], s.rowVals[p]
		pivot := pv[0]
		s.uDiag[k] = pivot
		s.uCols = append(s.uCols, pc[1:]...)
		s.uVals = append(s.uVals, pv[1:]...)
		s.uPtr[k+1] = len(s.uCols)
		for _, r := range cand {
			if r == p {
				continue
			}
			rc, rv := s.rowCols[r], s.rowVals[r]
			m := rv[0] / pivot
			s.lRows = append(s.lRows, r)
			s.lVals = append(s.lVals, m)
			// Merge r's tail with -m times the pivot tail (both sorted).
			mc, mv := s.mergeCols[:0], s.mergeVals[:0]
			i, j := 1, 1
			for i < len(rc) && j < len(pc) {
				switch {
				case rc[i] < pc[j]:
					mc = append(mc, rc[i])
					mv = append(mv, rv[i])
					i++
				case rc[i] > pc[j]:
					mc = append(mc, pc[j])
					mv = append(mv, -m*pv[j])
					j++
				default:
					mc = append(mc, rc[i])
					mv = append(mv, rv[i]-m*pv[j])
					i++
					j++
				}
			}
			for ; i < len(rc); i++ {
				mc = append(mc, rc[i])
				mv = append(mv, rv[i])
			}
			for ; j < len(pc); j++ {
				mc = append(mc, pc[j])
				mv = append(mv, -m*pv[j])
			}
			// The merge is copied back into r's own buffers, so each row
			// grows only to its own high-water mark and a sweep whose pivot
			// sequence changes still refactors without allocating.
			s.mergeCols, s.rowCols[r] = mc, append(rc[:0], mc...)
			s.mergeVals, s.rowVals[r] = mv, append(rv[:0], mv...)
			if len(mc) > 0 {
				s.byLead[mc[0]] = append(s.byLead[mc[0]], r)
			}
		}
		s.lPtr[k+1] = len(s.lRows)
	}
	return nil
}

// Fill reports the stored nonzeros of L+U from the last Factor, fill
// included: the diagonal, the U rows and the L multipliers.
func (s *SparseLU[T]) Fill() int { return s.n + len(s.uCols) + len(s.lRows) }

// pivotRow returns the candidate row whose leading entry has the largest
// magnitude (-1 when none is nonzero), and that magnitude. It is the only
// element-type specific step of the sparse factorization; switching once
// per step keeps the candidate scan a plain loop over the concrete type.
func (s *SparseLU[T]) pivotRow(cand []int) (p int, max float64) {
	p = -1
	switch rows := any(s.rowVals).(type) {
	case [][]float64:
		for _, r := range cand {
			if a := math.Abs(rows[r][0]); a > max {
				max, p = a, r
			}
		}
	case [][]complex128:
		for _, r := range cand {
			if a := cmplx.Abs(rows[r][0]); a > max {
				max, p = a, r
			}
		}
	}
	return p, max
}

// Solve solves A x = b using the current factorization, writing the result
// into x (which may alias b). b must have length n.
func (s *SparseLU[T]) Solve(b, x []T) error {
	n := s.n
	if err := checkVectors(len(b), len(x), n); err != nil {
		return err
	}
	c := s.work
	copy(c, b)
	// Forward: apply the L groups in elimination order. By step k every
	// earlier update to the pivot row's entry has already landed.
	for k := 0; k < n; k++ {
		pk := c[s.pivRow[k]]
		if pk == 0 {
			continue
		}
		for i := s.lPtr[k]; i < s.lPtr[k+1]; i++ {
			c[s.lRows[i]] -= s.lVals[i] * pk
		}
	}
	// Back substitution over U; unknown k lives at the step-k pivot row.
	for k := n - 1; k >= 0; k-- {
		sum := c[s.pivRow[k]]
		for i := s.uPtr[k]; i < s.uPtr[k+1]; i++ {
			sum -= s.uVals[i] * x[s.uCols[i]]
		}
		x[k] = sum / s.uDiag[k]
	}
	return nil
}

// SolveT solves the transposed system A^T x = b from the current
// factorization. Writing the forward elimination as a linear operator M
// (the composition of the per-step row updates) and P for the pivot-row
// permutation, Factor establishes M·A = P^T·U, so A^T = U^T·P·M^-T. The
// three sweeps below invert each factor in turn: U^T by ascending scatter
// over the stored U rows, P by placing step values at their pivot rows, and
// M^T by replaying the elimination groups in reverse with rows and columns
// exchanged. One SolveT per frequency is all the adjoint method costs.
// b must have length n; x must not alias b.
func (s *SparseLU[T]) SolveT(b, x []T) error {
	n := s.n
	if err := checkVectors(len(b), len(x), n); err != nil {
		return err
	}
	c := s.work
	copy(c, b)
	// U^T c' = b: U row k stores only columns > k, so c[k] is final once
	// divided by the diagonal; its tail then scatters forward.
	for k := 0; k < n; k++ {
		ck := c[k] / s.uDiag[k]
		c[k] = ck
		if ck == 0 {
			continue
		}
		for i := s.uPtr[k]; i < s.uPtr[k+1]; i++ {
			c[s.uCols[i]] -= s.uVals[i] * ck
		}
	}
	// Undo the permutation: step k's value belongs at pivot row k.
	for k := 0; k < n; k++ {
		x[s.pivRow[k]] = c[k]
	}
	// M^T x' = x: each step's transposed update reads the rows it
	// eliminated (pivots of later steps, already final when walking
	// descending) and folds them into its own pivot row.
	for k := n - 1; k >= 0; k-- {
		sum := x[s.pivRow[k]]
		for i := s.lPtr[k]; i < s.lPtr[k+1]; i++ {
			sum -= s.lVals[i] * x[s.lRows[i]]
		}
		x[s.pivRow[k]] = sum
	}
	return nil
}
