package linalg

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrNeedsPivoting reports a sparsity pattern the symbolic backend cannot
// factor with static (diagonal) pivoting — some row has no structural
// diagonal entry, as voltage-source branch rows do. Callers fall back to
// the pivoted SparseLU[complex128] path.
var ErrNeedsPivoting = errors.New("linalg: pattern has a structurally zero diagonal, needs pivoting")

// CSymbolicLU is the symbolic/numeric split counterpart of SparseLU for
// matrices whose sparsity pattern is fixed across many factorizations —
// the AC sweep case, where G + jωC changes values but never structure.
//
// The constructor performs the symbolic analysis once: a deterministic
// fill-reducing minimum-degree ordering on the symmetrized pattern, the
// elimination (fill) pattern of L and U under that ordering, and a fixed
// CSR layout holding both factors. Refactor then runs an up-looking
// Doolittle elimination with static diagonal pivots into that layout,
// touching no allocator and executing the exact same floating-point
// operation sequence every call — so two Refactors of the same values are
// bit-identical, whether on a fresh or a reused instance.
//
// Static pivoting is safe exactly when every diagonal is structurally
// present and numerically dominant-ish; MNA matrices of pure R/L/C
// networks qualify (every branch diagonal carries -jωL, every node
// diagonal a conductance or susceptance). Patterns with structurally zero
// diagonals — voltage-source incidence rows — are rejected at analysis
// time with ErrNeedsPivoting, and an exactly-cancelled or NaN pivot at
// Refactor time returns ErrSingular; callers keep the pivoted SparseLU
// as the fallback for both.
//
// A CSymbolicLU is not safe for concurrent use.
type CSymbolicLU struct {
	n     int
	nnzIn int

	perm  []int // perm[k] = original index eliminated at step k
	iperm []int // iperm[orig] = elimination step

	// Fixed L+U fill structure, row-major in the permuted ordering. Row k
	// stores its L part (columns < k, ascending, holding the multipliers),
	// the diagonal, then its U part (columns > k, ascending).
	rowPtr []int
	cols   []int
	diag   []int // index into cols/vals of row k's diagonal entry
	vals   []complex128

	// Input scatter plan: the input-CSR entries belonging to permuted row
	// k are inPos[inPtr[k]:inPtr[k+1]] (positions into the caller's value
	// array), landing at permuted columns inCol[...].
	inPtr []int
	inPos []int
	inCol []int

	w []complex128 // dense elimination workspace
	y []complex128 // solve scratch
}

// NewCSymbolicLU analyzes the sparsity pattern given as CSR row pointers
// and column indices (columns strictly increasing within each row). The
// analysis orders the matrix by minimum degree on the symmetrized
// pattern, precomputes the elimination fill, and allocates every buffer
// Refactor, Solve and SolveT will ever need. Returns ErrNeedsPivoting
// when some row lacks a structural diagonal entry.
func NewCSymbolicLU(rowPtr, colIdx []int) (*CSymbolicLU, error) {
	n := len(rowPtr) - 1
	if n <= 0 {
		return nil, fmt.Errorf("linalg: symbolic analysis of empty pattern")
	}
	if rowPtr[0] != 0 || rowPtr[n] != len(colIdx) {
		return nil, fmt.Errorf("linalg: malformed CSR row pointers")
	}
	for i := 0; i < n; i++ {
		if rowPtr[i] > rowPtr[i+1] {
			return nil, fmt.Errorf("linalg: CSR row pointers not ascending at row %d", i)
		}
		hasDiag := false
		for t := rowPtr[i]; t < rowPtr[i+1]; t++ {
			j := colIdx[t]
			if j < 0 || j >= n {
				return nil, fmt.Errorf("linalg: CSR column %d out of range in row %d", j, i)
			}
			if t > rowPtr[i] && j <= colIdx[t-1] {
				return nil, fmt.Errorf("linalg: CSR columns not strictly increasing in row %d", i)
			}
			if j == i {
				hasDiag = true
			}
		}
		if !hasDiag {
			return nil, fmt.Errorf("%w (row %d)", ErrNeedsPivoting, i)
		}
	}
	s := &CSymbolicLU{
		n:     n,
		nnzIn: len(colIdx),
		perm:  make([]int, n),
		iperm: make([]int, n),
		w:     make([]complex128, n),
		y:     make([]complex128, n),
	}
	adj := symmetrizePattern(n, rowPtr, colIdx)
	s.orderMinDegree(adj)
	// Rebuild adjacency (orderMinDegree consumed it) and compute fill.
	adj = symmetrizePattern(n, rowPtr, colIdx)
	s.buildFill(adj)
	s.buildScatter(rowPtr, colIdx)
	s.vals = make([]complex128, len(s.cols))
	return s, nil
}

// symmetrizePattern returns, for each node, the sorted off-diagonal
// neighbor set of the structurally symmetrized pattern A + Aᵀ.
func symmetrizePattern(n int, rowPtr, colIdx []int) [][]int {
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		for t := rowPtr[i]; t < rowPtr[i+1]; t++ {
			if j := colIdx[t]; j != i {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	for i := range adj {
		adj[i] = sortDedupInts(adj[i])
	}
	return adj
}

// sortDedupInts sorts xs ascending and removes duplicates in place.
func sortDedupInts(xs []int) []int {
	// Insertion sort: neighbor lists are short (mesh degree), and the
	// analysis is one-time; determinism matters more than asymptotics.
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// orderMinDegree computes a deterministic minimum-degree elimination
// ordering: at each step the uneliminated node of smallest current degree
// (lowest index on ties) is eliminated and its neighbors are cliqued.
// The adjacency lists are consumed. Everything iterates over sorted
// slices — no map order leaks in, so the ordering is reproducible.
func (s *CSymbolicLU) orderMinDegree(adj [][]int) {
	n := s.n
	done := make([]bool, n)
	scratch := make([]int, 0, n)
	for step := 0; step < n; step++ {
		v, best := -1, n+1
		for i := 0; i < n; i++ {
			if !done[i] && len(adj[i]) < best {
				v, best = i, len(adj[i])
			}
		}
		s.perm[step] = v
		s.iperm[v] = step
		done[v] = true
		nbrs := adj[v]
		// Clique the neighbors: each u ∈ nbrs gains edges to nbrs\{u} and
		// loses its edge to v.
		for _, u := range nbrs {
			scratch = scratch[:0]
			a, b := adj[u], nbrs
			i, j := 0, 0
			for i < len(a) || j < len(b) {
				var x int
				switch {
				case j >= len(b) || (i < len(a) && a[i] < b[j]):
					x = a[i]
					i++
				case i >= len(a) || b[j] < a[i]:
					x = b[j]
					j++
				default:
					x = a[i]
					i++
					j++
				}
				if x != v && x != u {
					scratch = append(scratch, x)
				}
			}
			adj[u] = append(adj[u][:0], scratch...)
		}
		adj[v] = nil
	}
}

// buildFill runs the symbolic elimination under the computed ordering:
// the U-row pattern of step k is its permuted upper adjacency merged with
// the tails of its elimination-tree children (the standard parent-merge
// fill computation), and the L pattern is its structural transpose. The
// result is the fixed CSR layout rowPtr/cols/diag.
func (s *CSymbolicLU) buildFill(adj [][]int) {
	n := s.n
	tails := make([][]int, n)    // U row k: columns > k, sorted
	children := make([][]int, n) // elimination-tree children of step k
	up := make([]int, 0, n)
	for k := 0; k < n; k++ {
		up = up[:0]
		for _, x := range adj[s.perm[k]] {
			if s.iperm[x] > k {
				up = append(up, s.iperm[x])
			}
		}
		set := sortDedupInts(up)
		merged := append([]int(nil), set...)
		for _, c := range children[k] {
			// tails[c][0] == k (c's etree parent); merge the rest.
			merged = mergeSorted(merged, tails[c][1:])
		}
		tails[k] = merged
		if len(merged) > 0 {
			children[merged[0]] = append(children[merged[0]], k)
		}
	}
	// L pattern is the transpose of U's: walking j ascending appends each
	// row's L columns already in ascending order.
	lcols := make([][]int, n)
	for j := 0; j < n; j++ {
		for _, c := range tails[j] {
			lcols[c] = append(lcols[c], j)
		}
	}
	s.rowPtr = make([]int, n+1)
	s.diag = make([]int, n)
	for k := 0; k < n; k++ {
		s.rowPtr[k+1] = s.rowPtr[k] + len(lcols[k]) + 1 + len(tails[k])
	}
	s.cols = make([]int, s.rowPtr[n])
	for k := 0; k < n; k++ {
		t := s.rowPtr[k]
		t += copy(s.cols[t:], lcols[k])
		s.diag[k] = t
		s.cols[t] = k
		t++
		copy(s.cols[t:], tails[k])
	}
}

// mergeSorted returns the sorted union of two sorted slices, reusing a's
// backing array when it has room.
func mergeSorted(a, b []int) []int {
	if len(b) == 0 {
		return a
	}
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// buildScatter groups the input CSR positions by permuted row so Refactor
// can scatter a value array straight into the elimination workspace.
func (s *CSymbolicLU) buildScatter(rowPtr, colIdx []int) {
	n := s.n
	s.inPtr = make([]int, n+1)
	for i := 0; i < n; i++ {
		s.inPtr[s.iperm[i]+1] = rowPtr[i+1] - rowPtr[i]
	}
	for k := 0; k < n; k++ {
		s.inPtr[k+1] += s.inPtr[k]
	}
	s.inPos = make([]int, s.nnzIn)
	s.inCol = make([]int, s.nnzIn)
	for i := 0; i < n; i++ {
		base := s.inPtr[s.iperm[i]]
		for t := rowPtr[i]; t < rowPtr[i+1]; t++ {
			s.inPos[base] = t
			s.inCol[base] = s.iperm[colIdx[t]]
			base++
		}
	}
}

// N reports the matrix dimension.
func (s *CSymbolicLU) N() int { return s.n }

// Fill reports the total stored nonzeros of L+U (fill included) — the
// per-refactor work measure the ordering minimizes.
func (s *CSymbolicLU) Fill() int { return len(s.cols) }

// Clone returns an instance that shares the receiver's symbolic analysis,
// which never changes after construction, and owns its numeric storage,
// reusing dst's buffers when dst is non-nil and large enough. The clone
// holds no factorization until its own Refactor; after that it solves
// independently of the receiver, so a caller can keep factors of one
// pattern at several value sets at once without repeating the analysis.
func (s *CSymbolicLU) Clone(dst *CSymbolicLU) *CSymbolicLU {
	if dst == nil {
		dst = new(CSymbolicLU)
	}
	vals, w, y := dst.vals, dst.w, dst.y
	*dst = *s
	dst.vals = slices.Grow(vals[:0], len(s.vals))[:len(s.vals)]
	dst.w = slices.Grow(w[:0], s.n)[:s.n]
	dst.y = slices.Grow(y[:0], s.n)[:s.n]
	return dst
}

// Refactor numerically factors the matrix whose values are given in the
// same CSR entry order the pattern was analyzed with. It allocates
// nothing and performs a deterministic operation sequence, so identical
// inputs produce bit-identical factors on every call. Returns ErrSingular
// when a pivot cancels to zero or is NaN; the factorization is then
// unusable until a successful Refactor.
func (s *CSymbolicLU) Refactor(in []complex128) error {
	if len(in) != s.nnzIn {
		return fmt.Errorf("linalg: Refactor got %d values, pattern has %d", len(in), s.nnzIn)
	}
	w, vals, cols := s.w, s.vals, s.cols
	for k := 0; k < s.n; k++ {
		lo, hi, dk := s.rowPtr[k], s.rowPtr[k+1], s.diag[k]
		for t := lo; t < hi; t++ {
			w[cols[t]] = 0
		}
		for t := s.inPtr[k]; t < s.inPtr[k+1]; t++ {
			w[s.inCol[t]] += in[s.inPos[t]]
		}
		// Up-looking elimination: fold in each already-factored row j this
		// row depends on, ascending, so w[j] is final when its turn comes.
		for t := lo; t < dk; t++ {
			j := cols[t]
			l := w[j] / vals[s.diag[j]]
			w[j] = l
			if l != 0 {
				for u := s.diag[j] + 1; u < s.rowPtr[j+1]; u++ {
					w[cols[u]] -= l * vals[u]
				}
			}
		}
		piv := w[k]
		if piv == 0 || math.IsNaN(real(piv)) || math.IsNaN(imag(piv)) {
			return fmt.Errorf("%w: zero pivot at elimination step %d", ErrSingular, k)
		}
		for t := lo; t < hi; t++ {
			vals[t] = w[cols[t]]
		}
	}
	return nil
}

// Solve solves A x = b using the current factorization, writing into x
// (which may alias b). Allocation-free.
func (s *CSymbolicLU) Solve(b, x []complex128) error {
	n := s.n
	if len(b) != n || len(x) != n {
		return fmt.Errorf("linalg: Solve vector length %d/%d, want %d", len(b), len(x), n)
	}
	y := s.y
	for k := 0; k < n; k++ {
		y[k] = b[s.perm[k]]
	}
	// Forward: L is unit lower triangular in the row layout.
	for k := 0; k < n; k++ {
		sum := y[k]
		for t := s.rowPtr[k]; t < s.diag[k]; t++ {
			sum -= s.vals[t] * y[s.cols[t]]
		}
		y[k] = sum
	}
	// Backward over U.
	for k := n - 1; k >= 0; k-- {
		sum := y[k]
		for t := s.diag[k] + 1; t < s.rowPtr[k+1]; t++ {
			sum -= s.vals[t] * y[s.cols[t]]
		}
		y[k] = sum / s.vals[s.diag[k]]
	}
	for k := 0; k < n; k++ {
		x[s.perm[k]] = y[k]
	}
	return nil
}

// SymInvDiag returns the diagonal entry (A⁻¹)_ii of a complex-symmetric
// A (A = Aᵀ, as AC MNA matrices are) with one forward substitution
// instead of a full solve. Under the symmetric permutation P A Pᵀ = L U,
// symmetry makes U = D Lᵀ with D = diag(U), so (A⁻¹)_ii = Σ_k y_k²/d_k
// where L y is the permuted unit vector of i. y is zero before step
// iperm[i], and after it nonzero only along i's elimination-tree path, so
// the sweep starts there and divides only for the nonzeros. Up to
// rounding this equals a full Solve's entry; it is not bit-identical to
// it, since U and D Lᵀ round differently. Allocation-free.
func (s *CSymbolicLU) SymInvDiag(i int) (complex128, error) {
	if i < 0 || i >= s.n {
		return 0, fmt.Errorf("linalg: SymInvDiag index %d out of range [0, %d)", i, s.n)
	}
	y := s.y
	m := s.iperm[i]
	clear(y[:m])
	y[m] = 1
	sum := 1 / s.vals[s.diag[m]]
	for k := m + 1; k < s.n; k++ {
		var yk complex128
		for t := s.rowPtr[k]; t < s.diag[k]; t++ {
			yk -= s.vals[t] * y[s.cols[t]]
		}
		y[k] = yk
		if yk != 0 {
			sum += yk * yk / s.vals[s.diag[k]]
		}
	}
	return sum, nil
}

// SolveT solves the transposed system Aᵀ x = b. With the symmetric
// permutation P A Pᵀ = L U, the permuted transpose factors as Uᵀ Lᵀ: a
// forward scatter sweep over U's rows (Uᵀ is lower triangular with U's
// diagonal) followed by a backward scatter sweep over L's rows (Lᵀ is
// unit upper). x must not alias b is not required — a scratch vector
// carries the intermediate. Allocation-free.
func (s *CSymbolicLU) SolveT(b, x []complex128) error {
	n := s.n
	if len(b) != n || len(x) != n {
		return fmt.Errorf("linalg: Solve vector length %d/%d, want %d", len(b), len(x), n)
	}
	y := s.y
	for k := 0; k < n; k++ {
		y[k] = b[s.perm[k]]
	}
	// Uᵀ z = b': row-major U is column-major Uᵀ, so finalize y[k] and
	// scatter its tail forward.
	for k := 0; k < n; k++ {
		yk := y[k] / s.vals[s.diag[k]]
		y[k] = yk
		if yk == 0 {
			continue
		}
		for t := s.diag[k] + 1; t < s.rowPtr[k+1]; t++ {
			y[s.cols[t]] -= s.vals[t] * yk
		}
	}
	// Lᵀ x' = z: walking k descending, y[k] is final; scatter its column
	// contributions (L row k's entries) backward.
	for k := n - 1; k >= 0; k-- {
		yk := y[k]
		if yk == 0 {
			continue
		}
		for t := s.rowPtr[k]; t < s.diag[k]; t++ {
			y[s.cols[t]] -= s.vals[t] * yk
		}
	}
	for k := 0; k < n; k++ {
		x[s.perm[k]] = y[k]
	}
	return nil
}
