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
// elimination (fill) pattern of L and U under that ordering, a fixed CSR
// layout holding both factors, and an update map that names, for every
// input entry and every elimination update, the slot of that layout it
// writes. Refactor then runs an up-looking Doolittle elimination with
// static diagonal pivots directly in the factor storage, following the
// map: no dense workspace, no allocation, and the exact same
// floating-point operation sequence every call — so two Refactors of the
// same values are bit-identical, whether on a fresh or a reused instance.
//
// Each final pivot also keeps the divisor half of Go's complex division
// (pivotDiv), so every later division by it — the L multipliers, Solve,
// SolveT, SolveEntry and SymInvDiag — costs two real divides and returns
// exactly the bits Go's / would.
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

	// Update map, shared by clones. Input scatter: the input-CSR entries
	// of permuted row k are inPos[inPtr[k]:inPtr[k+1]] (positions into the
	// caller's value array), added into vals[inTgt[...]]. Elimination: in
	// the order Refactor walks them — rows ascending, each row's L entries
	// ascending, then the U part of the row the entry refers to — upd
	// holds the vals slot each update writes.
	inPtr []int
	inPos []int32
	inTgt []int32
	upd   []int32

	piv []pivotDiv   // per-pivot division parameters of the current factors
	y   []complex128 // solve scratch
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
		piv:   make([]pivotDiv, n),
		y:     make([]complex128, n),
	}
	adj := symmetrizePattern(n, rowPtr, colIdx)
	s.orderMinDegree(adj)
	// Rebuild adjacency (orderMinDegree consumed it) and compute fill.
	adj = symmetrizePattern(n, rowPtr, colIdx)
	s.buildFill(adj)
	if len(s.cols) > math.MaxInt32 {
		return nil, fmt.Errorf("linalg: factor of %d entries exceeds the int32 update map", len(s.cols))
	}
	s.buildUpdateMap(rowPtr, colIdx)
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

// buildUpdateMap records, for every input entry and every elimination
// update Refactor performs, the vals slot it writes (see the upd field).
// The fill is closed under elimination: every column an update of row k
// touches is in row k's pattern, so pos always names a slot of that row.
func (s *CSymbolicLU) buildUpdateMap(rowPtr, colIdx []int) {
	n := s.n
	pos := make([]int32, n) // pos[c] = slot of column c in the row being mapped
	setRow := func(k int) {
		for t := s.rowPtr[k]; t < s.rowPtr[k+1]; t++ {
			pos[s.cols[t]] = int32(t)
		}
	}
	s.inPtr = make([]int, n+1)
	for i := 0; i < n; i++ {
		s.inPtr[s.iperm[i]+1] = rowPtr[i+1] - rowPtr[i]
	}
	for k := 0; k < n; k++ {
		s.inPtr[k+1] += s.inPtr[k]
	}
	s.inPos = make([]int32, s.nnzIn)
	s.inTgt = make([]int32, s.nnzIn)
	for i := 0; i < n; i++ {
		setRow(s.iperm[i])
		base := s.inPtr[s.iperm[i]]
		for t := rowPtr[i]; t < rowPtr[i+1]; t++ {
			s.inPos[base] = int32(t)
			s.inTgt[base] = pos[s.iperm[colIdx[t]]]
			base++
		}
	}
	for k := 0; k < n; k++ {
		setRow(k)
		for _, j := range s.cols[s.rowPtr[k]:s.diag[k]] {
			for _, c := range s.cols[s.diag[j]+1 : s.rowPtr[j+1]] {
				s.upd = append(s.upd, pos[c])
			}
		}
	}
}

// N reports the matrix dimension.
func (s *CSymbolicLU) N() int { return s.n }

// Fill reports the total stored nonzeros of L+U (fill included) — the
// per-refactor work measure the ordering minimizes.
func (s *CSymbolicLU) Fill() int { return len(s.cols) }

// Clone returns an instance that shares the receiver's symbolic analysis
// and update map, which never change after construction, and owns its
// numeric storage (factors, pivot divisors, solve scratch), reusing dst's
// buffers when dst is non-nil and large enough. The clone holds no
// factorization until its own Refactor; after that it solves
// independently of the receiver, so a caller can keep factors of one
// pattern at several value sets at once without repeating the analysis.
func (s *CSymbolicLU) Clone(dst *CSymbolicLU) *CSymbolicLU {
	if dst == nil {
		dst = new(CSymbolicLU)
	}
	vals, piv, y := dst.vals, dst.piv, dst.y
	*dst = *s
	dst.vals = slices.Grow(vals[:0], len(s.vals))[:len(s.vals)]
	dst.piv = slices.Grow(piv[:0], s.n)[:s.n]
	dst.y = slices.Grow(y[:0], s.n)[:s.n]
	return dst
}

// Refactor numerically factors the matrix whose values are given in the
// same CSR entry order the pattern was analyzed with. Each row is
// eliminated in place in the factor storage: its slots are cleared, the
// inputs added, and every update vals[slot] -= l·u goes to the slot the
// update map recorded for it. It allocates nothing and performs a
// deterministic operation sequence, so identical inputs produce
// bit-identical factors on every call. Returns ErrSingular when a pivot
// cancels to zero or is NaN; the factorization is then unusable until a
// successful Refactor.
func (s *CSymbolicLU) Refactor(in []complex128) error {
	if len(in) != s.nnzIn {
		return fmt.Errorf("linalg: Refactor got %d values, pattern has %d", len(in), s.nnzIn)
	}
	vals, cols, upd := s.vals, s.cols, s.upd
	q := 0 // next entry of upd
	for k := 0; k < s.n; k++ {
		lo, hi, dk := s.rowPtr[k], s.rowPtr[k+1], s.diag[k]
		clear(vals[lo:hi])
		for t := s.inPtr[k]; t < s.inPtr[k+1]; t++ {
			vals[s.inTgt[t]] += in[s.inPos[t]]
		}
		// Up-looking elimination: fold in each already-factored row j this
		// row depends on, ascending, so vals[t] is final when its turn comes.
		for t := lo; t < dk; t++ {
			j := cols[t]
			l := s.piv[j].quo(vals[t], vals[s.diag[j]])
			vals[t] = l
			u := vals[s.diag[j]+1 : s.rowPtr[j+1]]
			if l != 0 {
				for i, p := range upd[q : q+len(u)] {
					vals[p] -= l * u[i]
				}
			}
			q += len(u)
		}
		piv := vals[dk]
		if piv == 0 || math.IsNaN(real(piv)) || math.IsNaN(imag(piv)) {
			return fmt.Errorf("%w: zero pivot at elimination step %d", ErrSingular, k)
		}
		s.piv[k] = newPivotDiv(piv)
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
	s.forward(y, 0)
	s.backward(y, 0)
	for k := 0; k < n; k++ {
		x[s.perm[k]] = y[k]
	}
	return nil
}

// forward runs the unit lower triangular sweep L y = y over rows k0 on.
func (s *CSymbolicLU) forward(y []complex128, k0 int) {
	for k := k0; k < s.n; k++ {
		sum := y[k]
		for t := s.rowPtr[k]; t < s.diag[k]; t++ {
			sum -= s.vals[t] * y[s.cols[t]]
		}
		y[k] = sum
	}
}

// backward runs the upper triangular sweep U y = y over rows n-1 down to
// k0.
func (s *CSymbolicLU) backward(y []complex128, k0 int) {
	for k := s.n - 1; k >= k0; k-- {
		sum := y[k]
		for t := s.diag[k] + 1; t < s.rowPtr[k+1]; t++ {
			sum -= s.vals[t] * y[s.cols[t]]
		}
		y[k] = s.piv[k].quo(sum, s.vals[s.diag[k]])
	}
}

// SolveEntry returns the diagonal entry (A⁻¹)_ii, the i-th component of
// the solution of A x = e_i, without the rest of x. With m = iperm[i] the
// permuted right-hand side is the unit vector e_m, so a full Solve's
// forward sweep leaves rows before m at exactly +0 (each is +0 minus
// products of finite factors with +0), and its backward sweep finishes
// row m using only rows after it. SolveEntry runs the forward sweep from
// m and the backward sweep down to m, with the same operations in the
// same order, so whenever the factors are finite it returns the bits of
// Solve(e_i)[i]. Allocation-free.
func (s *CSymbolicLU) SolveEntry(i int) (complex128, error) {
	if i < 0 || i >= s.n {
		return 0, fmt.Errorf("linalg: SolveEntry index %d out of range [0, %d)", i, s.n)
	}
	y := s.y
	m := s.iperm[i]
	clear(y)
	y[m] = 1
	s.forward(y, m)
	s.backward(y, m)
	return y[m], nil
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
	sum := s.piv[m].quo(1, s.vals[s.diag[m]])
	for k := m + 1; k < s.n; k++ {
		var yk complex128
		for t := s.rowPtr[k]; t < s.diag[k]; t++ {
			yk -= s.vals[t] * y[s.cols[t]]
		}
		y[k] = yk
		if yk != 0 {
			sum += s.piv[k].quo(yk*yk, s.vals[s.diag[k]])
		}
	}
	return sum, nil
}

// SolveT solves the transposed system Aᵀ x = b. With the symmetric
// permutation P A Pᵀ = L U, the permuted transpose factors as Uᵀ Lᵀ: a
// forward scatter sweep over U's rows (Uᵀ is lower triangular with U's
// diagonal) followed by a backward scatter sweep over L's rows (Lᵀ is
// unit upper). The intermediate lives in a scratch vector, so x may alias
// b. Allocation-free.
func (s *CSymbolicLU) SolveT(b, x []complex128) error {
	n := s.n
	if len(b) != n || len(x) != n {
		return fmt.Errorf("linalg: SolveT vector length %d/%d, want %d", len(b), len(x), n)
	}
	y := s.y
	for k := 0; k < n; k++ {
		y[k] = b[s.perm[k]]
	}
	// Uᵀ z = b': row-major U is column-major Uᵀ, so finalize y[k] and
	// scatter its tail forward.
	for k := 0; k < n; k++ {
		yk := s.piv[k].quo(y[k], s.vals[s.diag[k]])
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

// pivotDiv is the divisor half of Go's complex division for one pivot m:
// the branch, ratio and denominator of Smith's algorithm exactly as
// runtime.complex128div computes them, kept so that n/m for many n costs
// two real divides. The expressions below are the runtime's, operand for
// operand, so they round (and contract, where the target fuses multiply-
// adds) the same way.
type pivotDiv struct {
	ratio, denom float64
	reBig        bool // |real(m)| >= |imag(m)|
}

func newPivotDiv(m complex128) pivotDiv {
	if math.Abs(real(m)) >= math.Abs(imag(m)) {
		ratio := imag(m) / real(m)
		return pivotDiv{ratio: ratio, denom: real(m) + ratio*imag(m), reBig: true}
	}
	ratio := real(m) / imag(m)
	return pivotDiv{ratio: ratio, denom: imag(m) + ratio*real(m)}
}

// quo returns n/m bit for bit, m being the pivot p was built from. When
// both parts come out NaN the runtime applies the C99 infinity and zero
// corrections, so that rare case defers to / itself.
func (p *pivotDiv) quo(n, m complex128) complex128 {
	var e, f float64
	if p.reBig {
		e = (real(n) + imag(n)*p.ratio) / p.denom
		f = (imag(n) - real(n)*p.ratio) / p.denom
	} else {
		e = (real(n)*p.ratio + imag(n)) / p.denom
		f = (imag(n)*p.ratio - real(n)) / p.denom
	}
	if e != e && f != f {
		return n / m
	}
	return complex(e, f)
}
