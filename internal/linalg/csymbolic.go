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
// The constructor performs the symbolic analysis once, in time about
// linear in the pattern, the factor and the update map it records (no
// step scans every node): a deterministic fill-reducing minimum-
// degree ordering on the symmetrized pattern (the pivot comes from a heap
// keyed by degree and index, never from a scan), the elimination (fill)
// pattern of L and U under that ordering, a fixed CSR layout holding both
// factors, and an update map that names, for every input entry and every
// elimination update, the slot of that layout it writes.
//
// The caller writes each matrix straight into the factor storage
// (Values), in the factor's slot layout (Layout permutes a value array of
// the input pattern into it once). Refactor then runs an up-looking
// Doolittle elimination with static diagonal pivots in place, following
// the map: no dense workspace, no input scatter, no allocation, and the
// exact same floating-point operation sequence every call — so two
// Refactors of the same values are bit-identical, whether on a fresh or a
// reused instance.
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
	n int

	perm  []int // perm[k] = original index eliminated at step k
	iperm []int // iperm[orig] = elimination step

	// Fixed L+U fill structure, row-major in the permuted ordering. Row k
	// stores its L part (columns < k, ascending, holding the multipliers),
	// the diagonal, then its U part (columns > k, ascending).
	rowPtr []int
	cols   []int
	diag   []int // index into cols/vals of row k's diagonal entry
	vals   []complex128

	// Update map, shared by clones. inSlot[t] is the vals slot of input-CSR
	// entry t. In the order Refactor walks them — rows ascending, each
	// row's L entries ascending, then the U part of the row the entry
	// refers to — upd holds the vals slot each elimination update writes.
	inSlot []int32
	upd    []int32

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
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("linalg: pattern of %d rows exceeds the int32 analysis", n)
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
		perm:  make([]int, n),
		iperm: make([]int, n),
		piv:   make([]pivotDiv, n),
		y:     make([]complex128, n),
	}
	xadj, adj := symmetrize(n, rowPtr, colIdx)
	s.orderMinDegree(xadj, adj)
	s.buildFill(xadj, adj)
	if len(s.cols) > math.MaxInt32 {
		return nil, fmt.Errorf("linalg: factor of %d entries exceeds the int32 update map", len(s.cols))
	}
	s.buildUpdateMap(rowPtr, colIdx)
	s.vals = make([]complex128, len(s.cols))
	return s, nil
}

// symmetrize returns the structurally symmetrized pattern A + Aᵀ without
// its diagonal as flat CSR arrays: node i's neighbors are
// adj[xadj[i]:xadj[i+1]], ascending. Row i of Aᵀ comes from a counting
// transpose, which leaves its entries ascending, so each row is a merge
// of two sorted lists.
func symmetrize(n int, rowPtr, colIdx []int) (xadj []int, adj []int32) {
	tPtr := make([]int, n+1)
	for _, j := range colIdx {
		tPtr[j+1]++
	}
	for j := 0; j < n; j++ {
		tPtr[j+1] += tPtr[j]
	}
	next := slices.Clone(tPtr[:n])
	tIdx := make([]int32, len(colIdx))
	for i := 0; i < n; i++ {
		for _, j := range colIdx[rowPtr[i]:rowPtr[i+1]] {
			tIdx[next[j]] = int32(i)
			next[j]++
		}
	}
	xadj = make([]int, n+1)
	adj = make([]int32, 0, 2*len(colIdx))
	for i := 0; i < n; i++ {
		a, b := colIdx[rowPtr[i]:rowPtr[i+1]], tIdx[tPtr[i]:tPtr[i+1]]
		p, q := 0, 0
		for p < len(a) || q < len(b) {
			var x int
			switch {
			case q == len(b) || (p < len(a) && a[p] < int(b[q])):
				x = a[p]
				p++
			case p == len(a) || int(b[q]) < a[p]:
				x = int(b[q])
				q++
			default:
				x = a[p]
				p++
				q++
			}
			if x != i {
				adj = append(adj, int32(x))
			}
		}
		xadj[i+1] = len(adj)
	}
	return xadj, adj
}

// orderMinDegree computes a deterministic minimum-degree elimination
// ordering: at each step the uneliminated node of smallest current degree
// (lowest index on ties) is eliminated and its neighbors are cliqued.
// A heap keyed by (degree, index) yields that node in O(log n), and only
// the eliminated node's neighbors change degree. The ordering reads
// nothing but degrees and indices, so it is a pure function of the
// pattern, and the neighbor lists need not stay sorted: cliquing is a
// filter and an append.
func (s *CSymbolicLU) orderMinDegree(xadj []int, adj0 []int32) {
	n := s.n
	// Node i's list is arena[at[i]:at[i]+deg[i]], with room up to
	// at[i]+room[i]. A list that outgrows its room moves to the end of
	// the arena with twice the room it needs. The arena holds no
	// pointers, so the lists cost the collector nothing.
	arena := make([]int32, len(adj0), 2*len(adj0)+n)
	copy(arena, adj0)
	at := make([]int, n)
	room := make([]int, n)
	h := degreeHeap{deg: make([]int, n), heap: make([]uint64, n), pos: make([]int32, n)}
	for i := 0; i < n; i++ {
		at[i], room[i] = xadj[i], xadj[i+1]-xadj[i]
		h.deg[i] = room[i]
		h.heap[i] = degreeKey(int32(i), room[i])
		h.pos[i] = int32(i)
	}
	h.init()
	clique := make([]int32, n) // clique[x] == step+1: x is v or a neighbor of v
	var nbrs []int32
	for step := 0; step < n; step++ {
		v := h.pop()
		s.perm[step] = int(v)
		s.iperm[v] = step
		// Copied out, since a neighbor's move may reallocate the arena.
		nbrs = append(nbrs[:0], arena[at[v]:at[v]+h.deg[v]]...)
		m := int32(step + 1)
		clique[v] = m
		for _, u := range nbrs {
			clique[u] = m
		}
		// Clique the neighbors: each u ∈ nbrs keeps its edges outside
		// nbrs ∪ {v} and gains edges to nbrs\{u}.
		for _, u := range nbrs {
			list := arena[at[u] : at[u]+h.deg[u]]
			d := 0
			for _, x := range list {
				if clique[x] != m {
					list[d] = x
					d++
				}
			}
			if need := d + len(nbrs) - 1; need > room[u] {
				moved := len(arena)
				arena = append(arena, list[:d]...)
				arena = slices.Grow(arena, 2*need-d)[:moved+2*need]
				at[u], room[u] = moved, 2*need
			}
			list = arena[at[u] : at[u]+room[u]]
			for _, x := range nbrs {
				if x != u {
					list[d] = x
					d++
				}
			}
			h.update(u, d)
		}
	}
}

// degreeHeap is a binary min-heap of uneliminated nodes ordered by
// (current degree, index), each held as the one key degree<<32 | index,
// with each node's heap position kept so a degree change re-sifts just
// that node.
type degreeHeap struct {
	deg  []int    // current degree of each node
	heap []uint64 // heap-ordered keys
	pos  []int32  // pos[v] = index of v's key in heap
}

func degreeKey(v int32, d int) uint64 { return uint64(d)<<32 | uint64(v) }

func (h *degreeHeap) set(i int, key uint64) {
	h.heap[i] = key
	h.pos[int32(key)] = int32(i)
}

func (h *degreeHeap) init() {
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *degreeHeap) up(i int) {
	key := h.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if h.heap[p] <= key {
			break
		}
		h.set(i, h.heap[p])
		i = p
	}
	h.set(i, key)
}

func (h *degreeHeap) down(i int) {
	key, n := h.heap[i], len(h.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.heap[r] < h.heap[c] {
			c = r
		}
		if key <= h.heap[c] {
			break
		}
		h.set(i, h.heap[c])
		i = c
	}
	h.set(i, key)
}

// pop removes and returns the node of least (degree, index).
func (h *degreeHeap) pop() int32 {
	v := int32(h.heap[0])
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.heap = h.heap[:last]
	if last > 0 {
		h.down(0)
	}
	return v
}

// update sets node v's degree to d and restores the heap order.
func (h *degreeHeap) update(v int32, d int) {
	old := h.deg[v]
	h.deg[v] = d
	i := int(h.pos[v])
	h.heap[i] = degreeKey(v, d)
	if d < old {
		h.up(i)
	} else if d > old {
		h.down(i)
	}
}

// buildFill runs the symbolic elimination under the computed ordering:
// the U-row pattern of step k is its permuted upper adjacency merged with
// the tails of its elimination-tree children (the standard parent-merge
// fill computation), gathered through a marker array and sorted once, and
// the L pattern is its structural transpose. The result is the fixed CSR
// layout rowPtr/cols/diag.
func (s *CSymbolicLU) buildFill(xadj []int, adj []int32) {
	n := s.n
	// U row k holds columns > k: tails[tPtr[k]:tPtr[k+1]], ascending.
	tPtr := make([]int, n+1)
	tails := make([]int32, 0, len(adj))
	mark := make([]int32, n)  // mark[j] == k+1: column j already in row k
	child := make([]int32, n) // child[k]-1: first etree child of k, 0 if none
	sib := make([]int32, n)   // sib[c]-1: next etree child of c's parent
	for k := 0; k < n; k++ {
		lo, m := len(tails), int32(k+1)
		for _, x := range adj[xadj[s.perm[k]]:xadj[s.perm[k]+1]] {
			if j := int32(s.iperm[x]); int(j) > k && mark[j] != m {
				mark[j] = m
				tails = append(tails, j)
			}
		}
		for c := child[k] - 1; c >= 0; c = sib[c] - 1 {
			// tails of c start with k (c's etree parent); add the rest.
			for _, j := range tails[tPtr[c]+1 : tPtr[c+1]] {
				if mark[j] != m {
					mark[j] = m
					tails = append(tails, j)
				}
			}
		}
		slices.Sort(tails[lo:])
		tPtr[k+1] = len(tails)
		if len(tails) > lo {
			p := tails[lo]
			sib[k] = child[p]
			child[p] = int32(k + 1)
		}
	}
	// L row k holds the steps j < k whose U row contains k; walking j
	// ascending fills each L row in ascending order.
	lCount := mark
	clear(lCount)
	for _, c := range tails {
		lCount[c]++
	}
	s.rowPtr = make([]int, n+1)
	s.diag = make([]int, n)
	for k := 0; k < n; k++ {
		s.diag[k] = s.rowPtr[k] + int(lCount[k])
		s.rowPtr[k+1] = s.diag[k] + 1 + tPtr[k+1] - tPtr[k]
	}
	s.cols = make([]int, s.rowPtr[n])
	lNext := slices.Clone(s.rowPtr[:n])
	for j := 0; j < n; j++ {
		for _, c := range tails[tPtr[j]:tPtr[j+1]] {
			s.cols[lNext[c]] = j
			lNext[c]++
		}
	}
	for k := 0; k < n; k++ {
		t := s.diag[k]
		s.cols[t] = k
		for _, j := range tails[tPtr[k]:tPtr[k+1]] {
			t++
			s.cols[t] = int(j)
		}
	}
}

// buildUpdateMap records, for every input entry and every elimination
// update Refactor performs, the vals slot it writes (see the inSlot and
// upd fields). The updates are counted first, so upd is allocated once at
// its final size. The fill is closed under elimination: every column an
// update of row k touches is in row k's pattern, so pos always names a
// slot of that row.
func (s *CSymbolicLU) buildUpdateMap(rowPtr, colIdx []int) {
	n := s.n
	pos := make([]int32, n) // pos[c] = slot of column c in the row being mapped
	setRow := func(k int) {
		for t := s.rowPtr[k]; t < s.rowPtr[k+1]; t++ {
			pos[s.cols[t]] = int32(t)
		}
	}
	s.inSlot = make([]int32, len(colIdx))
	for i := 0; i < n; i++ {
		setRow(s.iperm[i])
		for t := rowPtr[i]; t < rowPtr[i+1]; t++ {
			s.inSlot[t] = pos[s.iperm[colIdx[t]]]
		}
	}
	count := 0
	for k := 0; k < n; k++ {
		for _, j := range s.cols[s.rowPtr[k]:s.diag[k]] {
			count += s.rowPtr[j+1] - s.diag[j] - 1
		}
	}
	s.upd = make([]int32, 0, count)
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

// Layout returns in, a value array in the CSR entry order of the analyzed
// pattern, permuted into the factor's slot layout: entry t lands in the
// slot the factor keeps it in, and every fill slot holds zero. A caller
// that refactors one pattern many times permutes its operands once and
// then writes each matrix straight into Values.
func (s *CSymbolicLU) Layout(in []float64) ([]float64, error) {
	if len(in) != len(s.inSlot) {
		return nil, fmt.Errorf("linalg: Layout got %d values, pattern has %d", len(in), len(s.inSlot))
	}
	out := make([]float64, len(s.cols))
	for t, v := range in {
		out[s.inSlot[t]] = v
	}
	return out, nil
}

// Values returns the instance's factor storage, in the slot layout of
// Layout. Before each Refactor the caller writes the matrix there, every
// slot including the fill slots, since the storage still holds the
// previous factors. Refactor then factors it in place.
func (s *CSymbolicLU) Values() []complex128 { return s.vals }

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

// Refactor numerically factors, in place, the matrix the caller wrote
// into Values. Each row is eliminated in the factor storage: every update
// vals[slot] -= l·u goes to the slot the update map recorded for it, rows
// ascending, so a row's values are final before any later row reads
// them. It allocates nothing and performs a deterministic operation
// sequence, so identical inputs produce bit-identical factors on every
// call. Returns ErrSingular when a pivot cancels to zero or is NaN; the
// factorization is then unusable until the matrix is written again and
// refactored.
func (s *CSymbolicLU) Refactor() error {
	vals, cols, upd := s.vals, s.cols, s.upd
	q := 0 // next entry of upd
	for k := 0; k < s.n; k++ {
		dk := s.diag[k]
		// Up-looking elimination: fold in each already-factored row j this
		// row depends on, ascending, so vals[t] is final when its turn comes.
		for t := s.rowPtr[k]; t < dk; t++ {
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
