package linalg

// The quadratic symbolic analysis CSymbolicLU used before its analysis
// became near-linear, kept as the reference the fast analysis must match
// entry for entry: the same minimum-degree ordering (a full scan for the
// smallest degree, lowest index on ties, explicit neighbor cliques), the
// same parent-merge fill and the same update map.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refAnalysis is the reference analysis of one CSR pattern.
type refAnalysis struct {
	n     int
	perm  []int
	iperm []int

	rowPtr []int
	cols   []int
	diag   []int

	// Input scatter: the input-CSR entries of permuted row k are
	// inPos[inPtr[k]:inPtr[k+1]], landing in slots inTgt[...].
	inPtr []int
	inPos []int32
	inTgt []int32
	upd   []int32
}

// refAnalyze runs the reference analysis on a validated CSR pattern.
func refAnalyze(rowPtr, colIdx []int) *refAnalysis {
	n := len(rowPtr) - 1
	s := &refAnalysis{n: n, perm: make([]int, n), iperm: make([]int, n)}
	s.orderMinDegree(refSymmetrize(n, rowPtr, colIdx))
	s.buildFill(refSymmetrize(n, rowPtr, colIdx))
	s.buildUpdateMap(rowPtr, colIdx)
	return s
}

// refSymmetrize returns, for each node, the sorted off-diagonal neighbor
// set of the structurally symmetrized pattern A + Aᵀ.
func refSymmetrize(n int, rowPtr, colIdx []int) [][]int {
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
		adj[i] = refSortDedup(adj[i])
	}
	return adj
}

// refSortDedup sorts xs ascending and removes duplicates in place.
func refSortDedup(xs []int) []int {
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

// orderMinDegree eliminates, at each step, the uneliminated node of
// smallest current degree (lowest index on ties), found by scanning every
// node, and cliques its neighbors. The adjacency lists are consumed.
func (s *refAnalysis) orderMinDegree(adj [][]int) {
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

// buildFill merges each step's permuted upper adjacency with the tails of
// its elimination-tree children, one sorted-merge allocation per child,
// and lays out rowPtr/cols/diag with L's pattern as U's transpose.
func (s *refAnalysis) buildFill(adj [][]int) {
	n := s.n
	tails := make([][]int, n)
	children := make([][]int, n)
	up := make([]int, 0, n)
	for k := 0; k < n; k++ {
		up = up[:0]
		for _, x := range adj[s.perm[k]] {
			if s.iperm[x] > k {
				up = append(up, s.iperm[x])
			}
		}
		set := refSortDedup(up)
		merged := append([]int(nil), set...)
		for _, c := range children[k] {
			merged = refMergeSorted(merged, tails[c][1:])
		}
		tails[k] = merged
		if len(merged) > 0 {
			children[merged[0]] = append(children[merged[0]], k)
		}
	}
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

// refMergeSorted returns the sorted union of two sorted slices.
func refMergeSorted(a, b []int) []int {
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

// buildUpdateMap records the input scatter and, growing it with append,
// the slot every elimination update writes.
func (s *refAnalysis) buildUpdateMap(rowPtr, colIdx []int) {
	n := s.n
	pos := make([]int32, n)
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
	s.inPos = make([]int32, len(colIdx))
	s.inTgt = make([]int32, len(colIdx))
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

// checkAgainstRef analyzes the pattern both ways and reports the first
// difference in the ordering, the factor layout or the update map.
func checkAgainstRef(rowPtr, colIdx []int) error {
	s, err := NewCSymbolicLU(rowPtr, colIdx)
	if err != nil {
		return err
	}
	r := refAnalyze(rowPtr, colIdx)
	for _, c := range []struct {
		name      string
		got, want []int
	}{
		{"perm", s.perm, r.perm},
		{"iperm", s.iperm, r.iperm},
		{"rowPtr", s.rowPtr, r.rowPtr},
		{"cols", s.cols, r.cols},
		{"diag", s.diag, r.diag},
	} {
		if !slices.Equal(c.got, c.want) {
			return fmt.Errorf("%s differs from the reference (n=%d)", c.name, s.n)
		}
	}
	if !slices.Equal(s.upd, r.upd) {
		return fmt.Errorf("upd differs from the reference (%d vs %d updates)", len(s.upd), len(r.upd))
	}
	for k := 0; k < r.n; k++ {
		for q := r.inPtr[k]; q < r.inPtr[k+1]; q++ {
			if t := r.inPos[q]; s.inSlot[t] != r.inTgt[q] {
				return fmt.Errorf("input entry %d lands in slot %d, reference %d", t, s.inSlot[t], r.inTgt[q])
			}
		}
	}
	return nil
}

// randPattern returns a random CSR pattern of n rows with every diagonal
// present and about m off-diagonal pairs, mirrored (structurally
// symmetric) unless asym is set.
func randPattern(rng *rand.Rand, n, m int, asym bool) (rowPtr, colIdx []int) {
	rows := make([][]int, n)
	for i := range rows {
		rows[i] = []int{i}
	}
	for e := 0; e < m && n > 1; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		rows[i] = append(rows[i], j)
		if !asym || rng.Intn(2) == 0 {
			rows[j] = append(rows[j], i)
		}
	}
	rowPtr = make([]int, n+1)
	for i, r := range rows {
		slices.Sort(r)
		r = slices.Compact(r)
		colIdx = append(colIdx, r...)
		rowPtr[i+1] = len(colIdx)
	}
	return rowPtr, colIdx
}

// TestCSymbolicMatchesReference: on seeded random patterns, structurally
// symmetric and not, from sparse chains to dense blocks, the analysis
// produces the reference's ordering, factor layout and update map.
func TestCSymbolicMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(120)
		m := rng.Intn(4 * n)
		rowPtr, colIdx := randPattern(rng, n, m, trial%4 == 3)
		if err := checkAgainstRef(rowPtr, colIdx); err != nil {
			t.Fatalf("trial %d (n=%d, m=%d): %v", trial, n, m, err)
		}
	}
}

// FuzzCSymbolicMatchesReference widens TestCSymbolicMatchesReference to
// fuzzed sizes, densities and seeds.
func FuzzCSymbolicMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(20), false)
	f.Add(int64(2), uint8(200), uint8(255), false)
	f.Add(int64(3), uint8(64), uint8(7), true)
	f.Add(int64(4), uint8(1), uint8(0), false)
	f.Fuzz(func(t *testing.T, seed int64, n, m uint8, asym bool) {
		rng := rand.New(rand.NewSource(seed))
		rowPtr, colIdx := randPattern(rng, 1+int(n), 4*int(m), asym)
		if err := checkAgainstRef(rowPtr, colIdx); err != nil {
			t.Fatal(err)
		}
	})
}
