package spice

import (
	"cmp"
	"slices"

	"ssnkit/internal/linalg"
)

// sparseThreshold is the unknown count at or above which both engines
// leave the dense backend: the transient engine for SparseLU, the AC
// engine for the symbolic split (or SparseLU when the pattern needs
// pivoting). MNA rows hold O(1) nonzeros, so sparse elimination wins
// early. A var so tests can force either path.
var sparseThreshold = 40

// triplet is one element's contribution to entry (i, j) of an MNA
// matrix: g, plus c times the frequency factor — jω in the AC engine,
// k/h for an integration step h in the transient engine.
type triplet struct {
	i, j int32
	g, c float64
}

// triplets is a stamp list under construction. Stamps in rows or columns
// that carry no unknown (index -1: ground, or a node the transient engine
// eliminates) are skipped.
type triplets []triplet

func (tr *triplets) add(i, j int, g, c float64) {
	if i >= 0 && j >= 0 {
		*tr = append(*tr, triplet{i: int32(i), j: int32(j), g: g, c: c})
	}
}

// pair stamps the two-terminal admittance g + c·s between unknowns i and
// j: +g + c·s on both diagonals, the negation off them.
func (tr *triplets) pair(i, j int, g, c float64) {
	tr.add(i, i, g, c)
	tr.add(i, j, -g, -c)
	tr.add(j, j, g, c)
	tr.add(j, i, -g, -c)
}

// branch stamps the incidence of branch unknown br, whose current leaves
// node unknown i and enters j, into the node rows and the branch row.
func (tr *triplets) branch(i, j, br int) {
	tr.add(i, br, 1, 0)
	tr.add(br, i, 1, 0)
	tr.add(j, br, -1, 0)
	tr.add(br, j, -1, 0)
}

// pivoted builds the pivoted LU backend for a stamp list over n
// unknowns: DenseLU on a row-major n x n value array when dense, else
// SparseLU on the list's merged CSR pattern. It returns the backend, the
// length of its value array and, for each stamp, the slot of that array
// the stamp adds into (i·n+j, or the stamp's entry in the pattern).
func pivoted[T linalg.Scalar](tr []triplet, n int, dense bool) (lu linalg.Solver[T], size int, pos []int32) {
	if dense {
		pos = make([]int32, len(tr))
		for k, t := range tr {
			pos[k] = t.i*int32(n) + t.j
		}
		return linalg.NewDenseLU[T](n), n * n, pos
	}
	rowPtr, colIdx, pos := mergeStamps(tr, n)
	return linalg.NewSparseLU[T](rowPtr, colIdx), len(colIdx), pos
}

// mergeStamps merges a stamp list into the CSR pattern of an n x n
// matrix, columns ascending in each row, and returns for each stamp the
// pattern entry it adds into. Stamps that share an entry keep their stamp
// order within it, so summing them in list order accumulates every entry
// in the same sequence every build.
func mergeStamps(tr []triplet, n int) (rowPtr, colIdx []int, slot []int32) {
	ord := stampOrder(tr, n)
	rowPtr = make([]int, n+1)
	colIdx = make([]int, 0, len(tr))
	slot = make([]int32, len(tr))
	for t, k := range ord {
		if x := tr[k]; t == 0 || x.i != tr[ord[t-1]].i || x.j != tr[ord[t-1]].j {
			colIdx = append(colIdx, int(x.j))
			rowPtr[x.i+1]++
		}
		slot[k] = int32(len(colIdx) - 1)
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	return rowPtr, colIdx, slot
}

// stampOrder returns the indices of tr ordered by (row, column): a
// counting sort by row, then a stable sort of each row's few stamps by
// column, so duplicate contributions keep their stamp order.
func stampOrder(tr []triplet, n int) []int32 {
	at := make([]int, n+1) // next free place of each row; its end once filled
	for _, x := range tr {
		at[x.i+1]++
	}
	for i := 0; i < n; i++ {
		at[i+1] += at[i]
	}
	ord := make([]int32, len(tr))
	for k, x := range tr {
		ord[at[x.i]] = int32(k)
		at[x.i]++
	}
	for i, lo := 0, 0; i < n; i++ {
		slices.SortStableFunc(ord[lo:at[i]], func(a, b int32) int { return cmp.Compare(tr[a].j, tr[b].j) })
		lo = at[i]
	}
	return ord
}
