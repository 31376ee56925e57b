// Package graph implements the graph-algorithm use cases the paper's
// evaluation is built around: triangle counting via L·U (Section 5.6),
// multi-source BFS as square × tall-skinny SpGEMM (Section 5.5), and Markov
// clustering (cited in Section 1 and 5.4 as the canonical A² workload).
package graph

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/matrix"
	"repro/internal/spgemm"
)

// TriangleResult holds the reordered triangular factors of a graph, the
// operands of the L·U step the paper's Figure 17 benchmarks; CountFromLU
// counts the triangles from them.
type TriangleResult struct {
	L, U *matrix.CSR
}

// PrepareTriangles performs the preprocessing of the paper's Section 5.6 on
// an undirected graph: symmetrize and de-weight the adjacency, reorder
// vertices by increasing degree, and split A = L + U into strictly lower and
// upper triangular parts.
func PrepareTriangles(adj *matrix.CSR) (*TriangleResult, error) {
	if adj.Rows != adj.Cols {
		return nil, fmt.Errorf("graph: adjacency must be square, got %dx%d", adj.Rows, adj.Cols)
	}
	// Symmetrize (the generators may emit directed edges), then reset all
	// values to 1: symmetrizing an already-symmetric matrix doubles the
	// values when duplicates merge, and triangle counting needs a 0/1
	// adjacency.
	coo := matrix.FromCSR(adj)
	coo.Symmetrize()
	a := Pattern(coo.ToCSR())
	a = dropDiagonal(a)

	perm := DegreeOrderPerm(a)
	a = ApplySymmetricPermutation(a, perm)

	res := &TriangleResult{
		L: a.LowerTriangle(),
		U: a.UpperTriangle(),
	}
	return res, nil
}

// CountFromLU computes the number of triangles given the triangular split:
// triangles = Σ ((L·U) .* L). With AlgHash it is a pattern count
// (spgemm.MaskedCount): no product is formed, only the wedges L's pattern
// closes are counted. With any other algorithm the product is formed over
// float64 views with every entry as 1, then filtered and summed: an exact
// count, since every partial sum is an integer no larger than the product's
// flop, far below 2^53. AlgAuto is resolved here, through the recipe's L·U
// row, before that choice is made, so an auto-selected hash kernel counts
// too.
//
// A stored zero is no edge, as operand and as mask alike, so every kernel
// counts the same wedges: each runs on L and U themselves unless one stores
// a zero, and then on a copy without them. opt's Context serves the count,
// and the formed product is recycled into it once filtered.
func CountFromLU(l, u *matrix.CSR, opt *spgemm.Options) (int64, error) {
	if opt == nil {
		opt = &spgemm.Options{Algorithm: spgemm.AlgHash}
	}
	alg := opt.Algorithm
	if alg == spgemm.AlgAuto {
		alg = spgemm.Recommend(l, u, !opt.Unsorted, spgemm.UseTriangle)
	}
	l, u = nonzero(l), nonzero(u)
	if alg == spgemm.AlgHash {
		return spgemm.MaskedCount(l, u, l, &spgemm.Options{Workers: opt.Workers, Stats: opt.Stats, Context: opt.Context})
	}
	li, ui := ones(l), ones(u)
	b, err := spgemm.Multiply(li, ui, &spgemm.Options{Algorithm: alg, Workers: opt.Workers, Unsorted: opt.Unsorted,
		UseCase: spgemm.UseTriangle, Stats: opt.Stats, Context: opt.Context})
	if err != nil {
		return 0, err
	}
	// Filter the full product against L's pattern; the filter is a copy, so
	// the product goes back to the Context.
	masked, err := matrix.HadamardG(b, li)
	if err != nil {
		return 0, err
	}
	if opt.Context != nil {
		opt.Context.Recycle(b)
	}
	return int64(masked.Sum()), nil
}

// nonzero is m where it stores no zero, else a copy of m without its stored
// zeros.
func nonzero(m *matrix.CSR) *matrix.CSR {
	if !slices.Contains(m.Val, 0) {
		return m
	}
	return keepEntries(m, func(_ int, _ int32, v float64) bool { return v != 0 })
}

// ones is m with every stored entry as 1. Only the values are new: the
// product reads its operands and never writes them, so it shares m's row
// pointers and column indices instead of copying them.
func ones(m *matrix.CSR) *matrix.CSR {
	out := &matrix.CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: m.RowPtr, ColIdx: m.ColIdx, Val: make([]float64, len(m.Val)), Sorted: m.Sorted}
	for p := range out.Val {
		out.Val[p] = 1
	}
	return out
}

// Pattern returns a copy of m with every stored value set to 1.
func Pattern(m *matrix.CSR) *matrix.CSR {
	out := m.Clone()
	for i := range out.Val {
		out.Val[i] = 1
	}
	return out
}

// dropDiagonal removes self-loops.
func dropDiagonal(m *matrix.CSR) *matrix.CSR {
	return keepEntries(m, func(i int, c int32, _ float64) bool { return int(c) != i })
}

// keepEntries returns a copy of m holding the entries keep accepts, in
// their order.
func keepEntries(m *matrix.CSR, keep func(i int, c int32, v float64) bool) *matrix.CSR {
	out := &matrix.CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int64, m.Rows+1), Sorted: m.Sorted}
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			if keep(i, m.ColIdx[p], m.Val[p]) {
				out.ColIdx = append(out.ColIdx, m.ColIdx[p])
				out.Val = append(out.Val, m.Val[p])
			}
		}
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out
}

// DegreeOrderPerm returns a permutation ordering vertices by increasing
// degree ("for optimal performance in triangle counting, we reorder rows
// with increasing number of nonzeros").
func DegreeOrderPerm(a *matrix.CSR) []int {
	perm := make([]int, a.Rows)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(x, y int) bool {
		return a.RowNNZ(perm[x]) < a.RowNNZ(perm[y])
	})
	return perm
}

// ApplySymmetricPermutation computes P·A·Pᵀ: vertex perm[i] becomes vertex i.
func ApplySymmetricPermutation(a *matrix.CSR, perm []int) *matrix.CSR {
	inv := make([]int32, len(perm))
	for newID, oldID := range perm {
		inv[oldID] = int32(newID)
	}
	out := a.PermuteRows(perm).PermuteCols(inv)
	out.SortRows()
	return out
}
