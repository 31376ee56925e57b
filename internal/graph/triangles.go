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
	"repro/internal/semiring"
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
// triangles = Σ ((L·U) .* L). With AlgHash the mask is fused into the
// SpGEMM and only its row sums are kept (spgemm.MaskedRowSums); with any
// other algorithm the product is formed and filtered. AlgAuto is resolved
// here, through the recipe's L·U row, before that choice is made, so an
// auto-selected hash kernel fuses the mask too.
//
// The total is summed in int64. Where every stored value of L and U is 1 and
// no row of L holds more than 2²⁶ entries, the row sums run over the float64
// factors, exactly: a partial sum of row i is an integer ≤ nnz(Lᵢ)² < 2⁵³.
// Otherwise they run over int64 copies with every stored non-zero as 1. A
// stored zero is no edge: L is the mask as well as an operand, so its copy
// leaves its zeros out, and every kernel counts the same wedges. opt's Mask
// is ignored (L is the mask), and its Context is used unless copies are.
func CountFromLU(l, u *matrix.CSR, opt *spgemm.Options) (int64, error) {
	if opt == nil {
		opt = &spgemm.Options{Algorithm: spgemm.AlgHash}
	}
	alg := opt.Algorithm
	if alg == spgemm.AlgAuto {
		alg = spgemm.Recommend(l, u, !opt.Unsorted, spgemm.UseTriangle)
	}
	if alg == spgemm.AlgHash && unitFactors(l, u) {
		return maskedCount(semiring.PlusTimesF64{}, l, u, spgemm.Options{Workers: opt.Workers, Stats: opt.Stats, Context: opt.Context})
	}
	li, ui := countView(l, true), countView(u, false)
	inner := spgemm.OptionsG[int64]{Algorithm: alg, Workers: opt.Workers, Unsorted: opt.Unsorted, UseCase: spgemm.UseTriangle, Stats: opt.Stats}
	if alg == spgemm.AlgHash {
		return maskedCount(semiring.PlusTimesI64{}, li, ui, inner)
	}
	b, err := spgemm.MultiplyRing(semiring.PlusTimesI64{}, li, ui, &inner)
	if err != nil {
		return 0, err
	}
	// Filter the full product against L's pattern.
	masked, err := matrix.HadamardG(b, li)
	if err != nil {
		return 0, err
	}
	return masked.Sum(), nil
}

// maskedCount adds the row sums of (L·U) .* L, integers in V, into an int64.
func maskedCount[V float64 | int64, R semiring.Ring[V]](ring R, l, u *matrix.CSRG[V], opt spgemm.OptionsG[V]) (int64, error) {
	opt.Algorithm, opt.Mask = spgemm.AlgHash, l
	sums, err := spgemm.MaskedRowSums(ring, l, u, &opt)
	var n int64
	for _, s := range sums {
		n += int64(s)
	}
	return n, err
}

// unitFactors reports whether l and u store only 1s, in rows of l ≤ 2²⁶ long.
func unitFactors(l, u *matrix.CSR) bool {
	for i := 0; i < l.Rows; i++ {
		if l.RowNNZ(i) > 1<<26 {
			return false
		}
	}
	for _, m := range [2]*matrix.CSR{l, u} {
		for _, v := range m.Val {
			if v != 1 {
				return false
			}
		}
	}
	return true
}

// countView is m over int64 with every stored non-zero as 1. Only the values
// are new: the product reads its operands and never writes them, so the view
// shares m's row pointers and column indices instead of copying them. With
// dropZeros a stored zero is no entry at all, which takes a compacted copy of
// the structure where m stores one.
func countView(m *matrix.CSR, dropZeros bool) *matrix.CSRG[int64] {
	out := &matrix.CSRG[int64]{Rows: m.Rows, Cols: m.Cols, RowPtr: m.RowPtr, ColIdx: m.ColIdx, Val: make([]int64, len(m.Val)), Sorted: m.Sorted}
	zeros := false
	for p, v := range m.Val {
		if v != 0 {
			out.Val[p] = 1
		} else {
			zeros = true
		}
	}
	if dropZeros && zeros {
		out.ColIdx = slices.Clone(m.ColIdx)
		out.Compact()
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
	out := &matrix.CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int64, m.Rows+1), Sorted: m.Sorted}
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		for p := lo; p < hi; p++ {
			if int(m.ColIdx[p]) != i {
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
