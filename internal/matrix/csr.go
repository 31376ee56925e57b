// Package matrix provides sparse matrix storage formats and the structural
// operations the SpGEMM algorithms in this repository are built on.
//
// The central type is CSRG[V] (Compressed Sparse Rows, generic over the
// stored value type): three arrays — row pointers, column indices and values
// — exactly as described in Section 2 of Nagasaka et al. (ICPP 2018), with
// the value type chosen per workload (float64 numerics, bool or packed
// uint64 words for reachability). CSR and COO are aliases for
// the float64 instantiations, preserving the historic API. Column indices
// within a row may be sorted or unsorted; the Sorted flag records which,
// because several SpGEMM algorithms in this repository behave differently
// (and are benchmarked differently) depending on sortedness.
package matrix

import (
	"fmt"
	"sort"

	"repro/internal/semiring"
)

// CSRG is a sparse matrix in Compressed Sparse Rows format, generic over the
// stored value type V.
//
// RowPtr has length Rows+1; the column indices and values of row i live in
// ColIdx[RowPtr[i]:RowPtr[i+1]] and Val[RowPtr[i]:RowPtr[i+1]].
//
// Column indices are int32 (the paper's implementations use 32-bit keys) and
// row pointers are int64 so that matrices with more than 2^31 nonzeros are
// representable.
type CSRG[V semiring.Value] struct {
	Rows, Cols int
	RowPtr     []int64
	ColIdx     []int32
	Val        []V
	// Sorted reports whether every row's column indices are in strictly
	// increasing order. Algorithms that require sorted inputs check this
	// flag; algorithms that emit unsorted output clear it.
	Sorted bool
}

// CSR is the float64 instantiation — the historic type of this package, and
// still the default for all numeric work.
type CSR = CSRG[float64]

// NewCSR returns an empty Rows×Cols float64 matrix with no nonzeros.
func NewCSR(rows, cols int) *CSR { return NewCSRG[float64](rows, cols) }

// NewCSRG returns an empty Rows×Cols matrix with no nonzeros over V.
func NewCSRG[V semiring.Value](rows, cols int) *CSRG[V] {
	return &CSRG[V]{
		Rows:   rows,
		Cols:   cols,
		RowPtr: make([]int64, rows+1),
		ColIdx: []int32{},
		Val:    []V{},
		Sorted: true,
	}
}

// NNZ returns the number of stored nonzero entries.
func (m *CSRG[V]) NNZ() int64 {
	if len(m.RowPtr) == 0 {
		return 0
	}
	return m.RowPtr[m.Rows]
}

// RowNNZ returns the number of stored entries in row i.
func (m *CSRG[V]) RowNNZ(i int) int64 {
	return m.RowPtr[i+1] - m.RowPtr[i]
}

// Row returns the column-index and value slices of row i. The slices alias
// the matrix storage; callers must not grow them.
func (m *CSRG[V]) Row(i int) ([]int32, []V) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.ColIdx[lo:hi], m.Val[lo:hi]
}

// Clone returns a deep copy of m.
func (m *CSRG[V]) Clone() *CSRG[V] {
	c := &CSRG[V]{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: append([]int64(nil), m.RowPtr...),
		ColIdx: append([]int32(nil), m.ColIdx...),
		Val:    append([]V(nil), m.Val...),
		Sorted: m.Sorted,
	}
	return c
}

// Validate checks the CSR structural invariants: monotone row pointers,
// in-range column indices, consistent array lengths, and — when Sorted is
// set — strictly increasing column indices within each row. It returns a
// descriptive error for the first violation found.
func (m *CSRG[V]) Validate() error {
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("matrix: negative dimensions %dx%d", m.Rows, m.Cols)
	}
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("matrix: RowPtr length %d, want %d", len(m.RowPtr), m.Rows+1)
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("matrix: RowPtr[0] = %d, want 0", m.RowPtr[0])
	}
	nnz := m.RowPtr[m.Rows]
	if int64(len(m.ColIdx)) != nnz {
		return fmt.Errorf("matrix: ColIdx length %d, want %d", len(m.ColIdx), nnz)
	}
	if int64(len(m.Val)) != nnz {
		return fmt.Errorf("matrix: Val length %d, want %d", len(m.Val), nnz)
	}
	for i := 0; i < m.Rows; i++ {
		if m.RowPtr[i] > m.RowPtr[i+1] {
			return fmt.Errorf("matrix: RowPtr not monotone at row %d: %d > %d", i, m.RowPtr[i], m.RowPtr[i+1])
		}
	}
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		var prev int32 = -1
		for p := lo; p < hi; p++ {
			c := m.ColIdx[p]
			if c < 0 || int(c) >= m.Cols {
				return fmt.Errorf("matrix: row %d has column %d out of range [0,%d)", i, c, m.Cols)
			}
			if m.Sorted {
				if c <= prev {
					return fmt.Errorf("matrix: row %d not strictly sorted at position %d (%d after %d)", i, p-lo, c, prev)
				}
				prev = c
			}
		}
	}
	return nil
}

// SortRows sorts the column indices (and values) of each row into increasing
// order, in place, and sets Sorted. Duplicate columns within a row are not
// merged; use Compact for that.
func (m *CSRG[V]) SortRows() {
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		sortRowSegment(m.ColIdx[lo:hi], m.Val[lo:hi])
	}
	m.Sorted = true
}

// sortRowSegment sorts cols ascending, permuting vals identically.
func sortRowSegment[V semiring.Value](cols []int32, vals []V) {
	if len(cols) < 2 {
		return
	}
	if sort.SliceIsSorted(cols, func(a, b int) bool { return cols[a] < cols[b] }) {
		return
	}
	sort.Sort(&rowSorter[V]{cols, vals})
}

type rowSorter[V semiring.Value] struct {
	cols []int32
	vals []V
}

func (s *rowSorter[V]) Len() int           { return len(s.cols) }
func (s *rowSorter[V]) Less(i, j int) bool { return s.cols[i] < s.cols[j] }
func (s *rowSorter[V]) Swap(i, j int) {
	s.cols[i], s.cols[j] = s.cols[j], s.cols[i]
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
}

// Compact merges duplicate column entries within each row (combining their
// values with V's conventional addition — numeric +, logical OR for bool)
// and drops explicit storage zeros. Rows are left sorted. The matrix is
// modified in place and also returned for chaining.
func (m *CSRG[V]) Compact() *CSRG[V] { return m.compact(false) }

// compact is Compact with the choice of keeping the storage zeros: a reader
// of a format that lists its entries one by one (Matrix Market) must hand
// back every position the text names, a stored 0 or -0 included.
func (m *CSRG[V]) compact(keepZeros bool) *CSRG[V] {
	if !m.Sorted {
		m.SortRows()
	}
	out := int64(0)
	newPtr := make([]int64, m.Rows+1)
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		p := lo
		for p < hi {
			c := m.ColIdx[p]
			v := m.Val[p]
			p++
			for p < hi && m.ColIdx[p] == c {
				v = addValue(v, m.Val[p])
				p++
			}
			if keepZeros || !isZeroValue(v) {
				m.ColIdx[out] = c
				m.Val[out] = v
				out++
			}
		}
		newPtr[i+1] = out
	}
	m.RowPtr = newPtr
	m.ColIdx = m.ColIdx[:out]
	m.Val = m.Val[:out]
	return m
}

// IsSortedRows reports whether each row's column indices are strictly
// increasing, regardless of the Sorted flag. Useful in tests.
func (m *CSRG[V]) IsSortedRows() bool {
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		for p := lo + 1; p < hi; p++ {
			if m.ColIdx[p] <= m.ColIdx[p-1] {
				return false
			}
		}
	}
	return true
}

// Transpose returns the transpose of m in CSR format (equivalently, m in CSC
// format reinterpreted). The output has sorted rows.
func (m *CSRG[V]) Transpose() *CSRG[V] {
	t := &CSRG[V]{
		Rows:   m.Cols,
		Cols:   m.Rows,
		RowPtr: make([]int64, m.Cols+1),
		ColIdx: make([]int32, m.NNZ()),
		Val:    make([]V, m.NNZ()),
		Sorted: true,
	}
	for _, c := range m.ColIdx {
		t.RowPtr[c+1]++
	}
	for i := 0; i < m.Cols; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := make([]int64, m.Cols)
	copy(next, t.RowPtr[:m.Cols])
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		for p := lo; p < hi; p++ {
			c := m.ColIdx[p]
			q := next[c]
			t.ColIdx[q] = int32(i)
			t.Val[q] = m.Val[p]
			next[c] = q + 1
		}
	}
	return t
}

// PermuteCols relabels columns through perm (new column of old column j is
// perm[j]). Used to produce the "randomly permuted column indices" unsorted
// inputs of the paper's evaluation. The result is marked unsorted.
func (m *CSRG[V]) PermuteCols(perm []int32) *CSRG[V] {
	if len(perm) != m.Cols {
		panic(fmt.Sprintf("matrix: PermuteCols perm length %d, want %d", len(perm), m.Cols))
	}
	out := m.Clone()
	for i, c := range out.ColIdx {
		out.ColIdx[i] = perm[c]
	}
	out.Sorted = false
	return out
}

// PermuteRows reorders rows through perm: output row i is input row perm[i].
func (m *CSRG[V]) PermuteRows(perm []int) *CSRG[V] {
	if len(perm) != m.Rows {
		panic(fmt.Sprintf("matrix: PermuteRows perm length %d, want %d", len(perm), m.Rows))
	}
	out := &CSRG[V]{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: make([]int64, m.Rows+1),
		ColIdx: make([]int32, m.NNZ()),
		Val:    make([]V, m.NNZ()),
		Sorted: m.Sorted,
	}
	pos := int64(0)
	for i := 0; i < m.Rows; i++ {
		src := perm[i]
		lo, hi := m.RowPtr[src], m.RowPtr[src+1]
		copy(out.ColIdx[pos:], m.ColIdx[lo:hi])
		copy(out.Val[pos:], m.Val[lo:hi])
		pos += hi - lo
		out.RowPtr[i+1] = pos
	}
	return out
}

// Identity returns the n×n float64 identity matrix.
func Identity(n int) *CSR { return IdentityG[float64](n) }

// IdentityG returns the n×n identity over V (diagonal of multiplicative
// ones — true for bool).
func IdentityG[V semiring.Value](n int) *CSRG[V] {
	m := &CSRG[V]{
		Rows:   n,
		Cols:   n,
		RowPtr: make([]int64, n+1),
		ColIdx: make([]int32, n),
		Val:    make([]V, n),
		Sorted: true,
	}
	one := oneValue[V]()
	for i := 0; i < n; i++ {
		m.RowPtr[i+1] = int64(i + 1)
		m.ColIdx[i] = int32(i)
		m.Val[i] = one
	}
	return m
}

// LowerTriangle returns the strictly lower triangular part of m (entries with
// column < row), preserving row sortedness.
func (m *CSRG[V]) LowerTriangle() *CSRG[V] { return m.triangle(true) }

// UpperTriangle returns the strictly upper triangular part of m (entries with
// column > row), preserving row sortedness.
func (m *CSRG[V]) UpperTriangle() *CSRG[V] { return m.triangle(false) }

func (m *CSRG[V]) triangle(lower bool) *CSRG[V] {
	out := &CSRG[V]{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int64, m.Rows+1), Sorted: m.Sorted}
	var cols []int32
	var vals []V
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		for p := lo; p < hi; p++ {
			c := m.ColIdx[p]
			if (lower && int(c) < i) || (!lower && int(c) > i) {
				cols = append(cols, c)
				vals = append(vals, m.Val[p])
			}
		}
		out.RowPtr[i+1] = int64(len(cols))
	}
	out.ColIdx = cols
	out.Val = vals
	return out
}

// SelectColumns returns the Rows×len(cols) submatrix formed by the given
// columns of m, relabelled 0..len(cols)-1 in the given order. cols must be
// strictly increasing for the output to preserve sortedness; otherwise the
// output is marked unsorted. Used to build the tall-skinny right-hand sides
// of the paper's Section 5.5 evaluation.
func (m *CSRG[V]) SelectColumns(cols []int32) *CSRG[V] {
	remap := make(map[int32]int32, len(cols))
	increasing := true
	for i, c := range cols {
		remap[c] = int32(i)
		if i > 0 && cols[i] <= cols[i-1] {
			increasing = false
		}
	}
	out := &CSRG[V]{Rows: m.Rows, Cols: len(cols), RowPtr: make([]int64, m.Rows+1)}
	var oc []int32
	var ov []V
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		for p := lo; p < hi; p++ {
			if nc, ok := remap[m.ColIdx[p]]; ok {
				oc = append(oc, nc)
				ov = append(ov, m.Val[p])
			}
		}
		out.RowPtr[i+1] = int64(len(oc))
	}
	out.ColIdx = oc
	out.Val = ov
	out.Sorted = m.Sorted && increasing
	return out
}

// String returns a short human-readable description (not the full contents).
func (m *CSRG[V]) String() string {
	return fmt.Sprintf("CSR{%dx%d, nnz=%d, sorted=%v}", m.Rows, m.Cols, m.NNZ(), m.Sorted)
}
