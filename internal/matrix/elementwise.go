package matrix

import (
	"fmt"

	"repro/internal/semiring"
)

// Elementwise matrix algebra: HadamardG operates row-by-row on sorted
// matrices (unsorted inputs are sorted into a copy first) and returns a sorted
// result; Sum reduces every stored value. Both are generic over V.

// HadamardG returns the elementwise product a .* b (intersection of
// patterns); dimensions must match. Values multiply with mulValue semantics
// (numeric product; logical AND for bool), and entries whose product is the
// storage zero are dropped.
func HadamardG[V semiring.Value](a, b *CSRG[V]) (*CSRG[V], error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return nil, fmt.Errorf("matrix: Hadamard dimension mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	a = ensureSorted(a)
	b = ensureSorted(b)
	out := &CSRG[V]{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int64, a.Rows+1), Sorted: true}
	for i := 0; i < a.Rows; i++ {
		ac, av := a.Row(i)
		bc, bv := b.Row(i)
		p, q := 0, 0
		for p < len(ac) && q < len(bc) {
			switch {
			case ac[p] < bc[q]:
				p++
			case bc[q] < ac[p]:
				q++
			default:
				if v := mulValue(av[p], bv[q]); !isZeroValue(v) {
					out.push(ac[p], v)
				}
				p++
				q++
			}
		}
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out, nil
}

// Sum returns the combination of all stored values under V's conventional
// addition (numeric sum; logical OR for bool).
func (m *CSRG[V]) Sum() V {
	var s V
	for _, v := range m.Val {
		s = addValue(s, v)
	}
	return s
}

// push appends one entry to the under-construction matrix.
func (m *CSRG[V]) push(col int32, v V) {
	m.ColIdx = append(m.ColIdx, col)
	m.Val = append(m.Val, v)
}

// ensureSorted returns m if its rows are sorted, else a sorted copy.
func ensureSorted[V semiring.Value](m *CSRG[V]) *CSRG[V] {
	if m.Sorted {
		return m
	}
	c := m.Clone()
	c.SortRows()
	return c
}
