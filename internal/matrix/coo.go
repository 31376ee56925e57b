package matrix

import (
	"fmt"

	"repro/internal/semiring"
)

// EntryG is one (row, column, value) triple of a sparse matrix over V.
type EntryG[V semiring.Value] struct {
	Row, Col int32
	Val      V
}

// Entry is the float64 instantiation.
type Entry = EntryG[float64]

// COOG is a sparse matrix in coordinate (triplet) format over V. It is the
// natural output format of the generators and of Matrix Market parsing, and
// converts to CSR for computation.
type COOG[V semiring.Value] struct {
	Rows, Cols int
	Entries    []EntryG[V]
}

// COO is the float64 instantiation.
type COO = COOG[float64]

// NewCOO returns an empty rows×cols float64 coordinate matrix.
func NewCOO(rows, cols int) *COO { return NewCOOG[float64](rows, cols) }

// NewCOOG returns an empty rows×cols coordinate matrix over V.
func NewCOOG[V semiring.Value](rows, cols int) *COOG[V] {
	return &COOG[V]{Rows: rows, Cols: cols}
}

// Append adds one entry. It does not check for duplicates; ToCSR merges them.
func (c *COOG[V]) Append(row, col int32, val V) {
	c.Entries = append(c.Entries, EntryG[V]{row, col, val})
}

// Validate checks that all entries are in range.
func (c *COOG[V]) Validate() error {
	for i, e := range c.Entries {
		if e.Row < 0 || int(e.Row) >= c.Rows || e.Col < 0 || int(e.Col) >= c.Cols {
			return fmt.Errorf("matrix: COO entry %d (%d,%d) out of range %dx%d", i, e.Row, e.Col, c.Rows, c.Cols)
		}
	}
	return nil
}

// ToCSR converts to CSR, merging duplicate (row,col) entries (numeric +,
// logical OR for bool) and dropping entries whose merged value is the
// storage zero. Rows come out sorted.
func (c *COOG[V]) ToCSR() *CSRG[V] { return c.toCSR(false) }

// toCSR is ToCSR with the choice of keeping storage zeros (see compact).
func (c *COOG[V]) toCSR(keepZeros bool) *CSRG[V] {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	// Counting sort by row, then sort each row segment by column.
	rowCount := make([]int64, c.Rows+1)
	for _, e := range c.Entries {
		rowCount[e.Row+1]++
	}
	for i := 0; i < c.Rows; i++ {
		rowCount[i+1] += rowCount[i]
	}
	cols := make([]int32, len(c.Entries))
	vals := make([]V, len(c.Entries))
	next := make([]int64, c.Rows)
	copy(next, rowCount[:c.Rows])
	for _, e := range c.Entries {
		p := next[e.Row]
		cols[p] = e.Col
		vals[p] = e.Val
		next[e.Row] = p + 1
	}
	m := &CSRG[V]{
		Rows:   c.Rows,
		Cols:   c.Cols,
		RowPtr: rowCount,
		ColIdx: cols,
		Val:    vals,
		Sorted: false,
	}
	m.SortRows()
	return m.compact(keepZeros)
}

// FromCSR converts back to coordinate format with entries in row-major order.
func FromCSR[V semiring.Value](m *CSRG[V]) *COOG[V] {
	c := &COOG[V]{Rows: m.Rows, Cols: m.Cols, Entries: make([]EntryG[V], 0, m.NNZ())}
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		for p := lo; p < hi; p++ {
			c.Entries = append(c.Entries, EntryG[V]{int32(i), m.ColIdx[p], m.Val[p]})
		}
	}
	return c
}

// Symmetrize adds the transpose entry for every off-diagonal entry, producing
// the adjacency of an undirected graph. Duplicates are merged later by ToCSR.
func (c *COOG[V]) Symmetrize() {
	n := len(c.Entries)
	for i := 0; i < n; i++ {
		e := c.Entries[i]
		if e.Row != e.Col {
			c.Entries = append(c.Entries, EntryG[V]{e.Col, e.Row, e.Val})
		}
	}
}
